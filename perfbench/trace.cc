#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled, size_t lanes)
    : enabled_(enabled), epoch_(Clock::now()), lanes_(lanes) {}

int64_t Tracer::Begin(size_t lane, const char* name, int64_t request) {
  if (!enabled_) return -1;
  Lane& l = lanes_[lane];
  Span span;
  span.name = name;
  span.parent = l.open.empty() ? -1 : l.open.back();
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  l.spans.push_back(span);
  const int64_t index = static_cast<int64_t>(l.spans.size()) - 1;
  l.open.push_back(index);
  return index;
}

void Tracer::End(size_t lane, int64_t index) {
  if (!enabled_ || index < 0) return;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  Lane& l = lanes_[lane];
  l.spans[static_cast<size_t>(index)].end_ns = now;
  if (!l.open.empty() && l.open.back() == index) l.open.pop_back();
}

void Tracer::MarkLast(size_t lane, const char* name) {
  if (!enabled_ || lanes_[lane].spans.empty()) return;
  lanes_[lane].spans.back().name = name;
}

std::vector<int64_t> Tracer::DurationsNs(const std::string& name) const {
  std::vector<int64_t> out;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans) {
      if (name == span.name) out.push_back(span.end_ns - span.start_ns);
    }
  }
  return out;
}

size_t Tracer::num_spans() const {
  size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.spans.size();
  return n;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "lane\tindex\tparent\trequest\tname\tstart_us\tend_us\n");
  for (size_t k = 0; k < lanes_.size(); ++k) {
    const std::vector<Span>& spans = lanes_[k].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%lld\t%s\t%.3f\t%.3f\n", k, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
