#pragma once

// In-memory span recorder for the benchmark driver.
//
// A span is one timed call into a layer: name, start, end, the span
// that caused it, and the request it belongs to (-1 outside serving).
// Spans are appended to per-thread lanes while the run is measured and
// written out once at the end, so recording costs two clock reads and
// one vector append. With tracing disabled every call is a no-op.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the parent span in the same lane
  int64_t request = -1;  ///< serving request id; -1 for non-serving spans
};

class Tracer {
 public:
  /// `lanes` is the number of threads that record; lane k must only be
  /// used by one thread at a time.
  Tracer(bool enabled, size_t lanes);

  bool enabled() const { return enabled_; }

  /// Opens a span on `lane` whose parent is the lane's innermost open
  /// span. Returns its index (or -1 when disabled).
  int64_t Begin(size_t lane, const char* name, int64_t request = -1);
  void End(size_t lane, int64_t index);
  /// Renames the most recent span of `lane` (a call whose kind is only
  /// known once it returned, e.g. an ingest that re-selected).
  void MarkLast(size_t lane, const char* name);

  /// Durations (ns) of every recorded span called `name`, all lanes.
  std::vector<int64_t> DurationsNs(const std::string& name) const;
  size_t num_spans() const;

  /// One line per span: lane, index, parent, request, name, start_us,
  /// end_us (tab separated, with a header line).
  bool WriteTsv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Lane {
    std::vector<Span> spans;
    std::vector<int64_t> open;  ///< stack of open span indices
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

/// RAII span; tolerates a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, size_t lane, const char* name,
             int64_t request = -1)
      : tracer_(tracer), lane_(lane),
        index_(tracer->Begin(lane, name, request)) {}
  ~ScopedSpan() { tracer_->End(lane_, index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t lane_;
  int64_t index_;
};

}  // namespace perfbench
