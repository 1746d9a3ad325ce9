#include "checks.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

using autoview::Status;

Status CheckSolution(const autoview::CompactMvsProblem& problem,
                     const autoview::MvsSolution& solution) {
  const size_t nq = problem.num_queries();
  const size_t nv = problem.num_views();
  if (solution.z.size() != nv || solution.y.size() != nq) {
    return Status::InvalidArgument("solution shape does not match problem");
  }
  double utility = 0.0;
  for (size_t j = 0; j < nv; ++j) {
    if (solution.z[j]) utility -= problem.overhead[j];
  }
  std::vector<size_t> used;
  for (size_t i = 0; i < nq; ++i) {
    const std::vector<bool>& row = solution.y[i];
    if (row.size() != nv) {
      return Status::InvalidArgument("y row " + std::to_string(i) +
                                     " has the wrong width");
    }
    used.clear();
    for (auto it = std::find(row.begin(), row.end(), true); it != row.end();
         it = std::find(it + 1, row.end(), true)) {
      const size_t j = static_cast<size_t>(it - row.begin());
      if (!solution.z[j]) {
        return Status::InvalidArgument(
            "query " + std::to_string(i) + " uses view " + std::to_string(j) +
            " that is not materialized");
      }
      const std::vector<uint32_t>& adjacent = problem.overlap_adjacency[j];
      for (size_t k : used) {
        if (std::binary_search(adjacent.begin(), adjacent.end(),
                               static_cast<uint32_t>(k))) {
          return Status::InvalidArgument(
              "query " + std::to_string(i) + " uses overlapping views " +
              std::to_string(k) + " and " + std::to_string(j));
        }
      }
      used.push_back(j);
    }
    if (used.empty()) continue;
    problem.rows.ForEachEntry(i, [&](size_t j, double benefit) {
      if (row[j]) utility += benefit;
    });
  }
  const double scale = std::max(std::fabs(utility), std::fabs(solution.utility));
  if (!std::isfinite(utility) || !std::isfinite(solution.utility) ||
      std::fabs(utility - solution.utility) > 1e-9 * scale) {
    return Status::InvalidArgument(
        "reported utility " + std::to_string(solution.utility) +
        " differs from recomputed " + std::to_string(utility));
  }
  return Status::OK();
}

Status CheckAnswer(const autoview::Table& base,
                   const autoview::Table& rewritten) {
  if (!autoview::TablesEqualUnordered(base, rewritten)) {
    return Status::InvalidArgument(
        "rewritten answer differs from base answer (" +
        std::to_string(rewritten.num_rows()) + " vs " +
        std::to_string(base.num_rows()) + " rows)");
  }
  return Status::OK();
}

Status CheckStoreBudget(uint64_t bytes_used, uint64_t budget) {
  if (budget > 0 && bytes_used > budget) {
    return Status::InvalidArgument(
        "store holds " + std::to_string(bytes_used) +
        " bytes, over its budget of " + std::to_string(budget));
  }
  return Status::OK();
}

Status CheckEstimates(const std::vector<double>& estimates,
                      uint64_t fallback_calls) {
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (!std::isfinite(estimates[i])) {
      return Status::InvalidArgument("estimate " + std::to_string(i) +
                                     " is not finite");
    }
  }
  if (fallback_calls != 0) {
    return Status::InvalidArgument(std::to_string(fallback_calls) +
                                   " estimates were served by the fallback");
  }
  return Status::OK();
}

double MapePct(const std::vector<double>& estimates,
               const std::vector<double>& targets) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < estimates.size() && i < targets.size(); ++i) {
    if (targets[i] == 0.0) continue;
    sum += std::fabs(estimates[i] - targets[i]) / std::fabs(targets[i]);
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

}  // namespace perfbench
