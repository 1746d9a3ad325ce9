#pragma once

// The benchmark's own correctness checks. Each one recomputes a
// property of the program's output independently (never against a
// stored copy of an earlier output) and returns a non-OK Status that
// says what is wrong. perfbench/checks_test.cc feeds each a
// deliberately wrong input.

#include <cstdint>
#include <vector>

#include "engine/table.h"
#include "ilp/compact_problem.h"
#include "ilp/problem.h"
#include "util/status.h"

namespace perfbench {

/// Recomputes sum_ij y_ij B_ij - sum_j z_j O_j by its own loops and
/// requires it to match `solution.utility` to a relative 1e-9. Also
/// requires matching shapes, y_ij <= z_j, and no query using two
/// overlapping views. A dense problem is checked through
/// CompactMvsProblem::FromDense.
autoview::Status CheckSolution(const autoview::CompactMvsProblem& problem,
                               const autoview::MvsSolution& solution);

/// The rewritten plan's answer must equal the base plan's answer as a
/// bag of rows (TablesEqualUnordered).
autoview::Status CheckAnswer(const autoview::Table& base,
                             const autoview::Table& rewritten);

/// A budgeted store (budget > 0) must hold at most `budget` bytes.
autoview::Status CheckStoreBudget(uint64_t bytes_used, uint64_t budget);

/// Every estimate must be finite, and the fallback estimator must have
/// served no call (the learned model answered everything itself).
autoview::Status CheckEstimates(const std::vector<double>& estimates,
                                uint64_t fallback_calls);

/// Mean absolute percentage error (%) of `estimates` against `targets`
/// over the samples with a nonzero target.
double MapePct(const std::vector<double>& estimates,
               const std::vector<double>& targets);

}  // namespace perfbench
