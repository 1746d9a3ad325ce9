// Each benchmark check must accept a correct output and reject a
// deliberately wrong one.

#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace perfbench {
namespace {

using autoview::CompactMvsProblem;
using autoview::MvsProblem;
using autoview::MvsSolution;
using autoview::Table;
using autoview::Value;

/// 2 queries x 3 views; views 0 and 1 overlap.
CompactMvsProblem SmallProblem() {
  MvsProblem p;
  p.benefit = {{5.0, 4.0, 0.0}, {0.0, 3.0, 2.5}};
  p.overhead = {1.0, 1.5, 0.75};
  p.overlap = {{false, true, false}, {true, false, false},
               {false, false, false}};
  p.frequency = {1, 2, 1};
  return CompactMvsProblem::FromDense(p);
}

/// z = {0, 2}; query 0 uses view 0, query 1 uses view 2.
MvsSolution GoodSolution() {
  MvsSolution s;
  s.z = {true, false, true};
  s.y = {{true, false, false}, {false, false, true}};
  s.utility = 5.0 + 2.5 - 1.0 - 0.75;
  return s;
}

TEST(CheckSolutionTest, AcceptsCorrectUtility) {
  const CompactMvsProblem p = SmallProblem();
  EXPECT_TRUE(CheckSolution(p, GoodSolution()).ok());
}

TEST(CheckSolutionTest, RejectsUtilityOffByOneViewOverhead) {
  const CompactMvsProblem p = SmallProblem();
  MvsSolution s = GoodSolution();
  s.utility += p.overhead[2];  // as if view 2's overhead were not charged
  EXPECT_FALSE(CheckSolution(p, s).ok());
}

TEST(CheckSolutionTest, RejectsUseOfUnmaterializedView) {
  const CompactMvsProblem p = SmallProblem();
  MvsSolution s = GoodSolution();
  s.y[1] = {false, true, false};  // view 1 is not in z
  s.utility = 5.0 + 3.0 - 1.0 - 0.75;
  EXPECT_FALSE(CheckSolution(p, s).ok());
}

TEST(CheckSolutionTest, RejectsOverlappingViewsInOneQuery) {
  const CompactMvsProblem p = SmallProblem();
  MvsSolution s;
  s.z = {true, true, false};
  s.y = {{true, true, false}, {false, true, false}};
  s.utility = 5.0 + 4.0 + 3.0 - 1.0 - 1.5;
  EXPECT_FALSE(CheckSolution(p, s).ok());
}

Table ThreeRows() {
  Table t;
  t.columns.resize(1);
  t.columns[0].name = "x";
  for (int64_t v : {1, 2, 2}) t.rows.push_back({Value(v)});
  return t;
}

TEST(CheckAnswerTest, AcceptsSameBagInAnotherOrder) {
  Table reordered = ThreeRows();
  std::swap(reordered.rows[0], reordered.rows[2]);
  EXPECT_TRUE(CheckAnswer(ThreeRows(), reordered).ok());
}

TEST(CheckAnswerTest, RejectsAnswerWithOneRowDropped) {
  Table dropped = ThreeRows();
  dropped.rows.pop_back();
  EXPECT_FALSE(CheckAnswer(ThreeRows(), dropped).ok());
}

TEST(CheckStoreBudgetTest, RejectsStoreOverItsBudget) {
  EXPECT_TRUE(CheckStoreBudget(4096, 4096).ok());
  EXPECT_TRUE(CheckStoreBudget(1 << 20, 0).ok());  // unbudgeted
  EXPECT_FALSE(CheckStoreBudget(4097, 4096).ok());
}

TEST(CheckEstimatesTest, RejectsNonFiniteEstimate) {
  EXPECT_TRUE(CheckEstimates({0.5, 1.25}, 0).ok());
  EXPECT_FALSE(
      CheckEstimates({0.5, std::numeric_limits<double>::quiet_NaN()}, 0).ok());
  EXPECT_FALSE(
      CheckEstimates({std::numeric_limits<double>::infinity(), 1.0}, 0).ok());
}

TEST(CheckEstimatesTest, RejectsFallbackCalls) {
  EXPECT_FALSE(CheckEstimates({0.5, 1.25}, 1).ok());
}

TEST(MapeTest, SkipsZeroTargets) {
  EXPECT_DOUBLE_EQ(MapePct({1.5, 7.0}, {1.0, 0.0}), 50.0);
}

}  // namespace
}  // namespace perfbench
