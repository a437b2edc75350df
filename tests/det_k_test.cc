#include "baselines/det_k_decomp.h"

#include <gtest/gtest.h>

#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace htd {
namespace {

SolveOptions Validated() {
  SolveOptions options;
  options.validate_result = true;
  return options;
}

TEST(DetKTest, PathHasWidthOne) {
  DetKDecomp solver(Validated());
  Hypergraph path = MakePath(8);
  EXPECT_EQ(solver.Solve(path, 1).outcome, Outcome::kYes);
}

TEST(DetKTest, StarHasWidthOne) {
  DetKDecomp solver(Validated());
  EXPECT_EQ(solver.Solve(MakeStar(7), 1).outcome, Outcome::kYes);
}

TEST(DetKTest, CycleHasWidthTwo) {
  DetKDecomp solver(Validated());
  for (int n : {3, 4, 5, 8, 12}) {
    Hypergraph cycle = MakeCycle(n);
    EXPECT_EQ(solver.Solve(cycle, 1).outcome, Outcome::kNo) << "cycle " << n;
    SolveResult result = solver.Solve(cycle, 2);
    EXPECT_EQ(result.outcome, Outcome::kYes) << "cycle " << n;
    ASSERT_TRUE(result.decomposition.has_value());
    EXPECT_LE(result.decomposition->Width(), 2);
  }
}

TEST(DetKTest, ProducedHdIsValid) {
  DetKDecomp solver;  // validation off; check explicitly
  Hypergraph cycle = MakeCycle(10);
  SolveResult result = solver.Solve(cycle, 2);
  ASSERT_EQ(result.outcome, Outcome::kYes);
  ASSERT_TRUE(result.decomposition.has_value());
  Validation validation = ValidateHd(cycle, *result.decomposition);
  EXPECT_TRUE(validation.ok) << validation.error;
}

TEST(DetKTest, CliqueWidths) {
  DetKDecomp solver(Validated());
  // K4 has hw 2: a single node with λ = {ab, cd} covers every edge.
  EXPECT_EQ(solver.Solve(MakeClique(4), 1).outcome, Outcome::kNo);
  EXPECT_EQ(solver.Solve(MakeClique(4), 2).outcome, Outcome::kYes);
}

TEST(DetKTest, HigherKStaysYes) {
  DetKDecomp solver(Validated());
  Hypergraph cycle = MakeCycle(7);
  for (int k = 2; k <= 5; ++k) {
    EXPECT_EQ(solver.Solve(cycle, k).outcome, Outcome::kYes) << "k=" << k;
  }
}

TEST(DetKTest, EmptyHypergraph) {
  DetKDecomp solver;
  Hypergraph empty;
  SolveResult result = solver.Solve(empty, 1);
  EXPECT_EQ(result.outcome, Outcome::kYes);
  ASSERT_TRUE(result.decomposition.has_value());
  EXPECT_EQ(result.decomposition->num_nodes(), 0);
}

TEST(DetKTest, SingleEdge) {
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int b = graph.GetOrAddVertex("b");
  ASSERT_TRUE(graph.AddEdge("R", {a, b}).ok());
  DetKDecomp solver(Validated());
  SolveResult result = solver.Solve(graph, 1);
  EXPECT_EQ(result.outcome, Outcome::kYes);
  EXPECT_EQ(result.decomposition->num_nodes(), 1);
}

TEST(DetKTest, CancellationReturnsCancelled) {
  util::CancelToken cancel;
  cancel.RequestStop();
  SolveOptions options;
  options.cancel = &cancel;
  DetKDecomp solver(options);
  EXPECT_EQ(solver.Solve(MakeCycle(12), 2).outcome, Outcome::kCancelled);
}

TEST(DetKTest, NegativeCacheIsExercised) {
  // A refutation that reaches the same failing (component, Conn) subproblem
  // through several branches; the memo must answer the revisits.
  util::Rng rng(31);
  DetKDecomp solver;
  SolveResult result = solver.Solve(MakeRandomCq(rng, 10, 4, 0.35), 2);
  EXPECT_EQ(result.outcome, Outcome::kNo);
  EXPECT_GT(result.stats.cache_hits, 0);
}

TEST(DetKTest, DecompositionCoversDisconnectedGraphs) {
  // Two disjoint paths: the root's components are handled independently.
  Hypergraph graph;
  std::vector<int> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(graph.GetOrAddVertex("x" + std::to_string(i)));
  }
  ASSERT_TRUE(graph.AddEdge("a", {v[0], v[1]}).ok());
  ASSERT_TRUE(graph.AddEdge("b", {v[1], v[2]}).ok());
  ASSERT_TRUE(graph.AddEdge("c", {v[3], v[4]}).ok());
  ASSERT_TRUE(graph.AddEdge("d", {v[4], v[5]}).ok());
  DetKDecomp solver(Validated());
  EXPECT_EQ(solver.Solve(graph, 1).outcome, Outcome::kYes);
}

TEST(DetKTest, StatsArePopulated) {
  DetKDecomp solver;
  SolveResult result = solver.Solve(MakeCycle(8), 2);
  EXPECT_GT(result.stats.recursive_calls, 0);
  EXPECT_GT(result.stats.separators_tried, 0);
  EXPECT_GE(result.stats.seconds, 0.0);
}

// Width of hypercycles: arity-a edges around a cycle always admit width 2
// (two "opposite" edges separate the cycle), never width 1 (cyclic).
class DetKHyperCycleTest : public ::testing::TestWithParam<int> {};

TEST_P(DetKHyperCycleTest, HyperCycleWidthTwo) {
  Hypergraph hc = MakeHyperCycle(GetParam(), 3, 1);
  DetKDecomp solver(Validated());
  EXPECT_EQ(solver.Solve(hc, 1).outcome, Outcome::kNo);
  EXPECT_EQ(solver.Solve(hc, 2).outcome, Outcome::kYes);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DetKHyperCycleTest, ::testing::Values(4, 5, 6, 8));

}  // namespace
}  // namespace htd
