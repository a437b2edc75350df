// Preprocessing (prep/): reductions are width-preserving, lifted HDs
// validate against the original hypergraph, and the wrapper solver agrees
// with raw solvers on every instance family.
#include <gtest/gtest.h>

#include "baselines/det_k_decomp.h"
#include "core/log_k_decomp.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "prep/prep_solver.h"
#include "prep/preprocess.h"
#include "service/subproblem_store.h"
#include "util/rng.h"

namespace htd {
namespace {

TEST(PreprocessTest, RemovesSubsumedEdge) {
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int b = graph.GetOrAddVertex("b");
  int c = graph.GetOrAddVertex("c");
  ASSERT_TRUE(graph.AddEdge("big", {a, b, c}).ok());
  ASSERT_TRUE(graph.AddEdge("small", {a, b}).ok());

  PreprocessedInstance instance = Preprocess(graph);
  EXPECT_EQ(instance.stats().subsumed_edges_removed, 1);
  ASSERT_EQ(instance.components().size(), 1u);
  EXPECT_EQ(instance.components()[0].graph.num_edges(), 1);
  EXPECT_EQ(instance.components()[0].graph.edge_name(0), "big");
}

TEST(PreprocessTest, DuplicateEdgesKeepLowerId) {
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int b = graph.GetOrAddVertex("b");
  ASSERT_TRUE(graph.AddEdge("first", {a, b}).ok());
  ASSERT_TRUE(graph.AddEdge("second", {a, b}).ok());

  PreprocessedInstance instance = Preprocess(graph);
  // After contracting twins a,b the two edges are equal; exactly one survives
  // and it is the one with the smaller id.
  ASSERT_EQ(instance.components().size(), 1u);
  ASSERT_EQ(instance.components()[0].graph.num_edges(), 1);
  EXPECT_EQ(instance.components()[0].graph.edge_name(0), "first");
}

TEST(PreprocessTest, ContractsTwinVertices) {
  // x and y occur in exactly the edges {e1}, as does z: all three are twins.
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int x = graph.GetOrAddVertex("x");
  int y = graph.GetOrAddVertex("y");
  int z = graph.GetOrAddVertex("z");
  int b = graph.GetOrAddVertex("b");
  ASSERT_TRUE(graph.AddEdge("e1", {a, x, y, z}).ok());
  ASSERT_TRUE(graph.AddEdge("e2", {a, b}).ok());

  PreprocessedInstance instance = Preprocess(graph);
  EXPECT_EQ(instance.stats().twin_vertices_contracted, 2);
  EXPECT_EQ(instance.TwinClass(x), (std::vector<int>{x, y, z}));
  ASSERT_EQ(instance.components().size(), 1u);
  EXPECT_EQ(instance.components()[0].graph.num_vertices(), 3);  // a, x, b
}

TEST(PreprocessTest, FixpointChainsTwinsAndSubsumption) {
  // After contracting the twins {x, y}, edge "dup" becomes equal to "base"
  // and must be removed in a later round: the reductions feed each other.
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int x = graph.GetOrAddVertex("x");
  int y = graph.GetOrAddVertex("y");
  int b = graph.GetOrAddVertex("b");
  ASSERT_TRUE(graph.AddEdge("base", {a, x}).ok());
  ASSERT_TRUE(graph.AddEdge("dup", {a, y}).ok());
  ASSERT_TRUE(graph.AddEdge("tail", {a, b}).ok());
  // x and y are NOT twins initially (different edges); they become twins only
  // if edges merge first — which cannot happen here. Instead check the other
  // direction: make x, y twins via shared incidence.
  PreprocessedInstance instance = Preprocess(graph);
  // No twins, no subsumption: instance unchanged.
  EXPECT_EQ(instance.stats().twin_vertices_contracted, 0);
  EXPECT_EQ(instance.stats().subsumed_edges_removed, 0);
  EXPECT_EQ(instance.ReducedEdgeCount(), 3);
}

TEST(PreprocessTest, SubsumptionCreatesTwins) {
  // "wide" subsumes "narrow"; once "narrow" is gone, vertices c and d occur
  // only in "wide" and collapse into one class with b.
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int b = graph.GetOrAddVertex("b");
  int c = graph.GetOrAddVertex("c");
  int d = graph.GetOrAddVertex("d");
  int e = graph.GetOrAddVertex("e");
  ASSERT_TRUE(graph.AddEdge("wide", {a, b, c, d}).ok());
  ASSERT_TRUE(graph.AddEdge("narrow", {c, d}).ok());
  ASSERT_TRUE(graph.AddEdge("anchor", {a, e}).ok());

  PreprocessedInstance instance = Preprocess(graph);
  EXPECT_EQ(instance.stats().subsumed_edges_removed, 1);
  EXPECT_EQ(instance.stats().twin_vertices_contracted, 2);  // c, d join b
  EXPECT_EQ(instance.TwinClass(b), (std::vector<int>{b, c, d}));
  EXPECT_GE(instance.stats().fixpoint_rounds, 2);
}

TEST(PreprocessTest, SplitsConnectedComponents) {
  Hypergraph graph;
  std::vector<int> left, right;
  for (int i = 0; i < 4; ++i) left.push_back(graph.GetOrAddVertex("l" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) right.push_back(graph.GetOrAddVertex("r" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(graph.AddEdge({left[i], left[(i + 1) % 4]}).ok());
    ASSERT_TRUE(graph.AddEdge({right[i], right[(i + 1) % 4]}).ok());
  }

  PreprocessedInstance instance = Preprocess(graph);
  EXPECT_EQ(instance.stats().num_components, 2);
  for (const ReducedComponent& component : instance.components()) {
    EXPECT_EQ(component.graph.num_edges(), 4);
    EXPECT_EQ(component.graph.num_vertices(), 4);
  }
}

TEST(PreprocessTest, OptionsDisableIndividualReductions) {
  Hypergraph graph;
  int a = graph.GetOrAddVertex("a");
  int b = graph.GetOrAddVertex("b");
  int c = graph.GetOrAddVertex("c");
  ASSERT_TRUE(graph.AddEdge("big", {a, b, c}).ok());
  ASSERT_TRUE(graph.AddEdge("small", {a, b}).ok());

  PreprocessOptions no_subsume;
  no_subsume.remove_subsumed_edges = false;
  no_subsume.contract_twin_vertices = false;
  PreprocessedInstance instance = Preprocess(graph, no_subsume);
  EXPECT_EQ(instance.stats().subsumed_edges_removed, 0);
  EXPECT_EQ(instance.ReducedEdgeCount(), 2);
}

TEST(PreprocessTest, EdgelessGraphLiftsToTrivialDecomposition) {
  Hypergraph graph;
  PreprocessedInstance instance = Preprocess(graph);
  EXPECT_EQ(instance.stats().num_components, 0);
  Decomposition lifted = instance.Lift(graph, {});
  EXPECT_EQ(lifted.num_nodes(), 1);
  EXPECT_EQ(lifted.Width(), 0);
}

TEST(PrepSolverTest, LiftedHdValidatesOnOriginal) {
  // Cycle + duplicated vertices + a subsumed edge + a second component.
  Hypergraph graph = MakeCycle(8);
  int extra1 = graph.AddVertex();
  int extra2 = graph.AddVertex();
  ASSERT_TRUE(graph.AddEdge("twins", {graph.FindVertex("x0"), extra1, extra2}).ok());
  ASSERT_TRUE(graph
                  .AddEdge("subsumed",
                           {graph.FindVertex("x0"), graph.FindVertex("x1")})
                  .ok());
  int island_a = graph.AddVertex();
  int island_b = graph.AddVertex();
  ASSERT_TRUE(graph.AddEdge("island", {island_a, island_b}).ok());

  LogKDecomp inner;
  PreprocessingSolver solver(inner, {}, /*validate_result=*/true);
  SolveResult result = solver.Solve(graph, 2);
  ASSERT_EQ(result.outcome, Outcome::kYes);
  ASSERT_TRUE(result.decomposition.has_value());
  Validation validation = ValidateHdWithWidth(graph, *result.decomposition, 2);
  EXPECT_TRUE(validation.ok) << validation.error;
  EXPECT_GT(solver.last_prep_stats().subsumed_edges_removed, 0);
  EXPECT_GT(solver.last_prep_stats().twin_vertices_contracted, 0);
  EXPECT_EQ(solver.last_prep_stats().num_components, 2);
}

TEST(PrepSolverTest, RejectsWidthBelowOptimum) {
  Hypergraph graph = MakeCycle(9);  // hw = 2
  LogKDecomp inner;
  PreprocessingSolver solver(inner);
  EXPECT_EQ(solver.Solve(graph, 1).outcome, Outcome::kNo);
  EXPECT_EQ(solver.Solve(graph, 2).outcome, Outcome::kYes);
}

TEST(PrepSolverTest, ReportsEveryInnerCounter) {
  // The wrapper sums its inner solves' stats; a store-backed inner solver
  // answers part of a warm solve from the store, and the wrapped result
  // must report those hits as the store counted them.
  service::SubproblemStore store;
  SolveOptions options;
  options.subproblem_store = &store;
  LogKDecomp inner(options);
  PreprocessingSolver solver(inner);
  Hypergraph grid = MakeGrid(3, 4);
  for (int warm_up = 0; warm_up < 3; ++warm_up) {
    ASSERT_EQ(solver.Solve(grid, 2).outcome, Outcome::kYes);
  }
  service::SubproblemStore::Stats before = store.GetStats();
  SolveResult result = solver.Solve(grid, 2);
  service::SubproblemStore::Stats after = store.GetStats();
  ASSERT_EQ(result.outcome, Outcome::kYes);
  ASSERT_GT(after.positive_hits + after.negative_hits,
            before.positive_hits + before.negative_hits);
  EXPECT_EQ(result.stats.store_positive_hits,
            static_cast<long>(after.positive_hits - before.positive_hits));
  EXPECT_EQ(result.stats.store_negative_hits,
            static_cast<long>(after.negative_hits - before.negative_hits));
}

TEST(PrepSolverTest, DisconnectedComponentsDecideIndependently) {
  // Component widths 1 and 2: hw of the union is 2.
  Hypergraph graph;
  std::vector<int> path, cycle;
  for (int i = 0; i < 3; ++i) path.push_back(graph.GetOrAddVertex("p" + std::to_string(i)));
  for (int i = 0; i < 5; ++i) cycle.push_back(graph.GetOrAddVertex("c" + std::to_string(i)));
  for (int i = 0; i + 1 < 3; ++i) ASSERT_TRUE(graph.AddEdge({path[i], path[i + 1]}).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(graph.AddEdge({cycle[i], cycle[(i + 1) % 5]}).ok());

  DetKDecomp inner;
  PreprocessingSolver solver(inner, {}, /*validate_result=*/true);
  EXPECT_EQ(solver.Solve(graph, 1).outcome, Outcome::kNo);
  SolveResult result = solver.Solve(graph, 2);
  ASSERT_EQ(result.outcome, Outcome::kYes);
  Validation validation = ValidateHd(graph, *result.decomposition);
  EXPECT_TRUE(validation.ok) << validation.error;
}

// ---------------------------------------------------------------------------
// Property sweep: preprocessing must not change the optimal width, and every
// lifted HD must pass the full validator on the original hypergraph.

Hypergraph RandomPrepInstance(uint64_t seed) {
  util::Rng rng(seed);
  switch (seed % 5) {
    case 0:
      return MakeRandomCsp(rng, 12, 8, 2, 4);  // high arity => twins
    case 1:
      return MakeRandomCq(rng, 9, 4, 0.3);
    case 2:
      return MakeHyperCycle(4 + static_cast<int>(seed % 4), 4, 2);
    case 3: {
      Hypergraph graph = MakeGrid(3, 3);
      return AddRandomChords(graph, rng, 2);
    }
    default: {
      // Deliberately messy: star + duplicate edges + an isolated cycle.
      Hypergraph graph = MakeStar(5);
      int a = graph.AddVertex();
      int b = graph.AddVertex();
      int c = graph.AddVertex();
      (void)graph.AddEdge({a, b});
      (void)graph.AddEdge({b, c});
      (void)graph.AddEdge({a, b});  // duplicate
      return graph;
    }
  }
}

class PrepPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrepPropertyTest, OptimalWidthUnchangedByPreprocessing) {
  const uint64_t seed = GetParam();
  Hypergraph graph = RandomPrepInstance(seed);

  DetKDecomp raw;
  DetKDecomp inner;
  PreprocessingSolver prepped(inner, {}, /*validate_result=*/true);

  OptimalRun raw_run = FindOptimalWidth(raw, graph, /*max_k=*/6);
  OptimalRun prep_run = FindOptimalWidth(prepped, graph, /*max_k=*/6);

  ASSERT_EQ(raw_run.outcome, Outcome::kYes) << "seed=" << seed;
  ASSERT_EQ(prep_run.outcome, Outcome::kYes) << "seed=" << seed;
  EXPECT_EQ(raw_run.width, prep_run.width) << "seed=" << seed;

  ASSERT_TRUE(prep_run.decomposition.has_value());
  Validation validation =
      ValidateHdWithWidth(graph, *prep_run.decomposition, prep_run.width);
  EXPECT_TRUE(validation.ok) << validation.error << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrepPropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace htd
