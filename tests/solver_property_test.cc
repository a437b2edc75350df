// Differential property tests: all solvers must agree on hw(H) <= k, every
// constructed HD must validate, and decisions must be monotone in k.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/balsep_ghd.h"
#include "baselines/det_k_decomp.h"
#include "core/hybrid.h"
#include "core/log_k_decomp.h"
#include "core/log_k_decomp_basic.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/rng.h"

namespace htd {
namespace {

Hypergraph RandomInstance(uint64_t seed) {
  util::Rng rng(seed);
  switch (seed % 4) {
    case 0:
      return MakeRandomCsp(rng, 14, 9, 2, 4);
    case 1:
      return MakeRandomCq(rng, 10, 4, 0.35);
    case 2:
      return AddRandomChords(MakePath(7), rng, 3);
    default:
      return MakeHyperCycle(3 + static_cast<int>(seed % 5), 3, 1);
  }
}

class CrossSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossSolverTest, AllSolversAgreeAndHdsValidate) {
  const uint64_t seed = GetParam();
  Hypergraph graph = RandomInstance(seed);

  DetKDecomp det_k;
  LogKDecomp log_k;
  std::unique_ptr<HdSolver> hybrid =
      MakeHybridSolver(HybridMetric::kEdgeCount, /*threshold=*/5.0);

  Outcome previous = Outcome::kNo;
  for (int k = 1; k <= 4; ++k) {
    SolveResult det_result = det_k.Solve(graph, k);
    SolveResult log_result = log_k.Solve(graph, k);
    SolveResult hybrid_result = hybrid->Solve(graph, k);

    EXPECT_EQ(det_result.outcome, log_result.outcome)
        << "det-k vs log-k disagree, seed=" << seed << " k=" << k;
    EXPECT_EQ(det_result.outcome, hybrid_result.outcome)
        << "det-k vs hybrid disagree, seed=" << seed << " k=" << k;

    for (const SolveResult* result : {&det_result, &log_result, &hybrid_result}) {
      if (result->outcome == Outcome::kYes) {
        ASSERT_TRUE(result->decomposition.has_value());
        Validation validation = ValidateHdWithWidth(graph, *result->decomposition, k);
        EXPECT_TRUE(validation.ok)
            << validation.error << " seed=" << seed << " k=" << k;
      }
    }
    // Monotonicity: once solvable, stays solvable for larger k.
    if (previous == Outcome::kYes) {
      EXPECT_EQ(det_result.outcome, Outcome::kYes) << "seed=" << seed << " k=" << k;
    }
    previous = det_result.outcome;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverTest, ::testing::Range(0, 24));

class BasicAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BasicAgreementTest, BasicAlgorithmAgreesWithOptimised) {
  // Algorithm 1 is much slower; use the smallest instances.
  util::Rng rng(GetParam());
  Hypergraph graph = MakeRandomCsp(rng, 10, 6, 2, 3);
  LogKDecompBasic basic;
  LogKDecomp optimised;
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(basic.Solve(graph, k).outcome, optimised.Solve(graph, k).outcome)
        << "seed=" << GetParam() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasicAgreementTest, ::testing::Range(100, 110));

// The normal form (Definition 3.5) holds for det-k-decomp's output on
// connected instances: its construction is exactly the minimal-χ top-down
// normal-form construction.
class NormalFormTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalFormTest, DetKOutputIsNormalForm) {
  Hypergraph graph = MakeCycle(4 + GetParam());
  DetKDecomp solver;
  SolveResult result = solver.Solve(graph, 2);
  ASSERT_EQ(result.outcome, Outcome::kYes);
  Validation nf = CheckNormalForm(graph, *result.decomposition);
  EXPECT_TRUE(nf.ok) << nf.error;
}

INSTANTIATE_TEST_SUITE_P(CycleSizes, NormalFormTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Search pin: what the sequential solvers explore on a few small instances,
// recorded once. Code shared between the engines (base cases, memo and store
// probes, candidate order, the Solve body) must leave every separator,
// recursive call and memo hit exactly where it was. `work_total` pins the
// sequential branch of DriveCandidates: each log-k candidate search adds the
// steps taken inside it, nested searches included, to both work_total and
// work_parallel, so the two are equal at width 1. The other solvers drive no
// search through it and report 0.

Hypergraph PinnedInstance(const std::string& name) {
  if (name == "cycle6") return MakeCycle(6);
  if (name == "grid3x4") return MakeGrid(3, 4);
  util::Rng rng(31);
  return MakeRandomCq(rng, 10, 4, 0.35);  // "cq31"
}

std::unique_ptr<HdSolver> PinnedSolver(const std::string& name) {
  SolveOptions options;
  if (name == "logk") return std::make_unique<LogKDecomp>(options);
  if (name == "detk") return std::make_unique<DetKDecomp>(options);
  if (name == "basic") return std::make_unique<LogKDecompBasic>(options);
  if (name == "balsep") return std::make_unique<BalSepGhd>(options);
  if (name == "hybrid") return MakeHybridSolver(HybridMetric::kEdgeCount, 5.0);
  options.enable_cache = true;  // "logk-memo"
  return std::make_unique<LogKDecomp>(options);
}

struct PinnedSearch {
  const char* solver;
  const char* instance;
  int k;
  Outcome outcome;
  long separators_tried;
  long recursive_calls;
  long cache_hits;
  long work_total;
};

constexpr PinnedSearch kPinnedSearches[] = {
    {"logk", "cycle6", 1, Outcome::kNo, 6, 1, 0, 6},
    {"logk", "cycle6", 2, Outcome::kYes, 34, 4, 0, 93},
    {"logk", "cycle6", 3, Outcome::kYes, 8, 2, 0, 8},
    {"logk", "grid3x4", 1, Outcome::kNo, 17, 1, 0, 17},
    {"logk", "grid3x4", 2, Outcome::kYes, 7335, 19, 0, 27294},
    {"logk", "grid3x4", 3, Outcome::kYes, 6994, 11, 0, 23639},
    {"logk", "cq31", 1, Outcome::kNo, 10, 1, 0, 10},
    {"logk", "cq31", 2, Outcome::kNo, 1667, 10, 0, 5905},
    {"logk", "cq31", 3, Outcome::kYes, 992, 6, 0, 3489},
    {"logk-memo", "cycle6", 1, Outcome::kNo, 6, 1, 0, 6},
    {"logk-memo", "cycle6", 2, Outcome::kYes, 34, 4, 0, 93},
    {"logk-memo", "cycle6", 3, Outcome::kYes, 8, 2, 0, 8},
    {"logk-memo", "grid3x4", 1, Outcome::kNo, 17, 1, 0, 17},
    {"logk-memo", "grid3x4", 2, Outcome::kYes, 2664, 19, 3, 8862},
    {"logk-memo", "grid3x4", 3, Outcome::kYes, 6994, 11, 0, 23639},
    {"logk-memo", "cq31", 1, Outcome::kNo, 10, 1, 0, 10},
    {"logk-memo", "cq31", 2, Outcome::kNo, 283, 10, 8, 649},
    {"logk-memo", "cq31", 3, Outcome::kYes, 992, 6, 0, 3489},
    {"detk", "cycle6", 1, Outcome::kNo, 36, 7, 0, 0},
    {"detk", "cycle6", 2, Outcome::kYes, 15, 3, 0, 0},
    {"detk", "cycle6", 3, Outcome::kYes, 10, 3, 0, 0},
    {"detk", "grid3x4", 1, Outcome::kNo, 289, 18, 0, 0},
    {"detk", "grid3x4", 2, Outcome::kYes, 1087, 17, 1, 0},
    {"detk", "grid3x4", 3, Outcome::kYes, 380, 8, 0, 0},
    {"detk", "cq31", 1, Outcome::kNo, 100, 11, 0, 0},
    {"detk", "cq31", 2, Outcome::kNo, 2867, 195, 130, 0},
    {"detk", "cq31", 3, Outcome::kYes, 93, 5, 0, 0},
    {"basic", "cycle6", 1, Outcome::kNo, 78, 6, 0, 0},
    {"basic", "cycle6", 2, Outcome::kYes, 11, 4, 0, 0},
    {"basic", "cycle6", 3, Outcome::kYes, 11, 4, 0, 0},
    {"basic", "grid3x4", 1, Outcome::kNo, 595, 17, 0, 0},
    {"basic", "grid3x4", 2, Outcome::kYes, 4008, 18, 0, 0},
    {"basic", "grid3x4", 3, Outcome::kYes, 454, 13, 0, 0},
    {"basic", "cq31", 1, Outcome::kNo, 210, 10, 0, 0},
    {"basic", "cq31", 2, Outcome::kNo, 13725, 58, 0, 0},
    {"basic", "cq31", 3, Outcome::kYes, 262, 7, 0, 0},
    {"balsep", "cycle6", 1, Outcome::kNo, 78, 7, 0, 0},
    {"balsep", "cycle6", 2, Outcome::kYes, 15, 2, 0, 0},
    {"balsep", "cycle6", 3, Outcome::kYes, 8, 2, 0, 0},
    {"balsep", "grid3x4", 1, Outcome::kNo, 595, 18, 0, 0},
    {"balsep", "grid3x4", 2, Outcome::kYes, 661, 10, 0, 0},
    {"balsep", "grid3x4", 3, Outcome::kYes, 286, 6, 0, 0},
    {"balsep", "cq31", 1, Outcome::kNo, 210, 11, 0, 0},
    {"balsep", "cq31", 2, Outcome::kNo, 27168, 282, 0, 0},
    {"balsep", "cq31", 3, Outcome::kYes, 95, 6, 0, 0},
};

TEST(SearchPinTest, SequentialSolversSearchExactlyAsPinned) {
  for (const PinnedSearch& pin : kPinnedSearches) {
    SCOPED_TRACE(std::string(pin.solver) + " on " + pin.instance +
                 " at k=" + std::to_string(pin.k));
    SolveResult result =
        PinnedSolver(pin.solver)->Solve(PinnedInstance(pin.instance), pin.k);
    EXPECT_EQ(result.outcome, pin.outcome);
    EXPECT_EQ(result.stats.separators_tried, pin.separators_tried);
    EXPECT_EQ(result.stats.recursive_calls, pin.recursive_calls);
    EXPECT_EQ(result.stats.cache_hits, pin.cache_hits);
    EXPECT_EQ(result.stats.work_total, pin.work_total);
    EXPECT_EQ(result.stats.work_parallel, result.stats.work_total);
  }
}

// The hybrid's det-k leaves receive narrowed allowed sets from log-k, so a
// memo that answers dominated probes may prune more than exact matching:
// the outcome is pinned, the separator count only from above.
struct PinnedHybridSearch {
  const char* instance;
  int k;
  Outcome outcome;
  long max_separators_tried;
};

constexpr PinnedHybridSearch kPinnedHybridSearches[] = {
    {"cycle6", 1, Outcome::kNo, 6},      {"cycle6", 2, Outcome::kYes, 13},
    {"cycle6", 3, Outcome::kYes, 8},     {"grid3x4", 1, Outcome::kNo, 17},
    {"grid3x4", 2, Outcome::kYes, 6788}, {"grid3x4", 3, Outcome::kYes, 5688},
    {"cq31", 1, Outcome::kNo, 10},       {"cq31", 2, Outcome::kNo, 1667},
    {"cq31", 3, Outcome::kYes, 695},
};

TEST(SearchPinTest, HybridSearchesNoMoreThanPinned) {
  long handoffs = 0;
  for (const PinnedHybridSearch& pin : kPinnedHybridSearches) {
    SCOPED_TRACE(std::string(pin.instance) + " at k=" + std::to_string(pin.k));
    SolveResult result = PinnedSolver("hybrid")->Solve(
        PinnedInstance(pin.instance), pin.k);
    EXPECT_EQ(result.outcome, pin.outcome);
    EXPECT_LE(result.stats.separators_tried, pin.max_separators_tried);
    handoffs += result.stats.detk_subproblems;
  }
  EXPECT_GT(handoffs, 0) << "no subproblem reached det-k";
}

}  // namespace
}  // namespace htd
