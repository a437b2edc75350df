// Cross-configuration integration matrix: every way of composing the
// solvers (plain / cached / preprocessed / hybrid / parallel)
// must agree on hw ≤ k, and every constructed HD must validate. This is the
// suite that catches interactions the per-feature tests cannot (e.g. a
// cache entry poisoning a preprocessed component solve).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/det_k_decomp.h"
#include "core/hybrid.h"
#include "core/log_k_decomp.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "prep/prep_solver.h"
#include "util/rng.h"

namespace htd {
namespace {

struct Config {
  std::string name;
  std::unique_ptr<HdSolver> solver;
};

std::vector<Config> AllConfigurations() {
  std::vector<Config> configs;
  configs.push_back({"log-k", std::make_unique<LogKDecomp>()});

  SolveOptions cached;
  cached.enable_cache = true;
  configs.push_back({"log-k cached", std::make_unique<LogKDecomp>(cached)});

  SolveOptions parallel;
  parallel.num_threads = 3;
  parallel.parallel_min_size = 4;
  configs.push_back({"log-k 3 threads", std::make_unique<LogKDecomp>(parallel)});

  configs.push_back({"hybrid",
                     MakeHybridSolver(HybridMetric::kWeightedCount, 25.0)});
  configs.push_back({"det-k", std::make_unique<DetKDecomp>()});
  configs.push_back(
      {"det-k + prep", MakePreprocessingSolver(std::make_unique<DetKDecomp>())});

  SolveOptions cached_for_prep;
  cached_for_prep.enable_cache = true;
  configs.push_back(
      {"log-k cached + prep",
       MakePreprocessingSolver(std::make_unique<LogKDecomp>(cached_for_prep))});
  return configs;
}

Hypergraph MatrixInstance(uint64_t seed) {
  util::Rng rng(seed);
  switch (seed % 5) {
    case 0:
      return MakeRandomCsp(rng, 12, 8, 2, 4);
    case 1:
      return MakeRandomCq(rng, 9, 4, 0.35);
    case 2:
      return AddRedundancy(MakeCycle(7), rng, 3, 2);
    case 3:
      return MakeCycleBundle(2, 5);
    default:
      return AddRandomChords(MakeGrid(2, 4), rng, 2);
  }
}

class SolverMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverMatrixTest, AllConfigurationsAgree) {
  const uint64_t seed = GetParam();
  Hypergraph graph = MatrixInstance(seed);
  std::vector<Config> configs = AllConfigurations();

  for (int k = 1; k <= 3; ++k) {
    Outcome reference = configs[0].solver->Solve(graph, k).outcome;
    for (size_t i = 1; i < configs.size(); ++i) {
      SolveResult result = configs[i].solver->Solve(graph, k);
      EXPECT_EQ(result.outcome, reference)
          << configs[i].name << " vs " << configs[0].name << " seed=" << seed
          << " k=" << k;
      if (result.outcome == Outcome::kYes && result.decomposition.has_value()) {
        Validation validation = ValidateHdWithWidth(graph, *result.decomposition, k);
        EXPECT_TRUE(validation.ok)
            << configs[i].name << ": " << validation.error << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverMatrixTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace htd
