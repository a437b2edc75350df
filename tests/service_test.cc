// DecompositionService end-to-end: real solvers behind the full
// fingerprint ➞ cache ➞ scheduler flow.
#include "service/service.h"

#include <gtest/gtest.h>

#include <vector>

#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/rng.h"

namespace htd::service {
namespace {

TEST(ServiceTest, SolvesWithRealSolver) {
  ServiceOptions options;
  options.solver_name = "logk";
  DecompositionService service(options);

  Hypergraph cycle = MakeCycle(10);
  JobResult no = service.Solve(cycle, 1);
  EXPECT_EQ(no.result.outcome, Outcome::kNo);

  JobResult yes = service.Solve(cycle, 2);
  ASSERT_EQ(yes.result.outcome, Outcome::kYes);
  ASSERT_TRUE(yes.result.decomposition.has_value());
  EXPECT_TRUE(ValidateHdWithWidth(cycle, *yes.result.decomposition, 2).ok);
}

TEST(ServiceTest, SecondIdenticalRequestIsACacheHit) {
  DecompositionService service;
  Hypergraph graph = MakeGrid(3, 3);
  JobResult first = service.Solve(graph, 3);
  EXPECT_FALSE(first.cache_hit);
  JobResult second = service.Solve(graph, 3);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.outcome, first.result.outcome);
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

TEST(ServiceTest, RenamedInstanceHitsTheSameCacheEntry) {
  DecompositionService service;

  // The same 6-cycle built twice with disjoint vertex names and reversed
  // edge order: one solve, one cache hit.
  Hypergraph original;
  std::vector<int> first_ids;
  for (int i = 0; i < 6; ++i) first_ids.push_back(original.GetOrAddVertex("a" + std::to_string(i)));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(original.AddEdge({first_ids[i], first_ids[(i + 1) % 6]}).ok());
  }
  Hypergraph renamed;
  std::vector<int> second_ids;
  for (int i = 0; i < 6; ++i) second_ids.push_back(renamed.GetOrAddVertex("z" + std::to_string(5 - i)));
  for (int i = 5; i >= 0; --i) {
    ASSERT_TRUE(renamed.AddEdge({second_ids[(i + 1) % 6], second_ids[i]}).ok());
  }

  JobResult first = service.Solve(original, 2);
  JobResult second = service.Solve(renamed, 2);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.outcome, Outcome::kYes);
}

TEST(ServiceTest, BatchSubmissionCompletesEveryJob) {
  ServiceOptions options;
  DecompositionService service(options);

  std::vector<Hypergraph> graphs;
  for (int n = 4; n <= 9; ++n) graphs.push_back(MakeCycle(n));
  std::vector<JobSpec> specs;
  for (const Hypergraph& graph : graphs) {
    JobSpec spec;
    spec.graph = &graph;
    spec.k = 2;
    specs.push_back(spec);
  }
  auto futures = service.SubmitBatch(specs);
  ASSERT_EQ(futures.size(), graphs.size());
  for (auto& future : futures) {
    EXPECT_EQ(future.get().result.outcome, Outcome::kYes);
  }
  EXPECT_EQ(service.scheduler_stats().completed, graphs.size());
}

TEST(ServiceTest, CacheDisabledStillSolves) {
  ServiceOptions options;
  options.enable_result_cache = false;
  DecompositionService service(options);
  Hypergraph graph = MakeCycle(6);
  EXPECT_EQ(service.Solve(graph, 2).result.outcome, Outcome::kYes);
  EXPECT_FALSE(service.Solve(graph, 2).cache_hit);
  EXPECT_EQ(service.cache_stats().capacity, 0u);
}

TEST(ServiceTest, DefaultTimeoutProducesCancelledOutcome) {
  ServiceOptions options;
  options.solver_name = "detk";  // sequential: a hard CSP at high k stalls it
  // A deadline this far below any real solve's first cancellation check makes
  // the outcome deterministic: the token is already expired when the flight
  // starts, however fast the machine.
  options.default_timeout_seconds = 1e-6;
  DecompositionService service(options);
  util::Rng rng(7);
  Hypergraph hard = MakeRandomCsp(rng, 40, 28, 3, 5);
  JobResult job = service.Solve(hard, 4);
  EXPECT_EQ(job.result.outcome, Outcome::kCancelled);
}

TEST(ServiceTest, CreateRejectsUnknownSolver) {
  ServiceOptions options;
  options.solver_name = "no-such-solver";
  auto service = DecompositionService::Create(options);
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ServiceTest, EveryRegisteredSolverWorksEndToEnd) {
  for (const std::string& name : KnownSolverNames()) {
    ServiceOptions options;
    options.solver_name = name;
    auto service = DecompositionService::Create(options);
    ASSERT_TRUE(service.ok()) << name;
    Hypergraph graph = MakeCycle(6);
    JobResult job = (*service)->Solve(graph, 2);
    EXPECT_EQ(job.result.outcome, Outcome::kYes) << name;
  }
}

}  // namespace
}  // namespace htd::service
