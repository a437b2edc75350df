// Negative subproblem cache (core/negative_cache.*): dominance semantics,
// and the cached solver must agree with the cache-free solver everywhere.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/log_k_decomp.h"
#include "core/negative_cache.h"
#include "util/cancel.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/rng.h"

namespace htd {
namespace {

ExtendedSubhypergraph MakeComp(int num_edges, std::initializer_list<int> edges,
                               std::initializer_list<int> specials) {
  ExtendedSubhypergraph comp;
  comp.edges = util::DynamicBitset::FromIndices(num_edges, edges);
  comp.edge_count = comp.edges.Count();
  comp.specials.assign(specials);
  return comp;
}

TEST(NegativeCacheTest, ExactKeyAndAllowedSupersetHit) {
  NegativeCache cache;
  ExtendedSubhypergraph comp = MakeComp(8, {1, 2, 5}, {0});
  util::DynamicBitset conn = util::DynamicBitset::FromIndices(10, {3});
  util::DynamicBitset allowed = util::DynamicBitset::FromIndices(8, {0, 1, 2, 5});

  cache.Insert(comp, conn, allowed);
  EXPECT_TRUE(cache.ContainsDominating(comp, conn, allowed));

  // Smaller allowed set: dominated, still a hit.
  util::DynamicBitset narrower = util::DynamicBitset::FromIndices(8, {1, 2});
  EXPECT_TRUE(cache.ContainsDominating(comp, conn, narrower));

  // Larger allowed set: NOT dominated — more labels might succeed.
  util::DynamicBitset wider = util::DynamicBitset::FromIndices(8, {0, 1, 2, 5, 7});
  EXPECT_FALSE(cache.ContainsDominating(comp, conn, wider));
}

TEST(NegativeCacheTest, DifferentConnOrSpecialsMiss) {
  NegativeCache cache;
  ExtendedSubhypergraph comp = MakeComp(8, {1, 2}, {0});
  util::DynamicBitset conn = util::DynamicBitset::FromIndices(10, {3});
  util::DynamicBitset allowed = util::DynamicBitset::FromIndices(8, {1, 2});
  cache.Insert(comp, conn, allowed);

  util::DynamicBitset other_conn = util::DynamicBitset::FromIndices(10, {4});
  EXPECT_FALSE(cache.ContainsDominating(comp, other_conn, allowed));

  ExtendedSubhypergraph other_specials = MakeComp(8, {1, 2}, {0, 1});
  EXPECT_FALSE(cache.ContainsDominating(other_specials, conn, allowed));
}

TEST(NegativeCacheTest, MaintainsAntichain) {
  NegativeCache cache;
  ExtendedSubhypergraph comp = MakeComp(6, {0}, {});
  util::DynamicBitset conn(4);

  util::DynamicBitset small = util::DynamicBitset::FromIndices(6, {0, 1});
  util::DynamicBitset large = util::DynamicBitset::FromIndices(6, {0, 1, 2});
  cache.Insert(comp, conn, small);
  cache.Insert(comp, conn, large);  // replaces the dominated entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.ContainsDominating(comp, conn, large));

  cache.Insert(comp, conn, small);  // already dominated: no growth
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------

Hypergraph RandomCacheInstance(uint64_t seed) {
  util::Rng rng(seed);
  switch (seed % 4) {
    case 0:
      return MakeRandomCsp(rng, 13, 9, 2, 4);
    case 1:
      // K5 at k = 2 is the interesting hard negative: a balanced separator
      // exists, so the search recurses deeply and revisits subproblems.
      // (Larger cliques at small k die instantly — no balanced separator —
      // and at k near hw the cache-free search space explodes; see the
      // ablation bench for the budgeted version of those.)
      return MakeClique(5);
    case 2:
      return MakeGrid(3, 4);
    default:
      return MakeRandomCq(rng, 10, 4, 0.4);
  }
}

class CachedSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(CachedSolverTest, CachedAndUncachedAgree) {
  const uint64_t seed = GetParam();
  Hypergraph graph = RandomCacheInstance(seed);

  for (int k = 1; k <= 3; ++k) {
    // Deadline-guarded: a pathological search must not hang the suite; a
    // cancelled probe is skipped rather than compared.
    util::CancelToken deadline;
    deadline.SetTimeout(std::chrono::duration<double>(10.0));

    SolveOptions plain_options;
    plain_options.cancel = &deadline;
    LogKDecomp plain(plain_options);

    SolveOptions cached_options;
    cached_options.enable_cache = true;
    cached_options.validate_result = true;
    cached_options.cancel = &deadline;
    LogKDecomp cached(cached_options);

    SolveResult plain_result = plain.Solve(graph, k);
    SolveResult cached_result = cached.Solve(graph, k);
    if (plain_result.outcome == Outcome::kCancelled ||
        cached_result.outcome == Outcome::kCancelled) {
      continue;
    }
    EXPECT_EQ(plain_result.outcome, cached_result.outcome)
        << "seed=" << seed << " k=" << k;
    if (cached_result.outcome == Outcome::kYes) {
      Validation validation =
          ValidateHdWithWidth(graph, *cached_result.decomposition, k);
      EXPECT_TRUE(validation.ok) << validation.error << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedSolverTest, ::testing::Range(0, 16));

TEST(CachedSolverTest, CacheHitsOnHardNegativeInstance) {
  // K5 at k = 2 exhausts a large search space with recurring subproblems
  // (~3·10^5 separators cache-free).
  Hypergraph clique = MakeClique(5);
  SolveOptions options;
  options.enable_cache = true;
  LogKDecomp solver(options);
  SolveResult result = solver.Solve(clique, 2);
  EXPECT_EQ(result.outcome, Outcome::kNo);
  EXPECT_GT(result.stats.cache_hits, 0) << "expected cache reuse on K5";
}

TEST(CachedSolverTest, CacheCutsSearchWorkOnNegatives) {
  Hypergraph clique = MakeClique(5);
  LogKDecomp plain;
  SolveOptions options;
  options.enable_cache = true;
  LogKDecomp cached(options);
  SolveResult plain_result = plain.Solve(clique, 2);
  SolveResult cached_result = cached.Solve(clique, 2);
  ASSERT_EQ(plain_result.outcome, Outcome::kNo);
  ASSERT_EQ(cached_result.outcome, Outcome::kNo);
  EXPECT_LT(cached_result.stats.separators_tried, plain_result.stats.separators_tried);
}

TEST(NegativeCacheTest, StripingPreservesSemantics) {
  NegativeCache cache;
  ExtendedSubhypergraph comp = MakeComp(8, {1, 2, 5}, {0});
  util::DynamicBitset conn = util::DynamicBitset::FromIndices(10, {3});
  util::DynamicBitset allowed = util::DynamicBitset::FromIndices(8, {0, 1, 2});
  cache.Insert(comp, conn, allowed);
  EXPECT_TRUE(cache.ContainsDominating(comp, conn, allowed));

  // Spread keys over the stripes; size() must sum across them.
  for (int i = 0; i < 20; ++i) {
    ExtendedSubhypergraph other = MakeComp(64, {i, (i + 7) % 64}, {});
    cache.Insert(other, conn, allowed);
  }
  EXPECT_EQ(cache.size(), 21u);
}

TEST(NegativeCacheTest, ConcurrentInsertAndLookupAreSafe) {
  // Mutex smoke test: hammer the cache from several threads with
  // overlapping keys; the final state must contain every inserted key.
  NegativeCache cache;
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        ExtendedSubhypergraph comp;
        comp.edges = util::DynamicBitset(64);
        comp.edges.Set((t * kKeysPerThread + i) % 64);
        comp.edges.Set(i % 17);
        comp.edge_count = comp.edges.Count();
        util::DynamicBitset conn(32);
        conn.Set(i % 32);
        util::DynamicBitset allowed(64);
        allowed.Set(i % 64);
        cache.Insert(comp, conn, allowed);
        // Read-back mixed in with other threads' writes.
        EXPECT_TRUE(cache.ContainsDominating(comp, conn, allowed));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(cache.size(), 0u);
}

TEST(CachedSolverTest, ParallelCachedSolveAgrees) {
  Hypergraph graph = MakeGrid(3, 4);
  SolveOptions options;
  options.enable_cache = true;
  options.num_threads = 2;
  options.validate_result = true;
  LogKDecomp solver(options);
  LogKDecomp reference;
  for (int k = 2; k <= 3; ++k) {
    EXPECT_EQ(solver.Solve(graph, k).outcome, reference.Solve(graph, k).outcome)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace htd
