// service/persistence.h: snapshot round-trips (including a randomized fuzz
// loop over caches and stores), rejection of truncated / corrupt /
// version-mismatched snapshots with the target state untouched, and a
// behavioural warm-restart check through a real solver-populated store.
#include "service/persistence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/log_k_decomp.h"
#include "hypergraph/generators.h"
#include "service/result_cache.h"
#include "service/subproblem_store.h"
#include "util/rng.h"

namespace htd::service {
namespace {

Fingerprint RandomFingerprint(util::Rng& rng) {
  return Fingerprint{rng.Next64(), rng.Next64()};
}

/// Random decomposition over a `universe`-vertex instance: a random tree
/// with random λ / χ labels (structure only; validity doesn't matter to the
/// codec).
Decomposition RandomDecomposition(util::Rng& rng, int universe) {
  Decomposition decomp;
  int num_nodes = rng.UniformInt(1, 8);
  for (int i = 0; i < num_nodes; ++i) {
    std::vector<int> lambda;
    int width = rng.UniformInt(1, 3);
    for (int j = 0; j < width; ++j) lambda.push_back(rng.UniformInt(0, 30));
    util::DynamicBitset chi(universe);
    int bag = rng.UniformInt(0, std::min(5, universe - 1));
    for (int j = 0; j < bag; ++j) chi.Set(rng.UniformInt(0, universe - 1));
    decomp.AddNode(std::move(lambda), std::move(chi),
                   i == 0 ? -1 : rng.UniformInt(0, i - 1));
  }
  return decomp;
}

SolveResult RandomResult(util::Rng& rng) {
  SolveResult result;
  result.outcome = rng.Chance(0.5) ? Outcome::kYes : Outcome::kNo;
  result.stats.separators_tried = rng.UniformInt(0, 100000);
  result.stats.recursive_calls = rng.UniformInt(0, 5000);
  result.stats.max_recursion_depth = rng.UniformInt(0, 40);
  result.stats.seconds = rng.UniformDouble();
  if (result.outcome == Outcome::kYes && rng.Chance(0.8)) {
    result.decomposition = RandomDecomposition(rng, rng.UniformInt(2, 40));
  }
  return result;
}

CacheKey RandomKey(util::Rng& rng) {
  return CacheKey{RandomFingerprint(rng), rng.UniformInt(1, 6), rng.Next64() % 4};
}

bool SameDecomposition(const std::optional<Decomposition>& a,
                       const std::optional<Decomposition>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->num_nodes() != b->num_nodes() || a->root() != b->root()) return false;
  for (int i = 0; i < a->num_nodes(); ++i) {
    const DecompNode& na = a->node(i);
    const DecompNode& nb = b->node(i);
    if (na.lambda != nb.lambda || na.parent != nb.parent ||
        na.children != nb.children || na.chi != nb.chi) {
      return false;
    }
  }
  return true;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(PersistenceTest, EmptySnapshotRoundTrips) {
  ResultCache cache(16, 2);
  SubproblemStore store;
  std::string bytes = EncodeSnapshot(&cache, &store, 7);
  auto restored = DecodeSnapshot(bytes, &cache, &store);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->cache_entries, 0u);
  EXPECT_EQ(restored->store_entries, 0u);
}

TEST(PersistenceTest, NullTargetsDecodeAndDiscard) {
  ResultCache cache(16, 2);
  util::Rng rng(1);
  cache.Insert(RandomKey(rng), RandomResult(rng));
  std::string bytes = EncodeSnapshot(&cache, nullptr, 0);
  // A consumer without a cache (or store) skips the section cleanly.
  auto restored = DecodeSnapshot(bytes, nullptr, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->cache_entries, 1u);
}

TEST(PersistenceTest, FuzzCacheRoundTripPreservesLookups) {
  util::Rng rng(20260730);
  for (int round = 0; round < 20; ++round) {
    util::Rng round_rng = rng.Fork();
    int capacity = round_rng.UniformInt(4, 64);
    int shards = round_rng.UniformInt(1, 8);
    ResultCache original(capacity, shards);
    std::vector<CacheKey> keys;
    int inserts = round_rng.UniformInt(1, 48);
    for (int i = 0; i < inserts; ++i) {
      CacheKey key = RandomKey(round_rng);
      original.Insert(key, RandomResult(round_rng));
      keys.push_back(key);
    }

    std::string bytes = EncodeSnapshot(&original, nullptr, round);
    ResultCache restored(capacity, shards);
    auto stats = DecodeSnapshot(bytes, &restored, nullptr);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    EXPECT_EQ(stats->cache_entries, original.num_entries());
    EXPECT_EQ(restored.num_entries(), original.num_entries());

    // Identical lookup behaviour on every key ever inserted: same presence,
    // same outcome, same decomposition.
    for (const CacheKey& key : keys) {
      auto a = original.Lookup(key);
      auto b = restored.Lookup(key);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->outcome, b->outcome);
        EXPECT_EQ(a->stats.separators_tried, b->stats.separators_tried);
        EXPECT_TRUE(SameDecomposition(a->decomposition, b->decomposition));
      }
    }
  }
}

/// Random exported store entry (the portable form the codec carries).
SubproblemStore::ExportedEntry RandomStoreEntry(util::Rng& rng) {
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = RandomFingerprint(rng);
  entry.k = rng.UniformInt(1, 5);
  int negatives = rng.UniformInt(0, 3);
  for (int i = 0; i < negatives; ++i) {
    std::vector<std::vector<int>> traces;
    int count = rng.UniformInt(1, 4);
    for (int j = 0; j < count; ++j) {
      traces.push_back(rng.SampleDistinct(0, 12, rng.UniformInt(1, 4)));
    }
    std::sort(traces.begin(), traces.end());
    traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
    entry.negatives.push_back(std::move(traces));
  }
  int positives = rng.UniformInt(0, 2);
  for (int i = 0; i < positives; ++i) {
    SubproblemStore::ExportedPositive positive;
    int count = rng.UniformInt(1, 3);
    for (int j = 0; j < count; ++j) {
      positive.traces.push_back(rng.SampleDistinct(0, 12, rng.UniformInt(1, 4)));
    }
    std::sort(positive.traces.begin(), positive.traces.end());
    positive.traces.erase(
        std::unique(positive.traces.begin(), positive.traces.end()),
        positive.traces.end());
    PortableFragmentNode node;
    node.lambda = {0};
    int chi_count = rng.UniformInt(1, 4);
    node.chi = rng.SampleDistinct(0, 10, chi_count);
    positive.fragment.nodes.push_back(std::move(node));
    positive.fragment.root = 0;
    entry.positives.push_back(std::move(positive));
  }
  return entry;
}

TEST(PersistenceTest, FuzzStoreRoundTripPreservesEntries) {
  util::Rng rng(424242);
  for (int round = 0; round < 20; ++round) {
    util::Rng round_rng = rng.Fork();
    SubproblemStore original;
    int inserts = round_rng.UniformInt(1, 24);
    for (int i = 0; i < inserts; ++i) {
      original.Import(RandomStoreEntry(round_rng));
    }

    std::string bytes = EncodeSnapshot(nullptr, &original, round);
    SubproblemStore restored;
    auto stats = DecodeSnapshot(bytes, nullptr, &restored);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    EXPECT_EQ(restored.num_entries(), original.num_entries());

    // Exported contents are identical up to ordering: every variant the
    // original recorded dominates lookups identically in the restored store.
    auto a = original.Export();
    auto b = restored.Export();
    ASSERT_EQ(a.size(), b.size());
    auto entry_key = [](const SubproblemStore::ExportedEntry& e) {
      return std::make_tuple(e.fingerprint.hi, e.fingerprint.lo, e.k);
    };
    auto by_key = [&](const SubproblemStore::ExportedEntry& x,
                      const SubproblemStore::ExportedEntry& y) {
      return entry_key(x) < entry_key(y);
    };
    std::sort(a.begin(), a.end(), by_key);
    std::sort(b.begin(), b.end(), by_key);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(entry_key(a[i]), entry_key(b[i]));
      auto negs_a = a[i].negatives;
      auto negs_b = b[i].negatives;
      std::sort(negs_a.begin(), negs_a.end());
      std::sort(negs_b.begin(), negs_b.end());
      EXPECT_EQ(negs_a, negs_b);
      ASSERT_EQ(a[i].positives.size(), b[i].positives.size());
    }
  }
}

TEST(PersistenceTest, WarmStoreReproducesSolverHits) {
  // Populate a store with a real solve, snapshot it, restore into a fresh
  // store, and check a fresh solver run gets warm hits — the end-to-end
  // property the server's warm start relies on.
  Hypergraph graph = MakeCycle(6);  // hw = 2; populates the store (see
                                    // tests/subproblem_store_test.cc)
  SubproblemStore original;
  SolveOptions options;
  options.subproblem_store = &original;
  LogKDecomp producer(options);
  ASSERT_EQ(producer.Solve(graph, 2).outcome, Outcome::kYes);
  ASSERT_GT(original.num_entries(), 0u);

  std::string bytes = EncodeSnapshot(nullptr, &original, 0);
  SubproblemStore restored;
  ASSERT_TRUE(DecodeSnapshot(bytes, nullptr, &restored).ok());

  SolveOptions warm_options;
  warm_options.subproblem_store = &restored;
  warm_options.validate_result = true;
  LogKDecomp consumer(warm_options);
  SolveResult warm = consumer.Solve(graph, 2);
  ASSERT_EQ(warm.outcome, Outcome::kYes);
  EXPECT_GT(warm.stats.store_positive_hits + warm.stats.store_negative_hits, 0)
      << "restored store must serve the same hits the original would";
}

TEST(PersistenceTest, SaveTimeCompactionDropsDominatedVariantsOnly) {
  // A store holding cross-k-dominated variants must write a strictly
  // smaller snapshot, and the reloaded store must answer the SAME decision
  // probes at every k — the dropped variants were pure redundancy.
  SubproblemStore store;
  Fingerprint fn{4100, 7};
  SubproblemStore::ExportedEntry wide_failure;
  wide_failure.fingerprint = fn;
  wide_failure.k = 3;
  wide_failure.negatives = {{{0}, {1}}};
  ASSERT_TRUE(store.Import(wide_failure));
  SubproblemStore::ExportedEntry implied_failure;  // {{0}} at k=2: dominated
  implied_failure.fingerprint = fn;
  implied_failure.k = 2;
  implied_failure.negatives = {{{0}}};
  ASSERT_TRUE(store.Import(implied_failure));

  Fingerprint fp{4200, 7};
  SubproblemStore::ExportedEntry narrow_fragment;
  narrow_fragment.fingerprint = fp;
  narrow_fragment.k = 2;
  SubproblemStore::ExportedPositive positive;
  positive.traces = {{0}};
  PortableFragmentNode node;
  node.lambda = {0};
  node.chi = {0, 1};
  positive.fragment.nodes.push_back(node);
  positive.fragment.root = 0;
  narrow_fragment.positives.push_back(positive);
  ASSERT_TRUE(store.Import(narrow_fragment));
  SubproblemStore::ExportedEntry implied_fragment;  // k=3 ⊇-traces: dominated
  implied_fragment.fingerprint = fp;
  implied_fragment.k = 3;
  positive.traces = {{0}, {1}};
  implied_fragment.positives.push_back(positive);
  ASSERT_TRUE(store.Import(implied_fragment));
  ASSERT_EQ(store.num_entries(), 4u);

  SnapshotStats written;
  std::string bytes = EncodeSnapshot(nullptr, &store, 0, nullptr, &written);
  EXPECT_EQ(written.compacted, 2u) << "one dominated variant per polarity";
  EXPECT_EQ(written.store_entries, 2u);

  SubproblemStore reloaded;
  ASSERT_TRUE(DecodeSnapshot(bytes, nullptr, &reloaded).ok());
  EXPECT_EQ(reloaded.num_entries(), 2u)
      << "the reloaded store must be strictly smaller than the source";

  // Warm hit behaviour is identical: both original probe points still
  // answer, the dominated ones now through the cross-k fallback.
  Hypergraph graph = MakeCycle(4);
  SubproblemStore::Key probe;
  probe.fingerprint = fn;
  probe.k = 3;
  probe.allowed_traces = {{0}, {1}};
  EXPECT_EQ(reloaded.Lookup(probe, graph, nullptr),
            SubproblemStore::Hit::kNegative);
  probe.k = 2;
  probe.allowed_traces = {{0}};
  EXPECT_EQ(reloaded.Lookup(probe, graph, nullptr),
            SubproblemStore::Hit::kNegative);

  probe.fingerprint = fp;
  probe.k = 2;
  probe.allowed_traces = {{0}};
  EXPECT_EQ(reloaded.Lookup(probe, graph, nullptr),
            SubproblemStore::Hit::kPositive);
  probe.k = 3;
  probe.allowed_traces = {{0}, {1}};
  EXPECT_EQ(reloaded.Lookup(probe, graph, nullptr),
            SubproblemStore::Hit::kPositive);
}

TEST(PersistenceTest, CompactedSnapshotKeepsSolverHitsWarm) {
  // End-to-end flavour of the above: snapshot a solver-populated store and
  // make sure compaction never costs a warm hit on replay.
  Hypergraph graph = MakeCycle(6);
  SubproblemStore original;
  SolveOptions options;
  options.subproblem_store = &original;
  LogKDecomp producer(options);
  ASSERT_EQ(producer.Solve(graph, 2).outcome, Outcome::kYes);

  SnapshotStats written;
  std::string bytes = EncodeSnapshot(nullptr, &original, 0, nullptr, &written);
  SubproblemStore restored;
  ASSERT_TRUE(DecodeSnapshot(bytes, nullptr, &restored).ok());
  EXPECT_LE(restored.num_entries(), original.num_entries());

  SolveOptions warm_options;
  warm_options.subproblem_store = &restored;
  LogKDecomp consumer(warm_options);
  SolveResult warm = consumer.Solve(graph, 2);
  ASSERT_EQ(warm.outcome, Outcome::kYes);

  SolveOptions uncompacted_options;
  uncompacted_options.subproblem_store = &original;
  LogKDecomp reference(uncompacted_options);
  SolveResult ref = reference.Solve(graph, 2);
  ASSERT_EQ(ref.outcome, Outcome::kYes);
  EXPECT_GE(warm.stats.store_positive_hits + warm.stats.store_negative_hits,
            ref.stats.store_positive_hits + ref.stats.store_negative_hits)
      << "compaction must not lose hits the uncompacted store serves";
}

TEST(PersistenceTest, RejectsTruncationAtEveryLength) {
  util::Rng rng(7);
  ResultCache cache(16, 2);
  SubproblemStore store;
  for (int i = 0; i < 6; ++i) cache.Insert(RandomKey(rng), RandomResult(rng));
  for (int i = 0; i < 4; ++i) store.Import(RandomStoreEntry(rng));
  std::string bytes = EncodeSnapshot(&cache, &store, 1);

  // Every proper prefix must be rejected and must leave the targets empty.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ResultCache fresh_cache(16, 2);
    SubproblemStore fresh_store;
    auto status = DecodeSnapshot(bytes.substr(0, len), &fresh_cache, &fresh_store);
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(fresh_cache.num_entries(), 0u);
    EXPECT_EQ(fresh_store.num_entries(), 0u);
  }
}

TEST(PersistenceTest, RejectsBitFlipsInPayload) {
  util::Rng rng(8);
  ResultCache cache(16, 2);
  for (int i = 0; i < 6; ++i) cache.Insert(RandomKey(rng), RandomResult(rng));
  std::string bytes = EncodeSnapshot(&cache, nullptr, 1);

  const size_t header = 36;  // magic + version + digest + size + checksum
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = bytes;
    size_t pos = header + rng.Next64() % (bytes.size() - header);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (trial % 8)));
    if (corrupt == bytes) continue;
    ResultCache fresh(16, 2);
    auto status = DecodeSnapshot(corrupt, &fresh, nullptr);
    EXPECT_FALSE(status.ok()) << "bit flip at " << pos << " accepted";
    EXPECT_EQ(fresh.num_entries(), 0u);
  }
}

TEST(PersistenceTest, RejectsVersionMismatchAndBadMagic) {
  ResultCache cache(16, 2);
  std::string bytes = EncodeSnapshot(&cache, nullptr, 1);

  // A newer writer, and v1: its entries were keyed by fingerprints from the
  // earlier refinement, which no longer match any request.
  static_assert(kSnapshotVersion == 2);
  for (uint32_t version : {kSnapshotVersion + 1, 1u}) {
    std::string wrong_version = bytes;
    wrong_version[8] = static_cast<char>(version);
    auto status = DecodeSnapshot(wrong_version, &cache, nullptr);
    ASSERT_FALSE(status.ok()) << "v" << version;
    EXPECT_EQ(status.status().code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(status.status().message().find("version"), std::string::npos);
  }

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(wrong_magic, &cache, nullptr).ok());
}

TEST(PersistenceTest, SaveAndLoadFile) {
  const std::string path = TempPath("htd_persistence_test.snap");
  std::filesystem::remove(path);

  util::Rng rng(9);
  ResultCache cache(16, 2);
  CacheKey key = RandomKey(rng);
  cache.Insert(key, RandomResult(rng));

  auto missing = LoadSnapshot(path, &cache, nullptr);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

  auto saved = SaveSnapshot(path, &cache, nullptr, 5);
  ASSERT_TRUE(saved.ok()) << saved.status().message();
  EXPECT_GT(saved->bytes, 0u);

  ResultCache restored(16, 2);
  auto loaded = LoadSnapshot(path, &restored, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(restored.Lookup(key).has_value());
  std::filesystem::remove(path);
}

TEST(PersistenceTest, RestoreIntoSmallerCacheEvictsGracefully) {
  util::Rng rng(10);
  ResultCache big(64, 4);
  for (int i = 0; i < 40; ++i) big.Insert(RandomKey(rng), RandomResult(rng));
  std::string bytes = EncodeSnapshot(&big, nullptr, 0);
  ResultCache small(8, 2);
  auto restored = DecodeSnapshot(bytes, &small, nullptr);
  ASSERT_TRUE(restored.ok());
  EXPECT_LE(small.num_entries(), small.GetStats().capacity);
}

}  // namespace
}  // namespace htd::service
