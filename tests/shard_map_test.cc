// service/shard_map.h: parse/serialise, deterministic range lookup, digest
// behaviour, and the fingerprint-range filters it drives through the warm
// state (ResultCache::ForEach, SubproblemStore::Import, snapshot
// encode/decode) — including the resharding story: a snapshot taken under
// one topology loads cleanly under another, dropping out-of-range entries
// with a count.
#include "service/shard_map.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "service/persistence.h"
#include "service/result_cache.h"
#include "service/subproblem_store.h"
#include "util/hash.h"
#include "util/rng.h"

namespace htd::service {
namespace {

ShardMap MustParse(const std::string& spec) {
  auto map = ShardMap::Parse(spec);
  EXPECT_TRUE(map.ok()) << map.status().message();
  return *map;
}

TEST(ShardMapTest, ParseSerialiseRoundTrip) {
  ShardMap map = MustParse(" 10.0.0.1:8080, 10.0.0.2:9090 ,localhost:1");
  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.endpoint(0).host, "10.0.0.1");
  EXPECT_EQ(map.endpoint(0).port, 8080);
  EXPECT_EQ(map.endpoint(2).host, "localhost");
  EXPECT_EQ(map.Serialise(), "10.0.0.1:8080,10.0.0.2:9090,localhost:1");
  ShardMap reparsed = MustParse(map.Serialise());
  EXPECT_EQ(reparsed.Serialise(), map.Serialise());
  EXPECT_EQ(reparsed.Digest(), map.Digest());
}

TEST(ShardMapTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ShardMap::Parse("").ok());
  EXPECT_FALSE(ShardMap::Parse("hostonly").ok());
  EXPECT_FALSE(ShardMap::Parse("host:0").ok());
  EXPECT_FALSE(ShardMap::Parse("host:65536").ok());
  EXPECT_FALSE(ShardMap::Parse("host:12x").ok());
  EXPECT_FALSE(ShardMap::Parse("a:1,,b:2").ok());
  EXPECT_FALSE(ShardMap::Parse(":8080").ok());
  EXPECT_TRUE(ShardMap::Parse("a:1").ok());
}

TEST(ShardMapTest, EndpointParseRejectsMalformedHostPort) {
  // The one endpoint reader behind shard maps, hdserver --self, the
  // migrate route's self= parameter and hdreshard --router.
  for (const char* bad :
       {"", "hostonly", ":80", "h:", "h:0", "h:65536", "h:12x", "h:-1"}) {
    EXPECT_FALSE(ShardEndpoint::Parse(bad).ok()) << bad;
    EXPECT_FALSE(ShardMap::Parse(bad).ok()) << bad;
  }
  auto endpoint = ShardEndpoint::Parse("10.0.0.1:65535");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().message();
  EXPECT_EQ(endpoint->host, "10.0.0.1");
  EXPECT_EQ(endpoint->port, 65535);
  auto v6 = ShardEndpoint::Parse("::1:8080");  // the LAST colon splits
  ASSERT_TRUE(v6.ok());
  EXPECT_EQ(v6->host, "::1");
  EXPECT_EQ(v6->port, 8080);
}

TEST(ShardMapTest, DigestSeparatesTopologies) {
  ShardMap two = MustParse("a:1,b:2");
  // Different endpoint, different order, different count: all different
  // routing decisions, so all must have different digests.
  EXPECT_NE(two.Digest(), MustParse("a:1,b:3").Digest());
  EXPECT_NE(two.Digest(), MustParse("b:2,a:1").Digest());
  EXPECT_NE(two.Digest(), MustParse("a:1").Digest());
  EXPECT_NE(two.Digest(), MustParse("a:1,b:2,c:3").Digest());
  EXPECT_EQ(two.Digest(), MustParse("a:1, b:2").Digest())
      << "whitespace is not topology";
  EXPECT_EQ(two.DigestHex().size(), 16u);
}

TEST(ShardMapTest, RangesPartitionTheSpace) {
  for (int n : {1, 2, 3, 7, 16}) {
    std::string spec;
    for (int i = 0; i < n; ++i) {
      spec += (i ? "," : "") + std::string("h") + std::to_string(i) + ":80";
    }
    ShardMap map = MustParse(spec);
    // Contiguous, gap-free, full coverage.
    EXPECT_EQ(map.RangeFor(0).first_hi, 0u) << n;
    EXPECT_EQ(map.RangeFor(n - 1).last_hi, ~0ULL) << n;
    for (int i = 0; i + 1 < n; ++i) {
      EXPECT_EQ(map.RangeFor(i).last_hi + 1, map.RangeFor(i + 1).first_hi)
          << "gap between shards " << i << " and " << i + 1 << " of " << n;
    }
  }
}

TEST(ShardMapTest, LookupIsDeterministicAndAgreesWithRanges) {
  ShardMap map = MustParse("a:1,b:2,c:3");
  ShardMap same = MustParse("a:1,b:2,c:3");
  util::Rng rng(7);
  std::set<int> used;
  for (int trial = 0; trial < 2000; ++trial) {
    Fingerprint fp;
    fp.hi = rng.Next64();
    fp.lo = rng.Next64();
    int index = map.IndexFor(fp);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, map.num_shards());
    EXPECT_EQ(index, same.IndexFor(fp)) << "equal maps must route equally";
    EXPECT_TRUE(map.RangeFor(index).Contains(fp));
    // Exactly one shard's range contains the fingerprint.
    for (int other = 0; other < map.num_shards(); ++other) {
      EXPECT_EQ(map.RangeFor(other).Contains(fp), other == index);
    }
    used.insert(index);
  }
  EXPECT_EQ(used.size(), 3u) << "2000 uniform keys must touch every shard";
  // Boundary fingerprints.
  Fingerprint zero{0, 0}, top{~0ULL, ~0ULL};
  EXPECT_EQ(map.IndexFor(zero), 0);
  EXPECT_EQ(map.IndexFor(top), 2);
}

// ---------------------------------------------------------------------------
// Replica groups ("host:port*R").

TEST(ShardMapTest, ReplicaGroupsParseAndSerialise) {
  ShardMap map = MustParse("a:1,b:2*2,c:3,d:4");
  EXPECT_EQ(map.num_shards(), 3) << "a replicated range counts once";
  EXPECT_EQ(map.num_endpoints(), 4);
  EXPECT_EQ(map.num_replicas(0), 1);
  EXPECT_EQ(map.num_replicas(1), 2);
  EXPECT_EQ(map.num_replicas(2), 1);
  EXPECT_EQ(map.endpoint(1).host, "b") << "endpoint() is the primary replica";
  EXPECT_EQ(map.replica(1, 1).host, "c");
  EXPECT_EQ(map.endpoint(2).host, "d");
  EXPECT_EQ(map.Serialise(), "a:1,b:2*2,c:3,d:4");
  ShardMap reparsed = MustParse(map.Serialise());
  EXPECT_EQ(reparsed.Digest(), map.Digest());
}

TEST(ShardMapTest, ReplicationIsTopology) {
  // Folding replication into the digest: the same processes with a
  // different replica grouping route imports/writes differently, so the
  // digests must disagree (and *1 is the canonical no-replication form).
  EXPECT_NE(MustParse("a:1,b:2*2,c:3").Digest(),
            MustParse("a:1,b:2,c:3").Digest());
  EXPECT_EQ(MustParse("a:1*1,b:2").Digest(), MustParse("a:1,b:2").Digest());
  EXPECT_EQ(MustParse("a:1*1,b:2").Serialise(), "a:1,b:2");
}

TEST(ShardMapTest, DigestCoversTheFingerprintVersion) {
  // A digest of the topology alone (FNV-1a of "n;map", then Mix64) lets a
  // peer fingerprinting under another snapshot version pass the backends'
  // digest check, so Digest() must not equal it for any map.
  for (const char* spec : {"a:1", "a:1,b:2", "a:1,b:2*2,c:3"}) {
    ShardMap map = MustParse(spec);
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c :
         std::to_string(map.num_shards()) + ";" + map.Serialise()) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    EXPECT_NE(map.Digest(), util::Mix64(h)) << spec;
  }
}

TEST(ShardMapTest, ReplicaRangesStayAligned) {
  // Replication must not move range boundaries: N ranges slice the space
  // identically whether or not any of them is replicated.
  ShardMap plain = MustParse("a:1,b:2,c:3");
  ShardMap replicated = MustParse("a:1,b:2*2,x:9,c:3");
  ASSERT_EQ(replicated.num_shards(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plain.RangeFor(i).first_hi, replicated.RangeFor(i).first_hi);
    EXPECT_EQ(plain.RangeFor(i).last_hi, replicated.RangeFor(i).last_hi);
  }
}

TEST(ShardMapTest, ReplicaGroupsRejectGarbage) {
  EXPECT_FALSE(ShardMap::Parse("a:1*2").ok()) << "group one endpoint short";
  EXPECT_FALSE(ShardMap::Parse("a:1*2,b:2*2,c:3").ok())
      << "group opened inside a group";
  EXPECT_FALSE(ShardMap::Parse("a:1*0,b:2").ok());
  EXPECT_FALSE(ShardMap::Parse("a:1*9,b:1,b:2,b:3,b:4,b:5,b:6,b:7,b:8").ok())
      << "replica count above the cap";
  EXPECT_FALSE(ShardMap::Parse("a:1*x,b:2").ok());
  EXPECT_FALSE(ShardMap::Parse("a:1,a:1").ok())
      << "one process cannot serve two slots";
}

TEST(ShardMapTest, SiblingsExcludeSelfOnly) {
  ShardMap map = MustParse("a:1*2,b:1,c:1");
  auto hosts = [](const std::vector<ShardEndpoint>& endpoints) {
    std::vector<std::string> out;
    for (const auto& endpoint : endpoints) out.push_back(endpoint.host);
    return out;
  };
  EXPECT_EQ(hosts(map.Siblings(0, ShardEndpoint{"a", 1})),
            std::vector<std::string>{"b"});
  EXPECT_EQ(hosts(map.Siblings(0, ShardEndpoint{"b", 1})),
            std::vector<std::string>{"a"});
  EXPECT_TRUE(map.Siblings(1, ShardEndpoint{"c", 1}).empty())
      << "an unreplicated range has no one to reconcile with";
  // A caller not in the group (a router, a drained replica) sees everyone.
  EXPECT_EQ(hosts(map.Siblings(0, ShardEndpoint{"z", 9})),
            (std::vector<std::string>{"a", "b"}));
  // Port differences matter: a:2 is not the a:1 replica.
  EXPECT_EQ(hosts(map.Siblings(0, ShardEndpoint{"a", 2})),
            (std::vector<std::string>{"a", "b"}));
}

TEST(ShardMapTest, RangeOfEndpointFindsAnyReplica) {
  ShardMap map = MustParse("a:1,b:2*2,c:3");
  EXPECT_EQ(map.RangeOfEndpoint({"a", 1}), 0);
  EXPECT_EQ(map.RangeOfEndpoint({"b", 2}), 1);
  EXPECT_EQ(map.RangeOfEndpoint({"c", 3}), 1) << "second replica, same range";
  EXPECT_EQ(map.RangeOfEndpoint({"d", 4}), -1);
}

// ---------------------------------------------------------------------------
// Range filters through the warm state.

CacheKey KeyAt(uint64_t hi, int k = 2) {
  CacheKey key;
  key.fingerprint = Fingerprint{hi, 0x1234};
  key.k = k;
  key.config_digest = 42;
  return key;
}

SolveResult YesResult() {
  SolveResult result;
  result.outcome = Outcome::kYes;
  return result;
}

TEST(ShardMapTest, CacheForEachHonoursRange) {
  ResultCache cache(/*capacity=*/16, /*num_shards=*/4);
  cache.Insert(KeyAt(10), YesResult());
  cache.Insert(KeyAt(1ULL << 63), YesResult());
  cache.Insert(KeyAt(~0ULL), YesResult());

  FingerprintRange lower{0, (1ULL << 63) - 1};
  std::vector<uint64_t> seen;
  cache.ForEach([&](const CacheKey& key, const SolveResult&) {
    seen.push_back(key.fingerprint.hi);
  }, &lower);
  EXPECT_EQ(seen, std::vector<uint64_t>{10});

  seen.clear();
  cache.ForEach([&](const CacheKey& key, const SolveResult&) {
    seen.push_back(key.fingerprint.hi);
  });
  EXPECT_EQ(seen.size(), 3u) << "no range = every entry";
}

SubproblemStore::ExportedEntry StoreEntryAt(uint64_t hi) {
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = Fingerprint{hi, 7};
  entry.k = 2;
  entry.negatives.push_back({{0, 1}, {1, 2}});
  return entry;
}

TEST(ShardMapTest, StoreImportHonoursRange) {
  SubproblemStore store;
  FingerprintRange upper{1ULL << 63, ~0ULL};
  EXPECT_FALSE(store.Import(StoreEntryAt(5), &upper));
  EXPECT_TRUE(store.Import(StoreEntryAt(~0ULL - 3), &upper));
  EXPECT_TRUE(store.Import(StoreEntryAt(5), nullptr)) << "no range = import all";
  EXPECT_EQ(store.num_entries(), 2u);

  FingerprintRange lower{0, (1ULL << 63) - 1};
  auto exported = store.Export(&lower);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].fingerprint.hi, 5u);
}

TEST(ShardMapTest, ReshardedSnapshotLoadsWithDrops) {
  // Warm state written by an UNSHARDED server...
  ResultCache cache(16);
  SubproblemStore store;
  // Both inside shard 0-of-4's quarter [0, 2^62); ~0 is far outside it.
  const uint64_t low_hi = 10, high_hi = (1ULL << 62) - 5;
  cache.Insert(KeyAt(low_hi), YesResult());
  cache.Insert(KeyAt(high_hi), YesResult());
  cache.Insert(KeyAt(~0ULL), YesResult());
  store.Import(StoreEntryAt(low_hi));
  store.Import(StoreEntryAt(~0ULL));
  std::string snapshot = EncodeSnapshot(&cache, &store, /*config_digest=*/1);

  // ...restores into shard 0 of 4: only the first quarter of the space
  // survives, the rest is dropped and counted — never an error.
  ShardMap map = MustParse("a:1,b:2,c:3,d:4");
  FingerprintRange range = map.RangeFor(0);
  ResultCache restored_cache(16);
  SubproblemStore restored_store;
  auto stats = DecodeSnapshot(snapshot, &restored_cache, &restored_store, &range);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->cache_entries, 2u);  // low_hi and high_hi < 2^62+
  EXPECT_EQ(stats->store_entries, 1u);
  EXPECT_EQ(stats->dropped_out_of_range, 2u);
  EXPECT_EQ(restored_cache.num_entries(), 2u);
  EXPECT_EQ(restored_store.num_entries(), 1u);
  EXPECT_TRUE(restored_cache.Lookup(KeyAt(low_hi)).has_value());
  EXPECT_FALSE(restored_cache.Lookup(KeyAt(~0ULL)).has_value());

  // A sharded SAVE writes only the shard's own range.
  auto partial =
      DecodeSnapshot(EncodeSnapshot(&cache, &store, 1, &range), &restored_cache,
                     &restored_store, nullptr);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->cache_entries, 2u);
  EXPECT_EQ(partial->store_entries, 1u);
  EXPECT_EQ(partial->dropped_out_of_range, 0u)
      << "a per-shard snapshot contains nothing to drop";
}

}  // namespace
}  // namespace htd::service
