// service/anti_entropy.h + the sweep in net/decomposition_server.h:
// digest construction (order/stats/fragment-byte independence, dominance
// normal form), the strict wire format under truncation and bit flips,
// merge convergence properties (idempotent, commutative, order-independent
// across simulated replicas), cross-k dominance lookups, and the live sweep
// end to end over real sockets — including a corrupt sibling that must
// never dent the local store.
#include "service/anti_entropy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decomp/fragment_codec.h"
#include "hypergraph/generators.h"
#include "hypergraph/writer.h"
#include "net/decomposition_server.h"
#include "net/http.h"
#include "net/server.h"
#include "service/persistence.h"
#include "service/result_cache.h"
#include "service/shard_map.h"
#include "service/subproblem_store.h"
#include "util/rng.h"
#include "util/socket.h"

namespace htd {
namespace {

using service::CacheKey;
using service::ComputeDigestSummary;
using service::DigestSummary;
using service::Fingerprint;
using service::FingerprintRange;
using service::ParseDigestSummary;
using service::RenderDigestSummary;
using service::ResultCache;
using service::SplitRange;
using service::SubproblemStore;

constexpr uint64_t kConfig = 0x1234;

const FingerprintRange kFullRange{};  // 0 .. ~0

SolveResult TrivialResult(uint64_t seed) {
  SolveResult result;
  result.outcome = seed % 2 == 0 ? Outcome::kYes : Outcome::kNo;
  result.stats.separators_tried = seed;  // deliberately replica-dependent
  result.stats.seconds = static_cast<double>(seed % 97) / 10.0;
  return result;
}

/// Positive variant whose fragment bytes are a pure function of
/// (fingerprint, k, traces): replicas that record "the same knowledge"
/// then hold byte-identical variants, which keeps the convergence fixpoint
/// byte-comparable (the digest itself never looks at fragment bytes).
SubproblemStore::ExportedPositive DeterministicPositive(
    const Fingerprint& fp, int k, std::vector<std::vector<int>> traces) {
  SubproblemStore::ExportedPositive positive;
  positive.traces = std::move(traces);
  PortableFragmentNode node;
  node.lambda = {0};
  node.chi = {0, 1 + static_cast<int>((fp.lo ^ static_cast<uint64_t>(k)) % 5)};
  positive.fragment.nodes.push_back(std::move(node));
  positive.fragment.root = 0;
  return positive;
}

// ---------------------------------------------------------------------------
// SplitRange

TEST(SplitRangeTest, PartitionsContiguouslyAndCoversTheRange) {
  util::Rng rng(101);
  for (int round = 0; round < 200; ++round) {
    uint64_t a = rng.Next64(), b = rng.Next64();
    FingerprintRange range{std::min(a, b), std::max(a, b)};
    int slices = rng.UniformInt(1, 9);
    auto parts = SplitRange(range, slices);
    ASSERT_GE(parts.size(), 1u);
    ASSERT_LE(parts.size(), static_cast<size_t>(slices));
    EXPECT_EQ(parts.front().first_hi, range.first_hi);
    EXPECT_EQ(parts.back().last_hi, range.last_hi);
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_LE(parts[i].first_hi, parts[i].last_hi);
      if (i > 0) EXPECT_EQ(parts[i].first_hi, parts[i - 1].last_hi + 1);
    }
  }
}

TEST(SplitRangeTest, FullRangeAndDegenerateRanges) {
  auto one = SplitRange(kFullRange, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first_hi, 0u);
  EXPECT_EQ(one[0].last_hi, ~0ULL);

  auto many = SplitRange(kFullRange, 16);
  ASSERT_EQ(many.size(), 16u);
  EXPECT_EQ(many.front().first_hi, 0u);
  EXPECT_EQ(many.back().last_hi, ~0ULL);

  // Fewer hi values than slices: trailing empties are dropped.
  FingerprintRange tiny{100, 102};
  auto parts = SplitRange(tiny, 8);
  ASSERT_EQ(parts.size(), 3u);
  for (size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].first_hi, 100 + i);
    EXPECT_EQ(parts[i].last_hi, 100 + i);
  }
}

// ---------------------------------------------------------------------------
// Digest semantics

TEST(DigestTest, CacheDigestIgnoresInsertionOrderAndSolveStats) {
  std::vector<CacheKey> keys;
  util::Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    keys.push_back(CacheKey{Fingerprint{rng.Next64(), rng.Next64()},
                            rng.UniformInt(1, 5), kConfig});
  }
  ResultCache a(64, 4), b(64, 4);
  for (const CacheKey& key : keys) a.Insert(key, TrivialResult(key.fingerprint.lo));
  std::vector<CacheKey> reversed(keys.rbegin(), keys.rend());
  // Different order AND different values (a replica that solved the same
  // instances itself holds different SolveStats).
  for (const CacheKey& key : reversed) {
    b.Insert(key, TrivialResult(key.fingerprint.hi * 3 + 1));
  }
  EXPECT_EQ(ComputeDigestSummary(&a, nullptr, kConfig, kFullRange, 8).slices,
            ComputeDigestSummary(&b, nullptr, kConfig, kFullRange, 8).slices);
}

TEST(DigestTest, DifferingEntryIsLocalisedToItsSlice) {
  ResultCache a(64, 4), b(64, 4);
  CacheKey shared{Fingerprint{42, 42}, 2, kConfig};
  a.Insert(shared, TrivialResult(1));
  b.Insert(shared, TrivialResult(2));
  // hi = 2^63: lands in the upper half of every power-of-two slicing.
  CacheKey extra{Fingerprint{uint64_t{1} << 63, 9}, 2, kConfig};
  b.Insert(extra, TrivialResult(3));

  DigestSummary da = ComputeDigestSummary(&a, nullptr, kConfig, kFullRange, 8);
  DigestSummary db = ComputeDigestSummary(&b, nullptr, kConfig, kFullRange, 8);
  ASSERT_EQ(da.slices.size(), db.slices.size());
  int differing = 0;
  for (size_t i = 0; i < da.slices.size(); ++i) {
    if (!(da.slices[i] == db.slices[i])) {
      ++differing;
      EXPECT_TRUE(da.slices[i].range.Contains(extra.fingerprint))
          << "difference must be localised to the slice owning the extra key";
    }
  }
  EXPECT_EQ(differing, 1);
}

TEST(DigestTest, StoreDigestIgnoresFragmentBytes) {
  Fingerprint fp{77, 78};
  SubproblemStore a, b;
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = fp;
  entry.k = 2;
  entry.positives.push_back(DeterministicPositive(fp, 2, {{0}, {1}}));
  ASSERT_TRUE(a.Import(entry));
  // Same traces, different decomposition bytes: knowledge-equal.
  entry.positives[0].fragment.nodes[0].chi = {0, 3, 7};
  ASSERT_TRUE(b.Import(entry));
  EXPECT_EQ(ComputeDigestSummary(nullptr, &a, kConfig, kFullRange, 4).slices,
            ComputeDigestSummary(nullptr, &b, kConfig, kFullRange, 4).slices);
}

TEST(DigestTest, StoreDigestIgnoresCrossKDominatedVariants) {
  Fingerprint fp{500, 1};
  // a: only the dominating variants. b: the same plus dominated ones.
  SubproblemStore a, b;
  SubproblemStore::ExportedEntry dominating;
  dominating.fingerprint = fp;
  dominating.k = 3;
  dominating.negatives = {{{0}, {1}}};
  ASSERT_TRUE(a.Import(dominating));
  ASSERT_TRUE(b.Import(dominating));
  SubproblemStore::ExportedEntry dominated;
  dominated.fingerprint = fp;
  dominated.k = 2;  // {{0}} failed at k=2: implied by {{0},{1}} failing at k=3
  dominated.negatives = {{{0}}};
  ASSERT_TRUE(b.Import(dominated));

  Fingerprint fq{501, 1};
  SubproblemStore::ExportedEntry base;
  base.fingerprint = fq;
  base.k = 2;
  base.positives.push_back(DeterministicPositive(fq, 2, {{0}}));
  ASSERT_TRUE(a.Import(base));
  ASSERT_TRUE(b.Import(base));
  SubproblemStore::ExportedEntry wider;
  wider.fingerprint = fq;
  wider.k = 3;  // a k=2 fragment over {{0}} already answers this
  wider.positives.push_back(DeterministicPositive(fq, 3, {{0}, {1}}));
  ASSERT_TRUE(b.Import(wider));

  EXPECT_EQ(ComputeDigestSummary(nullptr, &a, kConfig, kFullRange, 4).slices,
            ComputeDigestSummary(nullptr, &b, kConfig, kFullRange, 4).slices)
      << "a compacted replica must digest equal to an uncompacted one";
}

// ---------------------------------------------------------------------------
// Wire format

DigestSummary SampleSummary() {
  ResultCache cache(32, 2);
  SubproblemStore store;
  util::Rng rng(11);
  for (int i = 0; i < 12; ++i) {
    cache.Insert(CacheKey{Fingerprint{rng.Next64(), rng.Next64()}, 2, kConfig},
                 TrivialResult(i));
  }
  for (int i = 0; i < 6; ++i) {
    SubproblemStore::ExportedEntry entry;
    entry.fingerprint = Fingerprint{rng.Next64(), rng.Next64()};
    entry.k = rng.UniformInt(1, 4);
    entry.negatives = {{{0}}};
    store.Import(entry);
  }
  return ComputeDigestSummary(&cache, &store, kConfig, kFullRange, 8);
}

TEST(DigestWireTest, RenderParseRoundTrips) {
  DigestSummary summary = SampleSummary();
  std::string text = RenderDigestSummary(summary);
  auto parsed = ParseDigestSummary(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->config_digest, summary.config_digest);
  EXPECT_EQ(parsed->slices, summary.slices);
  EXPECT_EQ(RenderDigestSummary(*parsed), text);
}

TEST(DigestWireTest, RejectsTruncationAtEveryLength) {
  std::string text = RenderDigestSummary(SampleSummary());
  for (size_t len = 0; len < text.size(); ++len) {
    auto parsed = ParseDigestSummary(text.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(DigestWireTest, BitFlipsFailOrStayCanonical) {
  // A flipped hex digit can still be a VALID summary (a different digest
  // value is indistinguishable from honest content) — what must never
  // happen is an accepted response that is not in canonical form: every
  // accepted parse re-renders to exactly its input, so nothing structurally
  // odd (bad spacing, overlap, count drift) gets through.
  std::string text = RenderDigestSummary(SampleSummary());
  util::Rng rng(13);
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupt = text;
    size_t pos = rng.Next64() % corrupt.size();
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (trial % 8)));
    if (corrupt == text) continue;
    auto parsed = ParseDigestSummary(corrupt);
    if (parsed.ok()) {
      EXPECT_EQ(RenderDigestSummary(*parsed), corrupt)
          << "accepted mutants must be canonical (flip at " << pos << ")";
    }
  }
}

TEST(DigestWireTest, RejectsStructuralLies) {
  DigestSummary summary = SampleSummary();
  std::string text = RenderDigestSummary(summary);
  EXPECT_FALSE(ParseDigestSummary("").ok());
  EXPECT_FALSE(ParseDigestSummary("HTDDIGEST2" + text.substr(10)).ok());
  EXPECT_FALSE(ParseDigestSummary(text + "junk\n").ok());
  EXPECT_FALSE(ParseDigestSummary(text + "\n").ok());

  // Drop one slice line without fixing the count.
  size_t first_eol = text.find('\n');
  size_t second_eol = text.find('\n', first_eol + 1);
  std::string missing_line =
      text.substr(0, first_eol + 1) + text.substr(second_eol + 1);
  EXPECT_FALSE(ParseDigestSummary(missing_line).ok());

  // Uppercase hex is not canonical.
  std::string upper = text;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  EXPECT_FALSE(ParseDigestSummary(upper).ok());

  // Non-contiguous slices: shift one boundary.
  DigestSummary gap = summary;
  ASSERT_GE(gap.slices.size(), 2u);
  gap.slices[1].range.first_hi += 1;
  EXPECT_FALSE(ParseDigestSummary(RenderDigestSummary(gap)).ok());

  DigestSummary descending = summary;
  std::swap(descending.slices[0], descending.slices[1]);
  EXPECT_FALSE(ParseDigestSummary(RenderDigestSummary(descending)).ok());
}

// ---------------------------------------------------------------------------
// Merge convergence properties

/// One recorded outcome; the unit of replication in the property tests.
struct Op {
  Fingerprint fp;
  int k = 0;
  bool positive = false;
  std::vector<std::vector<int>> traces;
};

std::vector<Op> RandomOps(util::Rng& rng, int count) {
  // Small pools on purpose: heavy key collisions across k and polarity are
  // where dominance pruning and antichain maintenance actually fire. Trace
  // variants are non-empty subsets of three singleton traces (at most 7
  // distinct variants per polarity), so the per-key variant cap (8) never
  // triggers — cap eviction is LRU-order-dependent by design and would
  // break order-independence.
  std::vector<Fingerprint> fps;
  for (uint64_t i = 0; i < 5; ++i) fps.push_back(Fingerprint{i * 1000 + 3, i});
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) {
    Op op;
    op.fp = fps[static_cast<size_t>(rng.UniformInt(0, 4))];
    op.k = rng.UniformInt(1, 4);
    op.positive = rng.Chance(0.4);
    for (int t = 0; t < 3; ++t) {
      if (rng.Chance(0.5)) op.traces.push_back({t});
    }
    if (op.traces.empty()) op.traces.push_back({0});
    ops.push_back(std::move(op));
  }
  return ops;
}

void Apply(SubproblemStore* store, const Op& op) {
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = op.fp;
  entry.k = op.k;
  if (op.positive) {
    entry.positives.push_back(DeterministicPositive(op.fp, op.k, op.traces));
  } else {
    entry.negatives.push_back(op.traces);
  }
  store->Import(entry);
}

/// One anti-entropy pull, as the sweep performs it: the compacted export of
/// `from` merged into `into` through the dominance-checked import path.
void Merge(SubproblemStore* into, SubproblemStore* from) {
  auto exported = from->Export();
  SubproblemStore::CompactExported(&exported);
  for (const auto& entry : exported) into->Import(entry);
}

uint64_t StoreDigest(SubproblemStore* store) {
  DigestSummary summary =
      ComputeDigestSummary(nullptr, store, kConfig, kFullRange, 1);
  return summary.slices.empty() ? 0 : summary.slices[0].digest;
}

TEST(MergePropertyTest, MergeIsIdempotent) {
  util::Rng rng(21);
  for (int round = 0; round < 10; ++round) {
    util::Rng fork = rng.Fork();
    std::vector<Op> ops = RandomOps(fork, 30);
    SubproblemStore source, target;
    for (size_t i = 0; i < ops.size(); ++i) {
      Apply(i % 2 == 0 ? &source : &target, ops[i]);
    }
    Merge(&target, &source);
    const uint64_t once = StoreDigest(&target);
    const size_t entries_once = target.num_entries();
    Merge(&target, &source);
    EXPECT_EQ(StoreDigest(&target), once);
    EXPECT_EQ(target.num_entries(), entries_once)
        << "re-merging an already-merged sibling must change nothing";
  }
}

TEST(MergePropertyTest, MergeIsCommutative) {
  util::Rng rng(22);
  for (int round = 0; round < 10; ++round) {
    util::Rng fork = rng.Fork();
    std::vector<Op> ops_a = RandomOps(fork, 20);
    std::vector<Op> ops_b = RandomOps(fork, 20);

    SubproblemStore a1, b1;  // a then b's content
    for (const Op& op : ops_a) Apply(&a1, op);
    for (const Op& op : ops_b) Apply(&b1, op);
    Merge(&a1, &b1);

    SubproblemStore a2, b2;  // b then a's content
    for (const Op& op : ops_a) Apply(&a2, op);
    for (const Op& op : ops_b) Apply(&b2, op);
    Merge(&b2, &a2);

    EXPECT_EQ(StoreDigest(&a1), StoreDigest(&b2))
        << "A merged with B must hold the same knowledge as B merged with A";
  }
}

TEST(MergePropertyTest, ReplicasConvergeRegardlessOfSweepOrder) {
  util::Rng rng(23);
  for (int round = 0; round < 6; ++round) {
    util::Rng fork = rng.Fork();
    std::vector<Op> ops = RandomOps(fork, 45);

    // Three sweep schedules over the same initial replica contents: ring
    // order, reverse ring, and a star (everyone pulls from replica 0 and
    // replica 0 pulls from everyone). All must reach the same fixpoint.
    std::vector<std::vector<std::pair<int, int>>> schedules = {
        {{0, 1}, {1, 2}, {2, 0}, {0, 1}, {1, 2}, {2, 0}},
        {{2, 1}, {1, 0}, {0, 2}, {2, 1}, {1, 0}, {0, 2}},
        {{0, 1}, {0, 2}, {1, 0}, {2, 0}, {1, 0}, {2, 0}, {0, 1}, {0, 2}},
    };
    std::vector<uint64_t> final_digests;
    for (const auto& schedule : schedules) {
      SubproblemStore replicas[3];
      for (size_t i = 0; i < ops.size(); ++i) {
        Apply(&replicas[i % 3], ops[i]);
      }
      for (auto [into, from] : schedule) {
        Merge(&replicas[into], &replicas[from]);
      }
      const uint64_t d0 = StoreDigest(&replicas[0]);
      EXPECT_EQ(d0, StoreDigest(&replicas[1]));
      EXPECT_EQ(d0, StoreDigest(&replicas[2]));
      final_digests.push_back(d0);

      // Converged replicas are byte-identical in compacted-export space
      // (fragments are deterministic in (fp, k, traces) here).
      auto normalise = [](SubproblemStore& store) {
        auto exported = store.Export();
        SubproblemStore::CompactExported(&exported);
        std::vector<std::string> lines;
        for (const auto& entry : exported) {
          for (auto negatives : entry.negatives) {
            std::string line = std::to_string(entry.fingerprint.hi) + "/" +
                               std::to_string(entry.k) + "/neg";
            std::sort(negatives.begin(), negatives.end());
            for (const auto& trace : negatives) {
              for (int v : trace) line += ":" + std::to_string(v);
              line += ";";
            }
            lines.push_back(std::move(line));
          }
          for (const auto& positive : entry.positives) {
            std::string line = std::to_string(entry.fingerprint.hi) + "/" +
                               std::to_string(entry.k) + "/pos";
            for (const auto& trace : positive.traces) {
              for (int v : trace) line += ":" + std::to_string(v);
              line += ";";
            }
            for (const auto& node : positive.fragment.nodes) {
              for (int v : node.chi) line += "," + std::to_string(v);
            }
            lines.push_back(std::move(line));
          }
        }
        std::sort(lines.begin(), lines.end());
        return lines;
      };
      EXPECT_EQ(normalise(replicas[0]), normalise(replicas[1]));
      EXPECT_EQ(normalise(replicas[0]), normalise(replicas[2]));
    }
    EXPECT_EQ(final_digests[0], final_digests[1]);
    EXPECT_EQ(final_digests[0], final_digests[2])
        << "the fixpoint must not depend on the sweep schedule";
  }
}

TEST(MergePropertyTest, CacheMergeConvergesThroughSnapshotCodec) {
  util::Rng rng(24);
  std::vector<CacheKey> keys;
  for (int i = 0; i < 18; ++i) {
    keys.push_back(CacheKey{Fingerprint{rng.Next64(), rng.Next64()},
                            rng.UniformInt(1, 4), kConfig});
  }
  ResultCache a(64, 4), b(64, 4);
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 2 == 0 ? a : b).Insert(keys[i], TrivialResult(i));
  }
  // Pull b's content into a and vice versa, the way the sweep does.
  auto pull = [](ResultCache* into, ResultCache* from) {
    std::string blob = service::EncodeSnapshot(from, nullptr, kConfig);
    ASSERT_TRUE(service::DecodeSnapshot(blob, into, nullptr).ok());
  };
  pull(&a, &b);
  pull(&b, &a);
  EXPECT_EQ(ComputeDigestSummary(&a, nullptr, kConfig, kFullRange, 8).slices,
            ComputeDigestSummary(&b, nullptr, kConfig, kFullRange, 8).slices);
  for (const CacheKey& key : keys) {
    EXPECT_TRUE(a.Lookup(key).has_value());
    EXPECT_TRUE(b.Lookup(key).has_value());
  }
}

// ---------------------------------------------------------------------------
// Cross-k dominance lookups (the width-dominance half of the merge rules)

TEST(CrossKLookupTest, NegativeRecordedAtHigherKServesLowerK) {
  SubproblemStore store;
  Fingerprint fp{900, 1};
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = fp;
  entry.k = 3;
  entry.negatives = {{{0}, {1}}};
  ASSERT_TRUE(store.Import(entry));

  Hypergraph graph = MakeCycle(4);
  SubproblemStore::Key key;
  key.fingerprint = fp;
  key.k = 2;  // smaller k, subset allowed set: implied failure
  key.allowed_traces = {{0}};
  EXPECT_EQ(store.Lookup(key, graph, nullptr), SubproblemStore::Hit::kNegative);
  EXPECT_EQ(store.GetStats().cross_k_negative_hits, 1u);

  key.k = 4;  // larger k: the recorded failure proves nothing
  EXPECT_EQ(store.Lookup(key, graph, nullptr), SubproblemStore::Hit::kMiss);

  key.k = 2;  // superset allowed set: not dominated either
  key.allowed_traces = {{0}, {1}, {2}};
  EXPECT_EQ(store.Lookup(key, graph, nullptr), SubproblemStore::Hit::kMiss);
}

TEST(CrossKLookupTest, PositiveRecordedAtLowerKServesHigherK) {
  SubproblemStore store;
  Fingerprint fp{901, 1};
  SubproblemStore::ExportedEntry entry;
  entry.fingerprint = fp;
  entry.k = 2;
  entry.positives.push_back(DeterministicPositive(fp, 2, {{0}}));
  ASSERT_TRUE(store.Import(entry));

  Hypergraph graph = MakeCycle(4);
  SubproblemStore::Key key;
  key.fingerprint = fp;
  key.k = 3;  // wider budget, superset allowed set: the fragment still fits
  key.allowed_traces = {{0}, {1}};
  EXPECT_EQ(store.Lookup(key, graph, nullptr), SubproblemStore::Hit::kPositive);
  EXPECT_EQ(store.GetStats().cross_k_positive_hits, 1u);

  key.k = 1;  // narrower budget: a width-2 fragment does not fit
  EXPECT_EQ(store.Lookup(key, graph, nullptr), SubproblemStore::Hit::kMiss);
}

// ---------------------------------------------------------------------------
// The live sweep, end to end over real sockets

struct WireResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

WireResponse Exchange(int port, const std::string& method,
                      const std::string& target, const std::string& body = "") {
  WireResponse out;
  auto sock = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return out;
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n" + body;
  EXPECT_TRUE(util::SendAll(sock->fd(), request));
  std::string blob;
  char buffer[8192];
  while (true) {
    long n = util::RecvSome(sock->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_TRUE(
      net::ParseHttpResponseBlob(blob, &out.status, &out.headers, &out.body))
      << "unparseable response: " << blob;
  return out;
}

int FreePort() {
  auto listener = util::ListenTcp("127.0.0.1", 0, 1);
  EXPECT_TRUE(listener.ok());
  return util::LocalPort(listener->fd());
}

service::ShardMap MustParse(const std::string& spec) {
  auto map = service::ShardMap::Parse(spec);
  EXPECT_TRUE(map.ok()) << map.status().message();
  return *map;
}

std::unique_ptr<net::DecompositionServer> StartReplica(
    int port, const service::ShardMap& map, int index) {
  net::DecompositionServerOptions options;
  options.http.port = port;
  options.http.io_threads = 2;
  options.service.default_timeout_seconds = 30.0;
  options.service.enable_subproblem_store = true;
  options.shard_map = map;
  options.shard_index = index;
  options.anti_entropy_self = "127.0.0.1:" + std::to_string(port);
  options.anti_entropy_slices = 4;
  auto server = net::DecompositionServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().message();
  EXPECT_TRUE((*server)->Start().ok());
  return std::move(*server);
}

TEST(SweepTest, PullsSiblingWarmStateAndConverges) {
  const int pa = FreePort(), pb = FreePort();
  const service::ShardMap map =
      MustParse("127.0.0.1:" + std::to_string(pa) + "*2,127.0.0.1:" +
                std::to_string(pb));
  auto a = StartReplica(pa, map, 0);
  auto b = StartReplica(pb, map, 0);

  // Solve on A only — B stays cold (nobody routed it this instance).
  const std::string instance = WriteHyperBench(MakeCycle(6));
  ASSERT_EQ(Exchange(pa, "POST", "/v1/decompose?k=2", instance).status, 200);

  WireResponse digest = Exchange(pa, "GET", "/v1/admin/digest");
  ASSERT_EQ(digest.status, 200);
  EXPECT_EQ(digest.body.rfind("HTDDIGEST1 ", 0), 0u) << digest.body;

  // One forced sweep on B pulls A's cache entry and store keys.
  WireResponse swept = Exchange(pb, "POST", "/v1/admin/antientropy");
  ASSERT_EQ(swept.status, 200) << swept.body;
  EXPECT_NE(swept.body.find("\"siblings\": 1"), std::string::npos) << swept.body;
  EXPECT_NE(swept.body.find("\"errors\": 0"), std::string::npos) << swept.body;
  EXPECT_NE(swept.body.find("\"cache_entries\": 1"), std::string::npos)
      << swept.body;

  // B now answers the instance from its (replicated) cache.
  WireResponse replay = Exchange(pb, "POST", "/v1/decompose?k=2", instance);
  ASSERT_EQ(replay.status, 200);
  EXPECT_NE(replay.body.find("\"cache_hit\": true"), std::string::npos)
      << "a swept replica must serve its sibling's solves warm: " << replay.body;

  // Converged: the next round compares digests and pulls nothing.
  WireResponse again = Exchange(pb, "POST", "/v1/admin/antientropy");
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_NE(again.body.find("\"slices_pulled\": 0"), std::string::npos)
      << "equal digests must not trigger pulls: " << again.body;

  WireResponse metrics = Exchange(pb, "GET", "/v1/metrics");
  EXPECT_NE(metrics.body.find("htd_antientropy_rounds_total{result=\"ok\"} 2\n"),
            std::string::npos)
      << metrics.body;
  EXPECT_EQ(b->anti_entropy_stats().rounds_ok, 2u);
  EXPECT_GE(b->anti_entropy_stats().bytes_pulled, 1u);

  a->Stop();
  b->Stop();
}

TEST(SweepTest, UnreplicatedRangeSkipsAndUnshardedIs412) {
  // Unsharded server: the route exists but has nothing to reconcile with.
  net::DecompositionServerOptions plain;
  plain.http.port = 0;
  plain.http.io_threads = 2;
  auto server = net::DecompositionServer::Create(plain);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(Exchange((*server)->port(), "POST", "/v1/admin/antientropy").status,
            412);
  (*server)->Stop();

  // Sharded but unreplicated: a sweep round is a counted no-op.
  const int p0 = FreePort(), p1 = FreePort();
  const service::ShardMap map =
      MustParse("127.0.0.1:" + std::to_string(p0) + ",127.0.0.1:" +
                std::to_string(p1));
  auto lone = StartReplica(p0, map, 0);
  WireResponse swept = Exchange(p0, "POST", "/v1/admin/antientropy");
  ASSERT_EQ(swept.status, 200) << swept.body;
  EXPECT_NE(swept.body.find("\"siblings\": 0"), std::string::npos) << swept.body;
  EXPECT_EQ(lone->anti_entropy_stats().rounds_skipped, 1u);
  lone->Stop();

  // The background interval without a shard map is refused at Create.
  net::DecompositionServerOptions bad;
  bad.http.port = 0;
  bad.anti_entropy_interval_seconds = 0.5;
  EXPECT_FALSE(net::DecompositionServer::Create(bad).ok());
}

TEST(SweepTest, CorruptSiblingAbortsCleanlyWithoutTouchingTheStore) {
  const int pa = FreePort(), pb = FreePort();
  const service::ShardMap map =
      MustParse("127.0.0.1:" + std::to_string(pa) + "*2,127.0.0.1:" +
                std::to_string(pb));
  auto b = StartReplica(pb, map, 0);

  // Warm B so there is live state a corrupt exchange could damage.
  const std::string instance = WriteHyperBench(MakeCycle(6));
  ASSERT_EQ(Exchange(pb, "POST", "/v1/decompose?k=2", instance).status, 200);

  // The "sibling" at pa is an impostor: its digest response is garbage in
  // phase one, then a well-formed summary whose slices all differ — but
  // every export blob it serves is corrupt.
  std::atomic<bool> honest_digest{false};
  service::FingerprintRange full;
  service::DigestSummary lying;
  lying.config_digest = 0;  // patched below once B's digest is known
  net::HttpServer::Options impostor_options;
  impostor_options.host = "127.0.0.1";
  impostor_options.port = pa;
  impostor_options.io_threads = 2;
  net::HttpServer impostor(
      impostor_options, [&](const net::HttpRequest& request) {
        net::HttpResponse response;
        if (request.path == "/v1/admin/digest") {
          response.body = honest_digest.load()
                              ? RenderDigestSummary(lying)
                              : "HTDDIGEST1 zz not-a-digest\ngarbage\n";
        } else {
          response.body = "HTDSNAP1 but then garbage follows";
        }
        return response;
      });
  ASSERT_TRUE(impostor.Start().ok());

  // Phase one: unparseable digest. The round errors before any pull.
  WireResponse swept = Exchange(pb, "POST", "/v1/admin/antientropy");
  ASSERT_EQ(swept.status, 502) << swept.body;
  EXPECT_NE(swept.body.find("\"errors\": 1"), std::string::npos) << swept.body;
  EXPECT_NE(swept.body.find("\"slices_pulled\": 0"), std::string::npos)
      << "a corrupt digest must abort before pulling: " << swept.body;
  EXPECT_NE(swept.body.find("\"cache_entries\": 0"), std::string::npos);

  // Phase two: a valid digest advertising differences, but corrupt blobs.
  // The pull happens, the decode rejects it, nothing merges.
  auto b_digest = ParseDigestSummary(
      Exchange(pb, "GET", "/v1/admin/digest?slices=4").body);
  ASSERT_TRUE(b_digest.ok()) << b_digest.status().message();
  lying = *b_digest;
  for (auto& slice : lying.slices) slice.digest ^= 0xdeadbeefULL;
  honest_digest.store(true);
  WireResponse swept2 = Exchange(pb, "POST", "/v1/admin/antientropy");
  ASSERT_EQ(swept2.status, 502) << swept2.body;
  EXPECT_NE(swept2.body.find("\"cache_entries\": 0"), std::string::npos)
      << "corrupt blobs must merge nothing: " << swept2.body;
  EXPECT_EQ(b->anti_entropy_stats().rounds_error, 2u);
  EXPECT_EQ(b->anti_entropy_stats().merged_cache_entries, 0u);
  EXPECT_EQ(b->anti_entropy_stats().merged_store_entries, 0u);

  // B's own warm state is intact: the replay still hits.
  WireResponse replay = Exchange(pb, "POST", "/v1/decompose?k=2", instance);
  ASSERT_EQ(replay.status, 200);
  EXPECT_NE(replay.body.find("\"cache_hit\": true"), std::string::npos)
      << replay.body;

  impostor.Stop();
  b->Stop();
}

TEST(SweepTest, MigrationInFlightSkipsTheRound) {
  const int pa = FreePort(), pb = FreePort(), pc = FreePort();
  const service::ShardMap map =
      MustParse("127.0.0.1:" + std::to_string(pa) + "*2,127.0.0.1:" +
                std::to_string(pb));
  auto a = StartReplica(pa, map, 0);

  const std::string new_spec = "127.0.0.1:" + std::to_string(pa) +
                               "*2,127.0.0.1:" + std::to_string(pb) +
                               ",127.0.0.1:" + std::to_string(pc);
  WireResponse prepared = Exchange(
      pa, "POST", "/v1/admin/migrate?prepare=1&new_index=0", new_spec);
  ASSERT_EQ(prepared.status, 200) << prepared.body;

  WireResponse swept = Exchange(pa, "POST", "/v1/admin/antientropy");
  EXPECT_EQ(swept.status, 412) << swept.body;
  EXPECT_EQ(a->anti_entropy_stats().rounds_skipped, 1u);
  a->Stop();
}

TEST(SweepTest, BackgroundLoopConvergesWithoutOperatorAction) {
  const int pa = FreePort(), pb = FreePort();
  const service::ShardMap map =
      MustParse("127.0.0.1:" + std::to_string(pa) + "*2,127.0.0.1:" +
                std::to_string(pb));
  auto a = StartReplica(pa, map, 0);

  const std::string instance = WriteHyperBench(MakeCycle(6));
  ASSERT_EQ(Exchange(pa, "POST", "/v1/decompose?k=2", instance).status, 200);

  // B runs the background loop at a short interval; no one ever posts
  // /v1/admin/antientropy to it.
  net::DecompositionServerOptions options;
  options.http.port = pb;
  options.http.io_threads = 2;
  options.service.enable_subproblem_store = true;
  options.shard_map = map;
  options.shard_index = 0;
  options.anti_entropy_self = "127.0.0.1:" + std::to_string(pb);
  options.anti_entropy_slices = 4;
  options.anti_entropy_interval_seconds = 0.05;
  auto b = net::DecompositionServer::Create(options);
  ASSERT_TRUE(b.ok()) << b.status().message();
  ASSERT_TRUE((*b)->Start().ok());

  bool warm = false;
  for (int i = 0; i < 500 && !warm; ++i) {
    warm = (*b)->anti_entropy_stats().merged_cache_entries > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(warm) << "the background loop must pull the sibling's state";
  WireResponse replay = Exchange(pb, "POST", "/v1/decompose?k=2", instance);
  ASSERT_EQ(replay.status, 200);
  EXPECT_NE(replay.body.find("\"cache_hit\": true"), std::string::npos)
      << replay.body;

  (*b)->Stop();  // must join the loop promptly
  a->Stop();
}

}  // namespace
}  // namespace htd
