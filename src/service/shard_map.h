// Fingerprint-range shard map: the shared topology config of a sharded
// warm-state deployment.
//
// The paper's parallel LogKDecomp wins come from splitting the work that
// det-k-decomp's "extensive caching" serialises (PODS 2022 §1); PR 2/3
// rebuilt that caching as long-lived warm state (result cache + subproblem
// store, snapshot-persistent). One process can only hold so much of it, so
// the warm state is scaled out by partitioning the canonical 128-bit
// fingerprint space — the key of the result cache AND of the subproblem
// store — into N contiguous ranges, one hdserver process per range. The
// fingerprint is isomorphism-invariant, so every renaming of an instance
// (and every isomorphic subproblem) lands on the same shard: the same
// cache-partitioning discipline det-k applies in-process, lifted to a fleet.
//
// A ShardMap is parsed from the operator's endpoint list
// ("host:port,host:port,..."); shard i owns the i-th of N equal slices of
// the fingerprint's high word. A range can additionally be REPLICATED for
// hot-range availability: "host:port*R" declares that this endpoint and the
// R-1 endpoints following it in the list serve the SAME range — e.g.
// "a:1,b:1*2,c:1" is a two-range map where range 1 is served by both b:1
// and c:1. Replicas of a range all run with the same --shard-index; the
// router (net/shard_router.h) round-robins reads over them and pushes
// migration imports to all of them, so losing one replica is a warm-state
// non-event instead of a cold start. Every participant — the hdserver proxy
// mode, sharded hdserver backends, and hdclient doing client-side hashing —
// must hold the SAME map: Digest() condenses the full topology (replica
// groups included) and the snapshot version that names the fingerprint
// function into 64 bits that are attached to forwarded requests
// (x-htd-shard-digest) and checked by the backends, so a client or proxy
// operating on a stale map, or fingerprinting with another version, is
// refused with 421 instead of silently poisoning another shard's range.
//
// Routing is pure arithmetic (no lookup tables): IndexFor is a division,
// RangeFor an interval — deterministic across processes, architectures,
// and restarts, which is what makes per-shard snapshots self-describing
// (each shard persists only its range; see service/persistence.h).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "service/canonical.h"
#include "util/status.h"

namespace htd::service {

struct ShardEndpoint {
  /// Parses "host:port": a non-empty host, the last ':', and a port in
  /// [1, 65535]. InvalidArgument otherwise. The one reader of endpoints in
  /// shard maps, flags and query parameters.
  static util::StatusOr<ShardEndpoint> Parse(std::string_view text);

  std::string host;
  int port = 0;

  bool operator==(const ShardEndpoint& other) const {
    return host == other.host && port == other.port;
  }
};

class ShardMap {
 public:
  /// Parses "host:port,host:port,..." (1 to 4096 endpoints; spaces around
  /// commas tolerated). A "host:port*R" item (2 <= R <= 8) groups that
  /// endpoint and the R-1 plain items following it into one replicated
  /// range. InvalidArgument on empty specs, malformed endpoints,
  /// out-of-range ports, a replica count the list cannot satisfy, or a
  /// duplicate endpoint (one process cannot serve two ranges).
  static util::StatusOr<ShardMap> Parse(const std::string& spec);

  /// Canonical textual form ("host:port,host:port*2,host:port");
  /// Parse(Serialise()) round-trips, and equal maps serialise equally
  /// (an explicit "*1" parses but is never emitted).
  std::string Serialise() const;

  /// 64-bit digest of the full topology (range count, every endpoint, and
  /// the replica grouping). Two processes agree on routing iff their
  /// digests match.
  uint64_t Digest() const;
  /// Digest() in 16 hex digits, the wire form of x-htd-shard-digest.
  std::string DigestHex() const;

  /// Number of fingerprint RANGES (not processes; a replicated range counts
  /// once). --shard-index addresses ranges.
  int num_shards() const { return static_cast<int>(replicas_.size()); }
  /// Replica count of range `index` (>= 1; 1 for an unreplicated range).
  int num_replicas(int index) const {
    return static_cast<int>(replicas_[index].size());
  }
  /// The PRIMARY (first-listed) replica of range `index` — the whole
  /// endpoint set is replica(index, 0..num_replicas-1).
  const ShardEndpoint& endpoint(int index) const {
    return replicas_[index][0];
  }
  /// Replica `r` of range `index` (0 <= r < num_replicas(index)).
  const ShardEndpoint& replica(int index, int r) const {
    return replicas_[index][r];
  }
  /// Total process count across every range's replica set.
  int num_endpoints() const;

  /// Locates `endpoint` anywhere in the map (any replica slot). Returns the
  /// range index it serves, or -1 when the endpoint is not in the map —
  /// how tools/hdreshard.cc maps an old process to its --shard-index under
  /// a new topology.
  int RangeOfEndpoint(const ShardEndpoint& endpoint) const;

  /// The replica siblings of range `index`: every replica except `self`, in
  /// map order — who the anti-entropy sweep (net/decomposition_server.h)
  /// reconciles with. Empty for an unreplicated range. A `self` that is not
  /// in the group returns the whole replica set: a process that cannot
  /// identify itself pulls from everyone, and a pull from itself is a
  /// digest-equal no-op.
  std::vector<ShardEndpoint> Siblings(int index, const ShardEndpoint& self) const;

  /// The shard owning `fp`: floor(fp.hi / step), clamped to the last shard.
  /// Deterministic — equal maps route equal fingerprints identically.
  int IndexFor(const Fingerprint& fp) const;

  /// The inclusive hi-word range shard `index` owns. Ranges partition the
  /// space: every fingerprint is in exactly one shard's range, and
  /// RangeFor(IndexFor(fp)).Contains(fp) always holds.
  FingerprintRange RangeFor(int index) const;

 private:
  explicit ShardMap(std::vector<std::vector<ShardEndpoint>> replicas);

  /// Width of each shard's hi-slice (2^64 / num_shards, rounded up so
  /// num_shards * step covers the space; the last shard absorbs the
  /// remainder). 0 means the single-shard full range.
  uint64_t step_ = 0;
  /// replicas_[range] = that range's replica set, primary first.
  std::vector<std::vector<ShardEndpoint>> replicas_;
};

}  // namespace htd::service
