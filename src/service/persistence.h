// Snapshot / restore of the service layer's warm state.
//
// The result cache (service/result_cache.h) and the subproblem store
// (service/subproblem_store.h) are exactly the state the paper's log-depth
// parallel search makes expensive to recompute, and both die with the
// process. This module serialises them to one versioned binary snapshot so
// a restarted server (tools/hdserver.cc) answers previously-solved
// instances as cache hits immediately.
//
// Format (all integers little-endian):
//
//   [ 0..8)   magic     "HTDSNAP1"
//   [ 8..12)  version   u32 — kSnapshotVersion; any mismatch is refused
//   [12..20)  digest    u64 — writer's SolverConfigDigest, informational
//                       (cache keys embed their own digest, so entries from
//                       a differently-configured writer restore but never
//                       hit; subproblem facts are solver-independent)
//   [20..28)  size      u64 — payload byte count
//   [28..36)  checksum  u64 — FNV-1a over the payload
//   [36.. )   payload   cache section, then store section
//
// Safety: Decode validates magic, version, size, and checksum, then decodes
// the full payload into staging vectors BEFORE touching the cache or store —
// a truncated, corrupt, or version-mismatched snapshot is rejected with a
// descriptive Status and the target objects are left exactly as they were
// (a restarting server simply starts cold). Restore goes through the normal
// Insert/Import paths, so restoring into a non-empty or smaller-capacity
// target is safe (LRU/antichain/eviction rules apply as usual).
#pragma once

#include <cstdint>
#include <string>

#include "service/result_cache.h"
#include "service/subproblem_store.h"
#include "util/status.h"

namespace htd::service {

/// Bumped on any incompatible change to the payload encoding or to the
/// fingerprints that key it. v2: fingerprints come from worklist colour
/// refinement (service/canonical.h); v1 entries would load but never hit.
inline constexpr uint32_t kSnapshotVersion = 2;

struct SnapshotStats {
  size_t cache_entries = 0;  ///< result-cache entries written / restored
  size_t store_entries = 0;  ///< subproblem-store keys written / restored
  size_t bytes = 0;          ///< snapshot size, header included
  /// Entries skipped by a fingerprint-range filter on restore — a snapshot
  /// taken before resharding loads cleanly, keeping only the entries this
  /// shard still owns (service/shard_map.h).
  size_t dropped_out_of_range = 0;
  /// Store variants dropped by save-time compaction
  /// (SubproblemStore::CompactExported): a variant dominated by a
  /// different-k variant of the same fingerprint is not written. Set on
  /// encode/save; 0 on restore.
  size_t compacted = 0;
};

/// Serialises the current contents of `cache` and `store` (either may be
/// nullptr — its section is written empty). `config_digest` is recorded in
/// the header for diagnostics. A non-null `range` restricts both sections
/// to entries whose fingerprint it contains — a sharded server persists
/// only its slice of the key space.
std::string EncodeSnapshot(ResultCache* cache, SubproblemStore* store,
                           uint64_t config_digest,
                           const FingerprintRange* range = nullptr);

/// As above, additionally reporting how many entries of each section were
/// actually written (after range filtering) in `*written` — the live
/// migration path (net/decomposition_server.h `/v1/admin/migrate`) uses the
/// counts to tell "nothing to move" from "moved N entries".
std::string EncodeSnapshot(ResultCache* cache, SubproblemStore* store,
                           uint64_t config_digest, const FingerprintRange* range,
                           SnapshotStats* written);

/// Validates and decodes `bytes`, then restores entries into `cache` and
/// `store` (either may be nullptr — its section is decoded and discarded).
/// On any validation or decode failure nothing is restored and an
/// InvalidArgument / FailedPrecondition status describes the problem.
/// A non-null `range` drops entries outside it (counted in
/// dropped_out_of_range, excluded from the restored counts), so a
/// pre-resharding snapshot restores cleanly into a narrower shard.
util::StatusOr<SnapshotStats> DecodeSnapshot(const std::string& bytes,
                                             ResultCache* cache,
                                             SubproblemStore* store,
                                             const FingerprintRange* range = nullptr);

/// EncodeSnapshot + atomic file write (temp file in the same directory,
/// then rename), so a crash mid-save never corrupts an existing snapshot.
util::StatusOr<SnapshotStats> SaveSnapshot(const std::string& path,
                                           ResultCache* cache,
                                           SubproblemStore* store,
                                           uint64_t config_digest,
                                           const FingerprintRange* range = nullptr);

/// Reads `path` and restores via DecodeSnapshot. NotFound when the file does
/// not exist (callers treat that as a normal cold start).
util::StatusOr<SnapshotStats> LoadSnapshot(const std::string& path,
                                           ResultCache* cache,
                                           SubproblemStore* store,
                                           const FingerprintRange* range = nullptr);

}  // namespace htd::service
