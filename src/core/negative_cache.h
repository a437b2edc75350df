// Thread-safe negative memo for one solve's subproblems.
//
// det-k-decomp owes much of its sequential speed to "extensive caching",
// which the paper singles out as the reason it parallelises badly (§1). This
// memo records subproblems ⟨E', Sp, Conn⟩ for which the search space was
// exhausted, so an identical subproblem reached through a different branch
// fails immediately. One instance lives in each solve's SearchFrame
// (core/search_types.h): det-k always consults it, alone or as the hybrid's
// leaf solver, and log-k levels do when SolveOptions::enable_cache is set,
// which lets bench/ablation_prep_cache.cc measure the trade-off on the
// paper's own engine.
//
// Soundness with allowed-edge sets: Decompose(H', Conn, A) failing only
// proves that no fragment exists *with λ-labels from A*. A later query with
// allowed set A ⊆ A_recorded is dominated (its search space is a subset), so
// a hit requires a recorded superset. Entries per key are kept as an
// antichain of ⊆-maximal allowed sets. Pure det-k passes the root's allowed
// set to every call, so there a hit is an exact match; the hybrid's det-k
// leaves see the narrowed sets of log-k's up-calls, where dominance can
// answer more.
//
// Concurrency: the key space is striped over kShards independently locked
// shards (the same pattern as service/result_cache.h), so parallel workers
// probing different subproblems — log-k slot tasks, or the hybrid's det-k
// leaves under them — rarely contend. The cross-instance version of the
// same idea is the subproblem store (service/subproblem_store.h), measured
// in bench/ablation_shared_memo.cc.
#pragma once

#include <array>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "decomp/extended_subhypergraph.h"
#include "util/bitset.h"

namespace htd {

class NegativeCache {
 public:
  /// Lock stripes, as many as service/result_cache.h uses.
  static constexpr int kShards = 16;

  NegativeCache() = default;
  NegativeCache(const NegativeCache&) = delete;
  NegativeCache& operator=(const NegativeCache&) = delete;

  /// True iff a recorded failure dominates the query: identical ⟨E', Sp,
  /// Conn⟩ and a recorded allowed-set ⊇ `allowed`.
  bool ContainsDominating(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed) const;

  /// Records that ⟨comp, conn⟩ has no fragment with λ-labels from `allowed`.
  void Insert(const ExtendedSubhypergraph& comp, const util::DynamicBitset& conn,
              const util::DynamicBitset& allowed);

  /// Number of distinct ⟨E', Sp, Conn⟩ keys recorded (summed over shards).
  size_t size() const;

 private:
  struct Key {
    util::DynamicBitset edges;
    std::vector<int> specials;
    util::DynamicBitset conn;
    /// Computed once per operation (this is a per-recursion-node hot path):
    /// shard selection and the shard map both reuse it instead of
    /// re-hashing three bitsets. Equality stays structural.
    size_t hash = 0;

    void ComputeHash() {
      size_t h = edges.Hash() * 1000003u + conn.Hash();
      for (int s : specials) h = h * 31u + static_cast<size_t>(s) + 0x9e3779b9u;
      hash = h;
    }
    bool operator==(const Key& other) const {
      return edges == other.edges && specials == other.specials &&
             conn == other.conn;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const { return key.hash; }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, std::vector<util::DynamicBitset>, KeyHash> entries;
  };

  Shard& ShardFor(const Key& key) { return shards_[key.hash % kShards]; }
  const Shard& ShardFor(const Key& key) const {
    return shards_[key.hash % kShards];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace htd
