// A scored store of candidate decompositions per query hypergraph.
//
// The decomposition service memoizes ONE result per (fingerprint, k, solver
// config); for query answering that first-found decomposition is rarely the
// cheapest tree to execute — two width-k trees can differ by orders of
// magnitude in intermediate-join size on a skewed database. The portfolio
// retains up to `capacity_per_key` structurally distinct candidates per
// query hypergraph and picks per query, scoring each candidate by
//
//   * estimated join cost: the AGM-style bound Σ_u Π_e N_e^{x_e}, where
//     (x_e) is an optimal fractional edge cover of χ(u)
//     (fractional/cover.h) — computed once per candidate, re-weighted with
//     the querying database's relation cardinalities N_e at pick time;
//   * fractional width max_u ρ*(χ(u)) and integral width as tie-breakers
//     (cardinality-independent quality), then insertion order.
//
// This is the seeed-pool idea (GCG's explore menu over many candidate
// decompositions) applied to query execution; bench/query_portfolio.cc
// measures the win over always executing the first-found tree.
//
// Keys pair the isomorphism-invariant service fingerprint with a LABELLED
// digest of the concrete hypergraph: a stored Decomposition's λ/χ reference
// concrete edge/vertex ids, so it is only executable against a hypergraph
// with identical numbering. Variable renamings keep the numbering (vertices
// are numbered by first occurrence) and hit; atom reorderings miss safely
// instead of returning a tree whose node labels point at the wrong atoms.
//
// Thread-safe; one instance is shared by every request thread of a server.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "decomp/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "service/canonical.h"

namespace htd::qa {

/// Order- and name-sensitive digest of a hypergraph's concrete structure:
/// equal iff the edge list (in id order) covers the same vertex-id sets.
/// Two graphs with equal digests accept each other's decompositions.
uint64_t LabelledGraphDigest(const Hypergraph& graph);

struct PortfolioOptions {
  /// Structurally distinct candidates retained per query hypergraph. Once
  /// full, a new candidate replaces the worst retained one only if it is
  /// better on (fractional width, width).
  int capacity_per_key = 4;
  /// Distinct query hypergraphs tracked; oldest-inserted key evicted first.
  size_t max_keys = 1024;
};

/// The decomposition selected for one query, with its scores.
struct PortfolioPick {
  Decomposition decomposition;
  int width = 0;
  double fractional_width = 0.0;
  /// AGM-style bound Σ_u Π_e N_e^{x_e} under the given cardinalities.
  double estimated_cost = 0.0;
  /// Index of the candidate in insertion order (0 = first-found).
  int candidate_index = 0;
  /// Candidates retained for this key at pick time.
  int num_candidates = 0;
};

class DecompositionPortfolio {
 public:
  explicit DecompositionPortfolio(PortfolioOptions options = {});

  DecompositionPortfolio(const DecompositionPortfolio&) = delete;
  DecompositionPortfolio& operator=(const DecompositionPortfolio&) = delete;

  /// Offers a candidate decomposition of `graph`. Returns true when it was
  /// retained (new shape and either free capacity or better than the worst
  /// retained candidate); false for duplicates and rejected candidates. A
  /// tree that is not a GHD of `graph` (ValidateGhd) is refused outright.
  bool Insert(const service::Fingerprint& fingerprint, const Hypergraph& graph,
              const Decomposition& decomposition);

  /// Picks the best-scoring candidate for `graph` under the per-edge
  /// cardinalities (tuple count of the relation behind each edge/atom;
  /// indexed by edge id). nullopt when no candidate is stored.
  std::optional<PortfolioPick> PickBest(
      const service::Fingerprint& fingerprint, const Hypergraph& graph,
      const std::vector<uint64_t>& edge_cardinalities) const;

  /// The first-found candidate with its scores — the baseline the bench
  /// compares PickBest against.
  std::optional<PortfolioPick> PickFirst(
      const service::Fingerprint& fingerprint, const Hypergraph& graph,
      const std::vector<uint64_t>& edge_cardinalities) const;

  /// Copies of every retained candidate, insertion order (for tests).
  std::vector<Decomposition> Candidates(const service::Fingerprint& fingerprint,
                                        const Hypergraph& graph) const;

  int CandidateCount(const service::Fingerprint& fingerprint,
                     const Hypergraph& graph) const;
  size_t num_keys() const;

 private:
  struct Candidate {
    Decomposition decomposition;
    int width = 0;
    double fractional_width = 0.0;
    /// Optimal fractional edge cover of χ(u) per node: (edge id, weight)
    /// pairs. Cardinality-independent; computed once at insert.
    std::vector<std::vector<std::pair<int, double>>> node_covers;
    /// Digest of the tree structure + labels, for shape dedup.
    uint64_t shape_digest = 0;
  };

  struct Key {
    service::Fingerprint fingerprint;
    uint64_t labelled_digest = 0;
    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint &&
             labelled_digest == other.labelled_digest;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return service::FingerprintHash{}(key.fingerprint) ^
             (key.labelled_digest * 0x9e3779b97f4a7c15ull);
    }
  };

  struct Entry {
    std::vector<Candidate> candidates;
    uint64_t inserted_at = 0;  ///< insertion clock, for FIFO key eviction
  };

  static double EstimateCost(const Candidate& candidate,
                             const std::vector<uint64_t>& edge_cardinalities);
  static PortfolioPick MakePick(const Candidate& candidate, int index,
                                int num_candidates,
                                const std::vector<uint64_t>& cardinalities);

  PortfolioOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  uint64_t clock_ = 0;
};

}  // namespace htd::qa
