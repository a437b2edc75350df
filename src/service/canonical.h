// Canonical forms and 128-bit fingerprints for hypergraphs.
//
// The service layer memoizes whole-instance results, so identical instances
// must hash identically no matter how the client named its vertices or in
// which order it listed its edges. This module computes an
// isomorphism-robust canonical form by colour refinement on the bipartite
// incidence structure, kept as one ordered partition of the vertices and
// edges. Each side starts ordered by its seed colour (vertices by degree,
// edges by size), and each run of equal seeds is a cell. Refinement is
// worklist-driven (Berkholz, Bonsma and Grohe, ESA 2013): a popped cell
// splits only the cells next to it, by how many neighbours each member has
// in it, and a cell that has already split its neighbours re-queues all its
// fragments but the largest. While a vertex cell has two or more members,
// the first such cell's lowest original vertex id is moved into a singleton
// cell, and refinement restarts from that cell alone (the individualisation
// step of nauty and Traces; McKay and Piperno 2014). Once the vertex cells
// are singletons, a vertex's position is its canonical id.
//
// Guarantees:
//  * Reordering edges or reordering vertices inside an edge never changes
//    the canonical form or the fingerprint. Renaming vertices never does
//    either, except in the pathological case of the third bullet (the
//    individualisation tie-break picks the lowest original id within a
//    tied class, which is only canonical when that class is automorphic).
//  * Two hypergraphs with different canonical forms are non-isomorphic.
//  * Isomorphic hypergraphs receive the same form whenever refinement-
//    equivalent vertices are automorphic — true for everything the corpus
//    and HyperBench-style workloads contain. Pathological refinement-
//    resistant families (e.g. CFI-style constructions) may split one
//    isomorphism class — including renamings of a single instance — across
//    cache entries; that costs a duplicate solve, never a wrong answer.
//
// Fingerprints are 128 bits (two independently seeded 64-bit mixes over the
// canonical edge list), so accidental collisions are out of practical reach.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "decomp/extended_subhypergraph.h"
#include "decomp/special_edges.h"
#include "hypergraph/hypergraph.h"

namespace htd::service {

struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Fingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
  bool operator<(const Fingerprint& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  /// 32 hex digits, e.g. for log lines and manifests.
  std::string ToHex() const;

  /// Inverse of ToHex: exactly 32 hex digits. Returns false on anything else.
  static bool FromHex(std::string_view text, Fingerprint* out);
};

/// A contiguous slice of the 128-bit fingerprint space, bounded (inclusive)
/// on the high word only — the sharding layer (service/shard_map.h) splits
/// the space into N equal hi-ranges, so membership never needs `lo`.
/// first_hi = 0 and last_hi = UINT64_MAX is the full space.
struct FingerprintRange {
  uint64_t first_hi = 0;
  uint64_t last_hi = ~0ULL;

  bool Contains(const Fingerprint& fp) const {
    return fp.hi >= first_hi && fp.hi <= last_hi;
  }
  bool operator==(const FingerprintRange& other) const {
    return first_hi == other.first_hi && last_hi == other.last_hi;
  }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

struct CanonicalForm {
  int num_vertices = 0;
  int num_edges = 0;
  /// Edges over canonical vertex ids in [0, num_vertices): each edge sorted
  /// ascending, edges sorted lexicographically. Duplicate edges are kept.
  std::vector<std::vector<int>> edges;
  Fingerprint fingerprint;
};

/// Computes the canonical form (refinement + individualisation) of `graph`.
CanonicalForm ComputeCanonicalForm(const Hypergraph& graph);

/// Shorthand when only the 128-bit fingerprint is needed.
Fingerprint CanonicalFingerprint(const Hypergraph& graph);

/// Deterministic text rendering of a canonical form ("n m | e1 | e2 ...");
/// equal strings iff equal forms. Used by tests and debug tooling.
std::string CanonicalString(const CanonicalForm& form);

/// Canonical form of an extended sub-hypergraph ⟨E', Sp⟩ with its connector
/// Conn, inside a base hypergraph. The subproblem store keys on this: two
/// subproblems — possibly of *different* instances — that are isomorphic as
/// labelled structures receive the same fingerprint.
///
/// The labelling distinguishes everything the subproblem's outcome can
/// legally depend on: special edges carry a distinct edge colour (a special
/// edge is an interface vertex set, not a λ-candidate), and connector
/// vertices carry a distinct vertex colour (they must be covered by the
/// fragment root). Both labels seed the colour refinement, so they are
/// isomorphism-invariants of the refined partition, and both are absorbed
/// into the fingerprint. The same refinement-resistance caveat as
/// ComputeCanonicalForm applies: a pathological symmetric subproblem may
/// split one isomorphism class across fingerprints — a missed reuse, never a
/// wrong one.
struct SubproblemCanonicalForm {
  Fingerprint fingerprint;

  int num_vertices = 0;  ///< |V(H')| — vertices of all (special) edges

  /// canonical vertex id → base-graph vertex id.
  std::vector<int> canonical_vertices;
  /// base-graph vertex id → canonical id, or -1 for vertices outside V(H').
  /// Sized to the base graph's vertex universe (dense for fast trace
  /// computation; the fill is O(|V(H)|) per call).
  std::vector<int> base_vertex_rank;

  /// canonical special order → special-edge id (SpecialEdgeRegistry).
  /// Component edges cross instances as traces (see the subproblem store),
  /// so no edge-order mapping is kept for them.
  std::vector<int> special_order;
};

/// Canonicalises ⟨comp, Conn⟩ by the same refinement, restricted to the
/// component: vertices are seeded with (degree, Conn-membership), edges with
/// (size, is-special). `conn` uses the base graph's vertex universe; only
/// its intersection with V(H') participates (the solvers never pass
/// connectors outside the component, but the restriction makes the entry
/// point total).
SubproblemCanonicalForm FingerprintSubhypergraph(const Hypergraph& graph,
                                                 const SpecialEdgeRegistry& registry,
                                                 const ExtendedSubhypergraph& comp,
                                                 const util::DynamicBitset& conn);

}  // namespace htd::service
