// Synthetic hypergraph families.
//
// These serve two purposes:
//  * tests: families with known hypertree width (paths/acyclic CQs: hw = 1,
//    cycles of length >= 4: hw = 2, ...) anchor correctness assertions;
//  * benchmarks: mixtures of these families form the HyperBench-like corpus
//    (src/benchlib/corpus.*) substituting for the offline-unavailable
//    HyperBench data set (docs/ARCHITECTURE.md, "Substitutions").
//
// All generators are deterministic given their parameters (and Rng seed).
#pragma once

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace htd {

/// Path with n vertices and n-1 binary edges. Alpha-acyclic: hw = 1 (n >= 2).
Hypergraph MakePath(int n);

/// Cycle with n vertices and n binary edges, as in the paper's Appendix B
/// example. hw = 2 for every n >= 3 (a graph cycle is never alpha-acyclic).
Hypergraph MakeCycle(int n);

/// Star: one centre joined to n leaves by binary edges. hw = 1.
Hypergraph MakeStar(int n);

/// r x c grid graph (binary edges). Width grows with min(r, c).
Hypergraph MakeGrid(int rows, int cols);

/// Complete graph K_n as binary edges. High width (≈ n/2).
Hypergraph MakeClique(int n);

/// Cycle of `length` overlapping hyperedges of the given arity; consecutive
/// edges share `overlap` vertices. Generalises MakeCycle (arity 2, overlap 1).
Hypergraph MakeHyperCycle(int length, int arity, int overlap);

/// Random alpha-acyclic, tree-shaped conjunctive query: atoms are created by
/// walking a random tree and sharing `join_vars` variables along each tree
/// edge. hw = 1 by construction.
Hypergraph MakeAcyclicQuery(util::Rng& rng, int num_atoms, int max_arity);

/// Random "application CQ"-like hypergraph: a backbone chain of atoms with a
/// few cross-joins, low arity (2..max_arity), mild cyclicity. Models the
/// application instances of HyperBench (CQs from real workloads).
Hypergraph MakeRandomCq(util::Rng& rng, int num_atoms, int max_arity,
                        double extra_join_prob);

/// Random CSP-like hypergraph: higher arity constraints over a variable pool
/// with denser overlaps. Models HyperBench's synthetic CSP instances.
Hypergraph MakeRandomCsp(util::Rng& rng, int num_vars, int num_constraints,
                         int min_arity, int max_arity);

/// k disjoint cycles glued on a shared hub vertex; width stays ~2 while the
/// edge count scales linearly — a "large but easy" family.
Hypergraph MakeCycleBundle(int num_cycles, int cycle_length);

/// Adds `count` extra random edges (arity 2..3) to a copy of `base`,
/// increasing cyclicity; used for failure-injection and width growth tests.
Hypergraph AddRandomChords(const Hypergraph& base, util::Rng& rng, int count);

/// Injects hw-neutral redundancy of the kind real CQ/CSP sets carry:
/// `subsumed_edges` projection atoms (strict subsets of existing edges) and
/// `twin_vertices` payload columns (each rides a host vertex into all of its
/// edges). Preprocessing (src/prep/) removes all of it; hw is unchanged.
Hypergraph AddRedundancy(const Hypergraph& base, util::Rng& rng,
                         int subsumed_edges, int twin_vertices);

}  // namespace htd
