// OptimalSolver — stand-in for HtdLEO (Schidler & Szeider 2021).
//
// HtdLEO encodes HD computation as an SMT instance and asks the solver for a
// decomposition of *optimal* width directly: it takes no width parameter, is
// single-threaded, and trades memory (solver state) for steadiness. That
// closed SMT pipeline is not reproducible offline, so we substitute an
// exact optimal-width solver with the same interface and the same
// performance profile ("Substitutions" in docs/ARCHITECTURE.md):
//
//  * no width parameter — returns the optimal width and a proof-by-search
//    that every smaller width fails;
//  * alpha-acyclicity (GYO) fast path: hw = 1 instances solved immediately,
//    with the HD read off the join tree;
//  * otherwise iterative deepening k = 2, 3, ... over a complete *strictly
//    sequential* search. The search engine is the balanced-separator one
//    with an aggressive det-k switch (threshold below the headline hybrid's),
//    i.e. the strongest single-core configuration in this repository — the
//    role HtdLEO plays in the paper's tables: a powerful exact solver whose
//    only structural handicap against log-k-decomp is that its pipeline
//    cannot use additional cores.
//
// Everything the evaluation compares — single-core exactness, steadiness,
// a solved-set that dominates det-k-decomp's on mid-size instances, and no
// benefit from extra cores — is preserved. What is necessarily lost without
// an SMT stack is clause learning.
#pragma once

#include "core/solver.h"

namespace htd {

class OptimalSolver {
 public:
  explicit OptimalSolver(SolveOptions options = {});

  /// Computes hw(H) exactly (outcome kYes) with a witness HD, or kCancelled
  /// on timeout. `max_k` caps the search (instances of larger width report
  /// kNo, mirroring the paper's width-10 experiment cap).
  OptimalRun FindOptimal(const Hypergraph& graph, int max_k = 64);

  std::string name() const { return "opt-exact (HtdLEO stand-in)"; }

 private:
  SolveOptions options_;
};

}  // namespace htd
