// Balanced-separator GHD solver — stand-in for BalancedGo (Gottlob, Okulmus
// & Pichler, IJCAI 2020).
//
// BalancedGo computes *generalized* hypertree decompositions: no special
// condition, unrooted trees. Its core idea — recurse on balanced separators
// so every subproblem halves — is the same one log-k-decomp adapts to HDs.
// We implement the rooted variant of that recursion: pick λ (≤ k edges) such
// that every [λ]-component of the current component has at most half its
// size and ⋃λ covers the interface Conn; set χ = ⋃λ ∩ V(comp) and recurse.
//
// Guarantees: every returned decomposition is a valid GHD of width ≤ k
// (ValidateGhd), and the recursion depth is logarithmic. Like BalancedGo
// without its full sub-edge machinery, the solver is *incomplete* for exact
// ghw (it can miss GHDs whose bags are strict subsets of ⋃λ), which mirrors
// the empirical finding the paper reports in §5.2: the extra generality of
// GHDs buys nothing on HyperBench (ghw found is never below hw), while the
// GHD search is more expensive. See "Substitutions" in docs/ARCHITECTURE.md.
#pragma once

#include "core/solver.h"

namespace htd {

class BalSepGhd : public HdSolver {
 public:
  explicit BalSepGhd(SolveOptions options = {}) : options_(std::move(options)) {}

  /// Searches for a GHD of width ≤ k (sound; incomplete for exact ghw).
  SolveResult Solve(const Hypergraph& graph, int k) override;
  std::string name() const override { return "balsep-ghd (BalancedGo stand-in)"; }

 private:
  SolveOptions options_;
};

}  // namespace htd
