// log-k-decomp — the paper's contribution (Algorithm 2, all optimisations).
//
// The recursive function Decompose searches for the λ-labels of a
// parent/child node pair (p, c) such that c is a *balanced separator* of the
// current extended subhypergraph H' = ⟨E', Sp⟩: every [λ(c)]-component of H'
// has size ≤ |H'|/2 (Definition 3.9 via Lemma 3.10). Knowing λ(p) pins down
// χ(c) = ⋃λ(c) ∩ V(comp_down) (normal-form condition 3 / Corollary 3.8), so
// the subproblem splits into the [χ(c)]-components below c plus one "up"
// problem carrying χ(c) as a fresh special edge — all of size ≤ ⌈|H'|/2⌉,
// giving the logarithmic recursion depth of Theorem 4.1.
//
// Optimisations from Appendix C, all implemented:
//  * negative base case (no edges left but ≥ 2 special edges),
//  * explicit fragment-root handling (Conn ⊆ ⋃λ(c) → c roots the fragment),
//  * allowed-edge sets A, reduced by comp_down's edges for the up-call,
//  * child-before-parent search order (balancedness is the rare property),
//  * λ(p) restricted to edges intersecting ⋃λ(c) (Theorem C.1),
//  * λ-labels must contain at least one edge of the current component.
//
// Beyond the paper's decision procedure, Decompose *constructs* the
// HD-fragment (Appendix A's soundness construction) and the top-level call
// returns a validated hypertree decomposition. One strengthening makes the
// stitched HD valid unconditionally: the up-call's allowed set additionally
// drops edges that dip into V(comp_down) \ χ(c). Any valid HD's upper labels
// avoid such edges anyway (their dipping vertices would have to lie in χ(c)
// by connectedness), so completeness is unaffected, and with the filter every
// λ-label above c is disjoint from the private vertices below c — exactly
// what the special condition needs at stitch time.
#pragma once

#include "baselines/det_k_decomp.h"
#include "core/parallel_search.h"
#include "core/search_types.h"
#include "core/solver.h"

namespace htd {

/// Recursive engine over one solve's frame (core/search_types.h), which
/// supplies the base cases, the memo and store probes and the candidate
/// list; this engine adds the (p, c) separator search of Algorithm 2.
class LogKEngine {
 public:
  /// `fallback` (optional) is the hybrid's det-k engine on the same frame:
  /// subproblems whose hybrid metric drops below options.hybrid_threshold
  /// are forwarded to it. `budget` bounds the slot tasks the parallel
  /// separator search offers.
  LogKEngine(SearchFrame& frame, DetKEngine* fallback, ThreadBudget* budget)
      : frame_(frame), fallback_(fallback), budget_(budget) {}

  SearchOutcome Decompose(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed, int depth);

 private:
  SearchOutcome Search(const Subproblem& sub);
  SearchOutcome TryChildCandidate(const Subproblem& sub,
                                  const std::vector<int>& lambda_child);

  double MetricValue(const ExtendedSubhypergraph& comp) const;

  SearchFrame& frame_;
  DetKEngine* fallback_;
  ThreadBudget* budget_;
};

/// HdSolver façade. With options.hybrid_metric == kNone this is plain
/// log-k-decomp; otherwise it is the paper's hybrid (log-k splits until the
/// metric drops below the threshold, then det-k finishes the subproblem).
class LogKDecomp : public HdSolver {
 public:
  explicit LogKDecomp(SolveOptions options = {}) : options_(std::move(options)) {}

  SolveResult Solve(const Hypergraph& graph, int k) override;
  std::string name() const override;

 private:
  SolveOptions options_;
};

}  // namespace htd
