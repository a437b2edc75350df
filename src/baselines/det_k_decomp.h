// det-k-decomp (Gottlob & Samer 2008), re-implemented over extended
// subhypergraphs.
//
// The classic top-down HD algorithm: for the current component, guess a
// λ-label covering the interface Conn, fix the minimal χ = ⋃λ ∩ V(comp),
// recurse into the [χ]-components. Its defining implementation trait — the
// one the paper calls out as the obstacle to parallelisation — is extensive
// caching of failed (component, Conn) subproblems; here every call goes
// through the solve's negative memo (SearchFrame::memo, core/negative_cache.h),
// and its hits are counted in SolveStats::cache_hits. The base cases, the
// memo and store probes and the candidate list are the search frame's
// (core/search_types.h); this file holds only det-k's own separator search.
//
// Unlike the original, this version handles *extended* subhypergraphs
// (special edges become leaf children once covered), which is exactly the
// extension the paper's hybrid strategy requires (§5.2: "our own
// implementation of det-k-decomp, extended to handle extended subhypergraphs
// correctly").
#pragma once

#include "core/search_types.h"
#include "core/solver.h"

namespace htd {

/// Recursive engine over one solve's frame; the hybrid embeds one next to
/// the log-k engine, on the same frame, and forwards small subproblems.
class DetKEngine {
 public:
  explicit DetKEngine(SearchFrame& frame) : frame_(frame) {}

  /// Searches for an HD-fragment of width ≤ k of ⟨comp, conn⟩ using only
  /// λ-edges from `allowed`.
  SearchOutcome Decompose(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed, int depth);

 private:
  SearchOutcome Search(const Subproblem& sub);

  SearchFrame& frame_;
};

/// HdSolver façade over DetKEngine, solving whole hypergraphs.
class DetKDecomp : public HdSolver {
 public:
  explicit DetKDecomp(SolveOptions options = {}) : options_(std::move(options)) {}

  SolveResult Solve(const Hypergraph& graph, int k) override;
  std::string name() const override { return "det-k-decomp"; }

 private:
  SolveOptions options_;
};

}  // namespace htd
