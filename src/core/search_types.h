// The search frame the paper's solvers share.
//
// log-k-decomp and det-k-decomp (the hybrid's leaf solver) decide the same
// predicate for every subproblem ⟨E', Sp, Conn⟩ with allowed set A: is there
// an HD-fragment of width ≤ k whose λ-labels come from A? SearchFrame holds
// what one solve's engines share — the special edges, the counters and one
// negative memo — and SearchFrame::Decompose is the protocol around that
// predicate: the base cases of Algorithm 2, the memo and the cross-instance
// store, and the candidate list. Each engine passes in only its own
// separator search. SolveInFrame is the Solve body of every solver that
// searches in a frame (log-k, det-k, log-k basic and BalSep).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/negative_cache.h"
#include "core/solver.h"
#include "decomp/extended_subhypergraph.h"
#include "decomp/fragment.h"
#include "decomp/special_edges.h"

namespace htd {

enum class SearchStatus {
  kFound,     ///< HD-fragment of width ≤ k exists (attached)
  kNotFound,  ///< search space exhausted, no fragment exists
  kStopped,   ///< cancelled — no statement about existence
};

struct SearchOutcome {
  SearchStatus status = SearchStatus::kNotFound;
  Fragment fragment;  ///< valid iff status == kFound

  static SearchOutcome Found(Fragment fragment) {
    SearchOutcome outcome;
    outcome.status = SearchStatus::kFound;
    outcome.fragment = std::move(fragment);
    return outcome;
  }
  static SearchOutcome NotFound() { return SearchOutcome{}; }
  static SearchOutcome Stopped() {
    SearchOutcome outcome;
    outcome.status = SearchStatus::kStopped;
    return outcome;
  }
};

/// The cancellation poll every search runs at candidate granularity.
inline bool ShouldStop(const SolveOptions& options) {
  return options.cancel != nullptr && options.cancel->ShouldStop();
}

/// λ candidates of a component: the `allowed` edges that touch `vertices`,
/// the component's own edges first, so that a first-element bound enforces
/// λ ∩ E' ≠ ∅ (Algorithm 2, line 11). Returns how many are its own edges.
int ListCandidates(const Hypergraph& graph, const ExtendedSubhypergraph& comp,
                   const util::DynamicBitset& vertices,
                   const util::DynamicBitset& allowed, std::vector<int>& out);

/// One subproblem as a separator search sees it, past the base cases and
/// the memo and store probes.
struct Subproblem {
  const ExtendedSubhypergraph& comp;
  const util::DynamicBitset& conn;
  const util::DynamicBitset& allowed;
  int depth;
  util::DynamicBitset vertices;  ///< V(comp)
  std::vector<int> candidates;   ///< see ListCandidates
  int num_new = 0;               ///< leading candidates that are comp's edges
};

/// One engine's separator search over a subproblem.
using SeparatorSearch = std::function<SearchOutcome(const Subproblem&)>;

/// What one solve's engines share, and the subproblem protocol over it.
class SearchFrame {
 public:
  SearchFrame(const Hypergraph& graph, int k, const SolveOptions& options);

  SearchFrame(const SearchFrame&) = delete;
  SearchFrame& operator=(const SearchFrame&) = delete;

  /// Counts one recursive call at `depth`; false once the solve is cancelled.
  bool Enter(int depth);

  /// Decides ⟨comp, conn⟩ over `allowed`. In order: the base cases of
  /// Algorithm 2 (lines 5-10, with App. C's negative base case), a memo
  /// probe (when `use_memo`), a store probe (options.subproblem_store, whose
  /// failures are mirrored into the memo), then `search` over the
  /// candidates. A definitive outcome of the search is recorded in the memo
  /// and the store; kStopped says nothing and is not recorded.
  SearchOutcome Decompose(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed, int depth,
                          bool use_memo, const SeparatorSearch& search);

  const Hypergraph& graph;
  const int k;
  const SolveOptions& options;
  SpecialEdgeRegistry registry;
  StatsCounters stats;
  /// Failed subproblems of this solve (core/negative_cache.h). det-k always
  /// consults it; log-k levels only when options.enable_cache is set.
  NegativeCache memo;
};

/// What a solver attaches to kYes, and how options.validate_result checks it.
enum class Witness {
  kHd,    ///< a hypertree decomposition: ValidateHdWithWidth
  kGhd,   ///< a generalized HD: ValidateGhd and width ≤ k
  kNone,  ///< decision only: nothing attached
};

/// One solver's search from the root: the whole graph as an extended
/// subhypergraph with an empty interface, in a fresh frame.
using RootSearch = std::function<SearchOutcome(
    SearchFrame& frame, const ExtendedSubhypergraph& full,
    const util::DynamicBitset& conn)>;

/// The Solve body of the frame-based solvers. Times the call, answers the
/// empty hypergraph with kYes (and the empty HD unless decision-only), runs
/// `search` otherwise, and reports kFound as kYes with the fragment's
/// decomposition, kNotFound as kNo and kStopped as kCancelled. Under
/// options.validate_result a decomposition that fails the witness check
/// turns the answer into kError.
SolveResult SolveInFrame(const Hypergraph& graph, int k,
                         const SolveOptions& options, Witness witness,
                         const RootSearch& search);

}  // namespace htd
