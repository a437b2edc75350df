#include "core/log_k_decomp.h"

#include <algorithm>
#include <optional>

#include "core/search_steps.h"
#include "decomp/components.h"
#include "util/trace.h"

namespace htd {
namespace {

// Per-recursion-level separator-search spans are recorded down to this
// depth. The paper's bound makes depth logarithmic, so a handful of levels
// shows the whole shape; deeper calls are legion and would only churn the
// ring buffers.
constexpr int kMaxTracedDepth = 6;

// Models "the subproblems are independent of each other and are therefore
// processed in parallel" (§D.1) in partition-simulation mode: the effective
// cost of each sibling recursive call is measured, the set of costs is
// list-scheduled onto the virtual workers, and the effective counter
// collapses to the resulting makespan (plus any serial glue between calls).
// In real-thread mode this is a no-op.
class SiblingCollapse {
 public:
  SiblingCollapse(bool enabled, int workers)
      : enabled_(enabled && workers > 1),
        workers_(workers),
        base_(CurrentEffectiveSteps()),
        child_start_(base_) {}

  void BeginChild() { child_start_ = CurrentEffectiveSteps(); }
  void EndChild() { costs_.push_back(CurrentEffectiveSteps() - child_start_); }

  void Finish() {
    if (!enabled_ || costs_.size() < 2) return;
    std::vector<long> load(workers_, 0);
    for (long cost : costs_) {
      *std::min_element(load.begin(), load.end()) += cost;
    }
    long makespan = *std::max_element(load.begin(), load.end());
    long serial_glue = CurrentEffectiveSteps() - base_;
    for (long cost : costs_) serial_glue -= cost;
    CollapseEffectiveSteps(base_ + std::max<long>(serial_glue, 0) + makespan);
  }

 private:
  bool enabled_;
  int workers_;
  long base_;
  long child_start_;
  std::vector<long> costs_;
};

}  // namespace

double LogKEngine::MetricValue(const ExtendedSubhypergraph& comp) const {
  switch (frame_.options.hybrid_metric) {
    case HybridMetric::kNone:
      return 0.0;
    case HybridMetric::kEdgeCount:
      return static_cast<double>(comp.size());
    case HybridMetric::kWeightedCount: {
      // |E(H')| * k / avg-arity (§D.2). Arity is averaged over the normal
      // edges; a subproblem of special edges only is trivially "simple".
      long arity_sum = 0;
      comp.edges.ForEach(
          [&](int e) { arity_sum += frame_.graph.edge_vertex_list(e).size(); });
      double avg_arity = comp.edge_count > 0
                             ? static_cast<double>(arity_sum) / comp.edge_count
                             : 1.0;
      return static_cast<double>(comp.size()) * frame_.k / avg_arity;
    }
  }
  return 0.0;
}

SearchOutcome LogKEngine::Decompose(const ExtendedSubhypergraph& comp,
                                    const util::DynamicBitset& conn,
                                    const util::DynamicBitset& allowed, int depth) {
  // Hybrid switch (§D.2): hand simple subproblems to det-k-decomp, which
  // counts the call as its own.
  if (fallback_ != nullptr &&
      MetricValue(comp) < frame_.options.hybrid_threshold) {
    frame_.stats.detk_subproblems.fetch_add(1, std::memory_order_relaxed);
    return fallback_->Decompose(comp, conn, allowed, depth);
  }
  return frame_.Decompose(comp, conn, allowed, depth, frame_.options.enable_cache,
                          [this](const Subproblem& sub) { return Search(sub); });
}

SearchOutcome LogKEngine::Search(const Subproblem& sub) {
  const SolveOptions& options = frame_.options;
  // ChildLoop, possibly parallel over (size, first-element) chunks. Real
  // parallelism needs a task group to spawn into (Solve opens one when the
  // scheduler didn't lend a flight group); the budget bounds how many slot
  // tasks this solve offers across all its concurrent search levels.
  int extra = 0;
  int simulate_workers = 1;
  if (options.num_threads > 1 && sub.comp.size() >= options.parallel_min_size) {
    if (options.simulate_partition) {
      simulate_workers = options.num_threads;
    } else if (budget_ != nullptr && options.task_group != nullptr) {
      extra = budget_->Claim(options.num_threads - 1);
    }
  }
  // The per-recursion-level span: one "sep_search" per Decompose call near
  // the top of the tree, tagged with its depth — /v1/trace shows the
  // paper's log-depth recursion directly.
  util::TraceScope sep_span(
      "sep_search",
      sub.depth <= kMaxTracedDepth
          ? util::TraceParent{options.trace_parent, options.trace_root}
          : util::TraceParent{},
      static_cast<uint64_t>(sub.depth));
  SearchOutcome outcome = DriveCandidates(
      static_cast<int>(sub.candidates.size()), frame_.k, sub.num_new, extra,
      options.task_group, simulate_workers, frame_.stats,
      [&](const std::vector<int>& subset) {
        std::vector<int> lambda_child;
        lambda_child.reserve(subset.size());
        for (int idx : subset) lambda_child.push_back(sub.candidates[idx]);
        return TryChildCandidate(sub, lambda_child);
      },
      util::TraceParent{sep_span.id(), sep_span.root()});
  if (budget_ != nullptr) budget_->Release(extra);
  return outcome;
}

SearchOutcome LogKEngine::TryChildCandidate(const Subproblem& sub,
                                            const std::vector<int>& lambda_child) {
  const Hypergraph& graph = frame_.graph;
  SpecialEdgeRegistry& registry = frame_.registry;
  const SolveOptions& options = frame_.options;
  if (ShouldStop(options)) return SearchOutcome::Stopped();
  frame_.stats.separators_tried.fetch_add(1, std::memory_order_relaxed);
  AddSearchStep();
  const int total = sub.comp.size();

  const util::DynamicBitset child_union = graph.UnionOfEdges(lambda_child);
  // Balancedness of c (Algorithm 2, lines 12-14): every [λ(c)]-component of
  // H' must have size ≤ |H'|/2 — the over-approximation of χ(c) by ⋃λ(c)
  // discussed in App. C ("searching for child nodes first").
  ComponentSplit child_split =
      SplitComponents(graph, registry, sub.comp, child_union);
  if (child_split.MaxComponentSize() * 2 > total) return SearchOutcome::NotFound();

  const bool simulate = options.simulate_partition && options.num_threads > 1 &&
                        sub.comp.size() >= options.parallel_min_size;

  // Root case (lines 15-21): if ⋃λ(c) covers the interface, c can root this
  // fragment; χ(c) = ⋃λ(c) ∩ V(H').
  if (sub.conn.IsSubsetOf(child_union)) {
    util::DynamicBitset chi_child = child_union & sub.vertices;
    Fragment fragment;
    int root = fragment.AddNode(lambda_child, chi_child);
    fragment.SetRoot(root);
    bool failed = false;
    SiblingCollapse collapse(simulate, options.num_threads);
    for (size_t i = 0; i < child_split.components.size() && !failed; ++i) {
      util::DynamicBitset child_conn =
          child_split.component_vertices[i] & chi_child;
      collapse.BeginChild();
      SearchOutcome child = Decompose(child_split.components[i], child_conn,
                                      sub.allowed, sub.depth + 1);
      collapse.EndChild();
      if (child.status == SearchStatus::kStopped) return child;
      if (child.status == SearchStatus::kNotFound) {
        failed = true;
        break;
      }
      fragment.Graft(child.fragment, root);
    }
    collapse.Finish();
    if (!failed) {
      // Special edges fully covered by χ(c) become leaf children of c
      // (Definition 3.3, conditions 2b/5).
      for (int s : child_split.covered.specials) {
        int leaf = fragment.AddSpecialLeaf(s, registry.vertices(s));
        fragment.AddChild(root, leaf);
      }
      return SearchOutcome::Found(std::move(fragment));
    }
    // Fall through to the parent search: the algorithm as printed skips it
    // when Conn ⊆ ⋃λ(c), but trying (p, c) pairs as well only enlarges the
    // searched space, so completeness is certainly preserved.
  }

  // ParentLoop (lines 22-43). λ(p) candidates: allowed edges that intersect
  // ⋃λ(c) (Theorem C.1), component edges first (λ(p) ∩ H'.E ≠ ∅).
  std::vector<int> parent_candidates;
  sub.allowed.ForEach([&](int e) {
    if (sub.comp.edges.Test(e) && graph.edge_vertices(e).Intersects(child_union)) {
      parent_candidates.push_back(e);
    }
  });
  const int parent_new = static_cast<int>(parent_candidates.size());
  sub.allowed.ForEach([&](int e) {
    if (!sub.comp.edges.Test(e) && graph.edge_vertices(e).Intersects(child_union) &&
        graph.edge_vertices(e).Intersects(sub.vertices)) {
      parent_candidates.push_back(e);
    }
  });
  const int parent_n = static_cast<int>(parent_candidates.size());

  // The ParentLoop body for one λ(p) candidate (lines 23-43).
  auto try_parent = [&](const std::vector<int>& subset) -> SearchOutcome {
    if (ShouldStop(options)) return SearchOutcome::Stopped();
    frame_.stats.separators_tried.fetch_add(1, std::memory_order_relaxed);
    AddSearchStep();
    std::vector<int> lambda_parent;
    lambda_parent.reserve(subset.size());
    for (int idx : subset) lambda_parent.push_back(parent_candidates[idx]);
    const util::DynamicBitset parent_union = graph.UnionOfEdges(lambda_parent);

    // Lines 23-27: the unique oversized [λ(p)]-component becomes comp_down
    // (the component the subtree T_c must cover).
    ComponentSplit parent_split =
        SplitComponents(graph, registry, sub.comp, parent_union);
    int down_index = parent_split.FindOversized(total);
    if (down_index < 0) return SearchOutcome::NotFound();
    const ExtendedSubhypergraph& comp_down = parent_split.components[down_index];
    const util::DynamicBitset& down_vertices =
        parent_split.component_vertices[down_index];

    // Line 29: interface vertices inside comp_down must be covered by λ(p).
    if (!(down_vertices & sub.conn).IsSubsetOf(parent_union)) {
      return SearchOutcome::NotFound();
    }
    // Line 28: χ(c) = ⋃λ(c) ∩ V(comp_down) (normal-form condition 3).
    util::DynamicBitset chi_child = child_union & down_vertices;
    if (chi_child.None()) return SearchOutcome::NotFound();
    // Line 31: connectedness between p and c.
    if (!(down_vertices & parent_union).IsSubsetOf(chi_child)) {
      return SearchOutcome::NotFound();
    }

    // [χ(c)]-components of comp_down (== its [λ(c)]-components, Cor. 3.8).
    ComponentSplit down_split =
        SplitComponents(graph, registry, comp_down, chi_child);
    // Balancedness re-check (Algorithm 1, line 29): guarantees the halving
    // invariant unconditionally; the normal-form witness always passes.
    if (down_split.MaxComponentSize() * 2 > total) return SearchOutcome::NotFound();

    // Recursive calls for the components below c and for the "up" problem —
    // all independent subproblems (processed in parallel per §D.1; the
    // collapse models that in simulation mode).
    SiblingCollapse collapse(simulate, options.num_threads);
    std::vector<Fragment> below;
    below.reserve(down_split.components.size());
    for (size_t i = 0; i < down_split.components.size(); ++i) {
      util::DynamicBitset sub_conn = down_split.component_vertices[i] & chi_child;
      collapse.BeginChild();
      SearchOutcome child = Decompose(down_split.components[i], sub_conn,
                                      sub.allowed, sub.depth + 1);
      collapse.EndChild();
      if (child.status == SearchStatus::kStopped) return child;
      if (child.status == SearchStatus::kNotFound) {
        collapse.Finish();
        return SearchOutcome::NotFound();  // reject this parent
      }
      below.push_back(std::move(child.fragment));
    }

    // The "up" problem: H' \ comp_down plus χ(c) as a fresh special edge
    // (lines 38-39).
    int special_id = registry.Add(chi_child, lambda_child);
    ExtendedSubhypergraph comp_up;
    comp_up.edges = sub.comp.edges - comp_down.edges;
    comp_up.edge_count = sub.comp.edge_count - comp_down.edge_count;
    for (int s : sub.comp.specials) {
      if (std::find(comp_down.specials.begin(), comp_down.specials.end(), s) ==
          comp_down.specials.end()) {
        comp_up.specials.push_back(s);
      }
    }
    comp_up.specials.push_back(special_id);  // ids increase: stays sorted

    // Allowed edges for the up-call (line 40) — minus comp_down's edges,
    // and minus any edge dipping into comp_down's private vertices
    // V(comp_down) \ χ(c) (see the header comment: keeps the special
    // condition intact at stitch time; completeness unaffected).
    util::DynamicBitset private_below = down_vertices - chi_child;
    util::DynamicBitset allowed_up = sub.allowed - comp_down.edges;
    std::vector<int> to_remove;
    allowed_up.ForEach([&](int e) {
      if (graph.edge_vertices(e).Intersects(private_below)) to_remove.push_back(e);
    });
    for (int e : to_remove) allowed_up.Reset(e);

    collapse.BeginChild();
    SearchOutcome up = Decompose(comp_up, sub.conn, allowed_up, sub.depth + 1);
    collapse.EndChild();
    collapse.Finish();
    if (up.status == SearchStatus::kStopped) return up;
    if (up.status == SearchStatus::kNotFound) {
      return SearchOutcome::NotFound();  // reject this parent
    }

    // Stitch (Appendix A): the up-fragment's leaf for χ(c) becomes node c;
    // covered specials of comp_down and the below-fragments hang under it.
    Fragment fragment = std::move(up.fragment);
    int leaf = fragment.FindSpecialLeaf(special_id);
    HTD_CHECK_GE(leaf, 0) << "up-fragment lost its interface leaf";
    fragment.ReplaceSpecialLeaf(leaf, lambda_child);
    for (int s : down_split.covered.specials) {
      int special_leaf = fragment.AddSpecialLeaf(s, registry.vertices(s));
      fragment.AddChild(leaf, special_leaf);
    }
    for (const Fragment& child : below) {
      fragment.Graft(child, leaf);
    }
    return SearchOutcome::Found(std::move(fragment));
  };

  // The pair search over λ(p) shares the separator search's partitioning
  // (the paper's parallelisation covers the whole (p, c) pair space); here
  // it is driven sequentially and contributes to the partition simulation.
  return DriveCandidates(parent_n, frame_.k, parent_new, /*extra_workers=*/0,
                         /*group=*/nullptr, simulate ? options.num_threads : 1,
                         frame_.stats, try_parent);
}

SolveResult LogKDecomp::Solve(const Hypergraph& graph, int k) {
  // Resolve the width hint against the executor and make sure a parallel
  // solve has a task group to spawn into: the scheduler lends a flight
  // group; standalone callers (tests, benches, CLI) get a root group on
  // the global executor. num_threads == 0 means "as wide as the fleet".
  SolveOptions options = options_;
  if (options.num_threads <= 0) {
    options.num_threads = options.task_group != nullptr
                              ? options.task_group->executor().num_workers()
                              : util::Executor::Global().num_workers();
  }
  std::unique_ptr<util::TaskGroup> own_group;
  if (options.num_threads > 1 && !options.simulate_partition &&
      options.task_group == nullptr) {
    own_group = std::make_unique<util::TaskGroup>(util::Executor::Global(),
                                                  options.cancel);
    options.task_group = own_group.get();
  }
  return SolveInFrame(
      graph, k, options, Witness::kHd,
      [&](SearchFrame& frame, const ExtendedSubhypergraph& full,
          const util::DynamicBitset& conn) {
        ThreadBudget budget(options.num_threads - 1);
        std::optional<DetKEngine> fallback;
        if (options.hybrid_metric != HybridMetric::kNone) fallback.emplace(frame);
        LogKEngine engine(frame, fallback ? &*fallback : nullptr, &budget);
        const long steps_before = CurrentSearchSteps();
        const long effective_before = CurrentEffectiveSteps();
        SearchOutcome outcome = engine.Decompose(full, conn, graph.AllEdges(), 0);
        if (options.simulate_partition) {
          // Whole-solve partition metric: raw work vs modelled critical
          // path, with Brent's bound work/T as the floor (search_steps.h).
          const long total = CurrentSearchSteps() - steps_before;
          const long effective = CurrentEffectiveSteps() - effective_before;
          const long floor = (total + options.num_threads - 1) /
                             std::max(1, options.num_threads);
          const long parallel = std::max(effective, floor);
          frame.stats.work_total.store(total, std::memory_order_relaxed);
          frame.stats.work_parallel.store(parallel, std::memory_order_relaxed);
          CollapseEffectiveSteps(effective_before + parallel);
        }
        return outcome;
      });
}

std::string LogKDecomp::name() const {
  switch (options_.hybrid_metric) {
    case HybridMetric::kNone:
      return "log-k-decomp";
    case HybridMetric::kEdgeCount:
      return "log-k-hybrid(EdgeCount)";
    case HybridMetric::kWeightedCount:
      return "log-k-hybrid(WeightedCount)";
  }
  return "log-k-decomp";
}

}  // namespace htd
