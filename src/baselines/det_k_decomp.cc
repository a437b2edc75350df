#include "baselines/det_k_decomp.h"

#include "core/search_steps.h"
#include "decomp/components.h"
#include "util/combinations.h"

namespace htd {

SearchOutcome DetKEngine::Decompose(const ExtendedSubhypergraph& comp,
                                    const util::DynamicBitset& conn,
                                    const util::DynamicBitset& allowed, int depth) {
  return frame_.Decompose(comp, conn, allowed, depth, /*use_memo=*/true,
                          [this](const Subproblem& sub) { return Search(sub); });
}

SearchOutcome DetKEngine::Search(const Subproblem& sub) {
  const Hypergraph& graph = frame_.graph;
  SpecialEdgeRegistry& registry = frame_.registry;
  const int n = static_cast<int>(sub.candidates.size());
  // Ordered-first-element enumeration over the candidate list (component
  // edges first) enforces "at least one new edge in λ" for free.
  std::vector<int> lambda;
  for (const util::SubsetChunk& chunk :
       util::MakeSubsetChunks(n, frame_.k, sub.num_new)) {
    util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
    while (enumerator.Next()) {
      if (ShouldStop(frame_.options)) return SearchOutcome::Stopped();
      frame_.stats.separators_tried.fetch_add(1, std::memory_order_relaxed);
      AddSearchStep();
      lambda.clear();
      for (int idx : enumerator.indices()) lambda.push_back(sub.candidates[idx]);

      util::DynamicBitset lambda_union = graph.UnionOfEdges(lambda);
      if (!sub.conn.IsSubsetOf(lambda_union)) continue;
      // Minimal χ (normal-form condition 3): vertices of λ inside the
      // component. Progress is guaranteed: λ contains a component edge e, and
      // e ⊆ ⋃λ ∩ V(comp) = χ.
      util::DynamicBitset chi = lambda_union & sub.vertices;

      ComponentSplit split = SplitComponents(graph, registry, sub.comp, chi);
      std::vector<Fragment> child_fragments;
      child_fragments.reserve(split.components.size());
      bool failed = false;
      for (size_t i = 0; i < split.components.size(); ++i) {
        util::DynamicBitset child_conn = split.component_vertices[i] & chi;
        SearchOutcome child = Decompose(split.components[i], child_conn,
                                        sub.allowed, sub.depth + 1);
        if (child.status == SearchStatus::kStopped) return child;
        if (child.status == SearchStatus::kNotFound) {
          failed = true;
          break;
        }
        child_fragments.push_back(std::move(child.fragment));
      }
      if (failed) continue;

      Fragment fragment;
      int root = fragment.AddNode(lambda, chi);
      fragment.SetRoot(root);
      for (int s : split.covered.specials) {
        int leaf = fragment.AddSpecialLeaf(s, registry.vertices(s));
        fragment.AddChild(root, leaf);
      }
      for (const Fragment& child : child_fragments) {
        fragment.Graft(child, root);
      }
      return SearchOutcome::Found(std::move(fragment));
    }
  }
  return SearchOutcome::NotFound();
}

SolveResult DetKDecomp::Solve(const Hypergraph& graph, int k) {
  return SolveInFrame(graph, k, options_, Witness::kHd,
                      [&](SearchFrame& frame, const ExtendedSubhypergraph& full,
                          const util::DynamicBitset& conn) {
                        return DetKEngine(frame).Decompose(
                            full, conn, graph.AllEdges(), 0);
                      });
}

}  // namespace htd
