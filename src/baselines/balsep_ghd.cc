#include "baselines/balsep_ghd.h"

#include <vector>

#include "core/search_types.h"
#include "decomp/components.h"
#include "util/combinations.h"

namespace htd {
namespace {

class GhdEngine {
 public:
  explicit GhdEngine(SearchFrame& frame)
      : frame_(frame), all_edges_(frame.graph.AllEdges()) {}

  SearchStatus Decompose(const ExtendedSubhypergraph& comp,
                         const util::DynamicBitset& conn, int depth,
                         Fragment& fragment, int parent_node) {
    if (!frame_.Enter(depth)) return SearchStatus::kStopped;
    const Hypergraph& graph = frame_.graph;
    const util::DynamicBitset vertices = VerticesOf(graph, frame_.registry, comp);
    // Base case: the whole component fits under one node.
    if (comp.edge_count <= frame_.k) {
      int node = fragment.AddNode(comp.edges.ToVector(), vertices);
      if (parent_node >= 0) {
        fragment.AddChild(parent_node, node);
      } else {
        fragment.SetRoot(node);
      }
      return SearchStatus::kFound;
    }

    const int total = comp.size();
    // Candidate λ-edges with the component's own edges first: the fallback
    // pass needs the "at least one component edge" restriction for
    // termination (see below), which the first-element bound provides.
    std::vector<int> candidates;
    const int num_own = ListCandidates(graph, comp, vertices, all_edges_, candidates);
    const int n = static_cast<int>(candidates.size());

    // Pass 1 (the defining BalancedGo move): balanced separators only —
    // every component at most half, guaranteeing logarithmic recursion.
    // Pass 2 (fallback, replacing BalancedGo's special-edge machinery):
    // any separator covering Conn; λ must contain a component edge, so the
    // covered edge shrinks every subproblem and the recursion terminates.
    for (bool require_balanced : {true, false}) {
      const int first_limit = require_balanced ? n : num_own;
      std::vector<int> lambda;
      for (const util::SubsetChunk& chunk :
           util::MakeSubsetChunks(n, frame_.k, first_limit)) {
        util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
        while (enumerator.Next()) {
          if (ShouldStop(frame_.options)) return SearchStatus::kStopped;
          frame_.stats.separators_tried.fetch_add(1, std::memory_order_relaxed);
          lambda.clear();
          for (int idx : enumerator.indices()) lambda.push_back(candidates[idx]);
          util::DynamicBitset lambda_union = graph.UnionOfEdges(lambda);
          if (!conn.IsSubsetOf(lambda_union)) continue;

          ComponentSplit split =
              SplitComponents(graph, frame_.registry, comp, lambda_union);
          if (require_balanced && split.MaxComponentSize() * 2 > total) continue;

          util::DynamicBitset chi = lambda_union & vertices;
          // Tentatively build this node and its subtree; roll back on failure.
          const int checkpoint = fragment.num_nodes();
          int node = fragment.AddNode(lambda, chi);
          bool ok = true;
          for (size_t i = 0; i < split.components.size() && ok; ++i) {
            util::DynamicBitset child_conn = split.component_vertices[i] & chi;
            SearchStatus sub = Decompose(split.components[i], child_conn,
                                         depth + 1, fragment, node);
            if (sub == SearchStatus::kStopped) return sub;
            if (sub == SearchStatus::kNotFound) ok = false;
          }
          if (!ok) {
            fragment.TruncateTo(checkpoint);
            continue;
          }
          if (parent_node >= 0) {
            fragment.AddChild(parent_node, node);
          } else {
            fragment.SetRoot(node);
          }
          return SearchStatus::kFound;
        }
      }
    }
    return SearchStatus::kNotFound;
  }

 private:
  SearchFrame& frame_;
  const util::DynamicBitset all_edges_;
};

}  // namespace

SolveResult BalSepGhd::Solve(const Hypergraph& graph, int k) {
  return SolveInFrame(graph, k, options_, Witness::kGhd,
                      [](SearchFrame& frame, const ExtendedSubhypergraph& full,
                         const util::DynamicBitset& conn) {
                        SearchOutcome outcome;
                        outcome.status = GhdEngine(frame).Decompose(
                            full, conn, 0, outcome.fragment, -1);
                        return outcome;
                      });
}

}  // namespace htd
