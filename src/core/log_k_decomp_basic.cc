#include "core/log_k_decomp_basic.h"

#include <algorithm>
#include <vector>

#include "service/subproblem_store.h"
#include "util/combinations.h"

namespace htd {
namespace {

// Recursive state of one Algorithm 1 run.
class BasicEngine {
 public:
  explicit BasicEngine(SearchFrame& frame)
      : graph_(frame.graph),
        registry_(frame.registry),
        k_(frame.k),
        options_(frame.options),
        stats_(frame.stats),
        all_edges_(frame.graph.AllEdges()) {}

  // Main program, lines 1-10: RootLoop over λ(r).
  SearchStatus Run(const ExtendedSubhypergraph& full) {
    const int n = graph_.num_edges();

    std::vector<int> lambda_root;
    for (const util::SubsetChunk& chunk : util::MakeSubsetChunks(n, k_, n)) {
      util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
      while (enumerator.Next()) {
        if (ShouldStop(options_)) return SearchStatus::kStopped;
        stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
        lambda_root.assign(enumerator.indices().begin(), enumerator.indices().end());
        util::DynamicBitset root_union = graph_.UnionOfEdges(lambda_root);
        ComponentSplit split = SplitComponents(graph_, registry_, full, root_union);
        bool all_ok = true;
        for (size_t i = 0; i < split.components.size(); ++i) {
          util::DynamicBitset conn = split.component_vertices[i] & root_union;
          SearchStatus sub = Decomp(split.components[i], conn, 1);
          if (sub == SearchStatus::kStopped) return sub;
          if (sub == SearchStatus::kNotFound) {
            all_ok = false;
            break;  // reject this root
          }
        }
        if (all_ok) return SearchStatus::kFound;
      }
    }
    return SearchStatus::kNotFound;  // exhausted search space
  }

 private:
  // Function Decomp, lines 11-40.
  SearchStatus Decomp(const ExtendedSubhypergraph& comp,
                      const util::DynamicBitset& conn, int depth) {
    stats_.recursive_calls.fetch_add(1, std::memory_order_relaxed);
    stats_.UpdateMaxDepth(depth);
    if (ShouldStop(options_)) return SearchStatus::kStopped;
    // Base cases, lines 12-15.
    if (comp.edge_count <= k_ && comp.specials.empty()) return SearchStatus::kFound;
    if (comp.edge_count == 0 && comp.specials.size() == 1) return SearchStatus::kFound;

    // Cross-instance subproblem store — consume-only. Either polarity is a
    // genuine fact about fragment existence, and Algorithm 1's correctness
    // only needs its sub-answers to mean exactly that. Its own exhaustion is
    // NOT inserted: the algorithm as printed searches a normal-form-
    // restricted space, so "basic found nothing" is weaker than "no
    // fragment exists" (see service/subproblem_store.h). Algorithm 1 has no
    // allowed-set either — its λ candidates range over all of E(H).
    if (service::SubproblemStore* store = options_.subproblem_store;
        store != nullptr && store->ShouldProbe(comp)) {
      service::SubproblemStore::Key store_key = service::SubproblemStore::MakeKey(
          graph_, registry_, comp, conn, all_edges_, k_);
      switch (store->Lookup(store_key, graph_, /*fragment=*/nullptr)) {
        case service::SubproblemStore::Hit::kNegative:
          stats_.store_negative_hits.fetch_add(1, std::memory_order_relaxed);
          return SearchStatus::kNotFound;
        case service::SubproblemStore::Hit::kPositive:
          stats_.store_positive_hits.fetch_add(1, std::memory_order_relaxed);
          return SearchStatus::kFound;
        case service::SubproblemStore::Hit::kMiss:
          break;
      }
    }

    const int total = comp.size();
    const util::DynamicBitset comp_vertices = VerticesOf(graph_, registry_, comp);
    // λ candidates range over all of H in Algorithm 1; edges not touching the
    // component are useless in every check, so we restrict to those (a pure
    // pruning that does not change the explored outcomes).
    std::vector<int> candidates;
    for (int e = 0; e < graph_.num_edges(); ++e) {
      if (graph_.edge_vertices(e).Intersects(comp_vertices)) candidates.push_back(e);
    }
    const int n = static_cast<int>(candidates.size());

    std::vector<int> lambda_parent, lambda_child;
    // ParentLoop, lines 16-23.
    for (const util::SubsetChunk& pchunk : util::MakeSubsetChunks(n, k_, n)) {
      util::FixedFirstEnumerator parent_enum(n, pchunk.size, pchunk.first);
      while (parent_enum.Next()) {
        if (ShouldStop(options_)) return SearchStatus::kStopped;
        stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
        lambda_parent.clear();
        for (int idx : parent_enum.indices()) lambda_parent.push_back(candidates[idx]);
        util::DynamicBitset parent_union = graph_.UnionOfEdges(lambda_parent);
        ComponentSplit parent_split =
            SplitComponents(graph_, registry_, comp, parent_union);
        int down = parent_split.FindOversized(total);
        if (down < 0) continue;  // line 21
        const ExtendedSubhypergraph& comp_down = parent_split.components[down];
        const util::DynamicBitset& down_vertices = parent_split.component_vertices[down];
        if (!(down_vertices & conn).IsSubsetOf(parent_union)) continue;  // line 22

        // ChildLoop, lines 24-39.
        for (const util::SubsetChunk& cchunk : util::MakeSubsetChunks(n, k_, n)) {
          util::FixedFirstEnumerator child_enum(n, cchunk.size, cchunk.first);
          while (child_enum.Next()) {
            if (ShouldStop(options_)) return SearchStatus::kStopped;
            stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
            lambda_child.clear();
            for (int idx : child_enum.indices()) lambda_child.push_back(candidates[idx]);
            util::DynamicBitset child_union = graph_.UnionOfEdges(lambda_child);
            util::DynamicBitset chi_child = child_union & down_vertices;  // line 25
            if (!(down_vertices & parent_union).IsSubsetOf(chi_child)) continue;
            ComponentSplit down_split =
                SplitComponents(graph_, registry_, comp_down, chi_child);  // line 28
            if (down_split.MaxComponentSize() * 2 > total) continue;       // line 29

            bool children_ok = true;
            for (size_t i = 0; i < down_split.components.size(); ++i) {
              util::DynamicBitset sub_conn =
                  down_split.component_vertices[i] & chi_child;
              SearchStatus sub = Decomp(down_split.components[i], sub_conn, depth + 1);
              if (sub == SearchStatus::kStopped) return sub;
              if (sub == SearchStatus::kNotFound) {
                children_ok = false;
                break;  // line 34: reject child
              }
            }
            if (!children_ok) continue;
            if (chi_child.None()) continue;  // cannot form a special edge

            ExtendedSubhypergraph comp_up;  // lines 35-36
            comp_up.edges = comp.edges - comp_down.edges;
            comp_up.edge_count = comp.edge_count - comp_down.edge_count;
            for (int s : comp.specials) {
              if (std::find(comp_down.specials.begin(), comp_down.specials.end(), s) ==
                  comp_down.specials.end()) {
                comp_up.specials.push_back(s);
              }
            }
            comp_up.specials.push_back(registry_.Add(chi_child, lambda_child));

            SearchStatus up = Decomp(comp_up, conn, depth + 1);  // line 37
            if (up == SearchStatus::kStopped) return up;
            if (up == SearchStatus::kNotFound) continue;  // line 38: reject child
            return SearchStatus::kFound;                // line 39
          }
        }
      }
    }
    return SearchStatus::kNotFound;  // line 40: exhausted search space
  }

  const Hypergraph& graph_;
  SpecialEdgeRegistry& registry_;
  const int k_;
  const SolveOptions& options_;
  StatsCounters& stats_;
  const util::DynamicBitset all_edges_;
};

}  // namespace

SolveResult LogKDecompBasic::Solve(const Hypergraph& graph, int k) {
  return SolveInFrame(graph, k, options_, Witness::kNone,
                      [](SearchFrame& frame, const ExtendedSubhypergraph& full,
                         const util::DynamicBitset&) {
                        return SearchOutcome{BasicEngine(frame).Run(full), {}};
                      });
}

}  // namespace htd
