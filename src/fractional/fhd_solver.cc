#include "fractional/fhd_solver.h"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/search_types.h"
#include "decomp/components.h"
#include "decomp/fragment.h"
#include "decomp/special_edges.h"
#include "decomp/validation.h"
#include "fractional/cover.h"
#include "util/combinations.h"
#include "util/timer.h"

namespace htd::fractional {
namespace {

constexpr double kWidthTolerance = 1e-7;

class FhdEngine {
 public:
  FhdEngine(const Hypergraph& graph, double width, int max_lambda,
            const SolveOptions& options, StatsCounters& stats)
      : graph_(graph),
        registry_(graph.num_vertices()),
        width_(width),
        max_lambda_(max_lambda),
        options_(options),
        stats_(stats) {}

  SearchStatus Decompose(const ExtendedSubhypergraph& comp,
                      const util::DynamicBitset& conn, int depth,
                      Fragment& fragment, int parent_node) {
    stats_.recursive_calls.fetch_add(1, std::memory_order_relaxed);
    stats_.UpdateMaxDepth(depth);
    if (ShouldStop(options_)) return SearchStatus::kStopped;

    const util::DynamicBitset vertices = VerticesOf(graph_, registry_, comp);

    // Base case: the whole component as one bag, if the LP allows it. This
    // needs no λ bound — the bag is V(comp), covered fractionally.
    if (CachedRho(vertices) <= width_ + kWidthTolerance) {
      int node = fragment.AddNode(comp.edges.ToVector(), vertices);
      Attach(fragment, node, parent_node);
      return SearchStatus::kFound;
    }

    const int total = comp.size();
    std::vector<int> candidates;
    comp.edges.ForEach([&](int e) { candidates.push_back(e); });
    const int num_own = static_cast<int>(candidates.size());
    for (int e = 0; e < graph_.num_edges(); ++e) {
      if (!comp.edges.Test(e) && graph_.edge_vertices(e).Intersects(vertices)) {
        candidates.push_back(e);
      }
    }
    const int n = static_cast<int>(candidates.size());

    // Pass 1: balanced separators (logarithmic recursion); pass 2: any
    // separator covering Conn with at least one component edge (progress
    // guarantees termination) — same discipline as the GHD stand-in.
    for (bool require_balanced : {true, false}) {
      const int first_limit = require_balanced ? n : num_own;
      std::vector<int> lambda;
      for (const util::SubsetChunk& chunk :
           util::MakeSubsetChunks(n, max_lambda_, first_limit)) {
        util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
        while (enumerator.Next()) {
          if (ShouldStop(options_)) return SearchStatus::kStopped;
          stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
          lambda.clear();
          for (int idx : enumerator.indices()) lambda.push_back(candidates[idx]);
          util::DynamicBitset lambda_union = graph_.UnionOfEdges(lambda);
          if (!conn.IsSubsetOf(lambda_union)) continue;

          util::DynamicBitset chi = lambda_union & vertices;
          // The fractional feasibility test replacing |λ| ≤ k. The λ-set
          // only *shapes* the bag; the LP may cover it with other edges at
          // fractional weights.
          if (CachedRho(chi) > width_ + kWidthTolerance) continue;

          ComponentSplit split = SplitComponents(graph_, registry_, comp, chi);
          if (require_balanced && split.MaxComponentSize() * 2 > total) continue;

          const int checkpoint = fragment.num_nodes();
          int node = fragment.AddNode(lambda, chi);
          bool ok = true;
          for (size_t i = 0; i < split.components.size() && ok; ++i) {
            util::DynamicBitset child_conn = split.component_vertices[i] & chi;
            SearchStatus sub = Decompose(split.components[i], child_conn, depth + 1,
                                      fragment, node);
            if (sub == SearchStatus::kStopped) return sub;
            if (sub == SearchStatus::kNotFound) ok = false;
          }
          if (!ok) {
            fragment.TruncateTo(checkpoint);
            continue;
          }
          Attach(fragment, node, parent_node);
          return SearchStatus::kFound;
        }
      }
    }
    return SearchStatus::kNotFound;
  }

 private:
  static void Attach(Fragment& fragment, int node, int parent_node) {
    if (parent_node >= 0) {
      fragment.AddChild(parent_node, node);
    } else {
      fragment.SetRoot(node);
    }
  }

  /// ρ*(S) with memoisation: identical bags recur across branches and the
  /// simplex is the expensive step here.
  double CachedRho(const util::DynamicBitset& vertex_set) {
    auto it = rho_cache_.find(vertex_set);
    if (it != rho_cache_.end()) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    double rho = FractionalCoverWeight(graph_, vertex_set);
    rho_cache_.emplace(vertex_set, rho);
    return rho;
  }

  const Hypergraph& graph_;
  SpecialEdgeRegistry registry_;
  const double width_;
  const int max_lambda_;
  const SolveOptions& options_;
  StatsCounters& stats_;
  std::unordered_map<util::DynamicBitset, double, util::DynamicBitsetHash>
      rho_cache_;
};

}  // namespace

FhdResult FhdSolver::Solve(const Hypergraph& graph, double width) {
  HTD_CHECK_GE(width, 1.0) << "fractional width below 1 is impossible";
  util::WallTimer timer;
  FhdResult result;
  if (graph.num_edges() == 0) {
    result.outcome = Outcome::kYes;
    result.decomposition = Decomposition();
    result.fractional_width = 0.0;
    return result;
  }

  int max_lambda = options_.max_lambda;
  if (max_lambda <= 0) {
    max_lambda = std::max(2, static_cast<int>(std::ceil(2.0 * width)));
  }

  StatsCounters counters;
  FhdEngine engine(graph, width, max_lambda, options_.base, counters);
  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(graph);
  util::DynamicBitset empty_conn(graph.num_vertices());
  Fragment fragment;
  SearchStatus status =
      engine.Decompose(full, empty_conn, 0, fragment, /*parent_node=*/-1);

  result.stats = counters.Snapshot();
  result.stats.seconds = timer.ElapsedSeconds();
  switch (status) {
    case SearchStatus::kStopped:
      result.outcome = Outcome::kCancelled;
      break;
    case SearchStatus::kNotFound:
      result.outcome = Outcome::kNo;  // relative to the bag family, see header
      break;
    case SearchStatus::kFound: {
      result.outcome = Outcome::kYes;
      result.decomposition = fragment.ToDecomposition();
      result.fractional_width = FractionalWidth(graph, *result.decomposition);
      if (options_.base.validate_result) {
        Validation validation = ValidateGhd(graph, *result.decomposition);
        if (!validation.ok || result.fractional_width > width + 1e-6) {
          result.outcome = Outcome::kError;
          result.decomposition.reset();
        }
      }
      break;
    }
  }
  return result;
}

}  // namespace htd::fractional
