#include "baselines/opt_solver.h"

#include <functional>
#include <vector>

#include "core/log_k_decomp.h"
#include "decomp/validation.h"
#include "hypergraph/gyo.h"
#include "util/timer.h"

namespace htd {
namespace {

// Builds the width-1 HD induced by a join tree: node u has λ = {edge u},
// χ = vertices(edge u); tree shape follows the join-tree parents.
Decomposition JoinTreeToHd(const Hypergraph& graph, const JoinTree& tree) {
  Decomposition decomp;
  int m = graph.num_edges();
  // The join tree's parent[] may form a forest over absorbed edges; pick the
  // unique edge without parent as root and attach any stray roots below it
  // (their vertex sets are subsets of some other edge, so connectedness and
  // the special condition are preserved by attaching them to that edge).
  std::vector<std::vector<int>> children(m);
  int root = -1;
  for (int e = 0; e < m; ++e) {
    if (tree.parent[e] == -1) {
      root = e;
    } else {
      children[tree.parent[e]].push_back(e);
    }
  }
  HTD_CHECK_GE(root, 0);
  std::vector<int> node_of(m, -1);
  std::function<void(int, int)> visit = [&](int e, int parent_node) {
    node_of[e] = decomp.AddNode({e}, graph.edge_vertices(e), parent_node);
    for (int c : children[e]) visit(c, node_of[e]);
  };
  visit(root, -1);
  // Any second GYO root (possible when the reduction ends with an edge whose
  // set became empty) hangs under the main root.
  for (int e = 0; e < m; ++e) {
    if (node_of[e] == -1 && tree.parent[e] == -1) {
      visit(e, node_of[root]);
    }
  }
  return decomp;
}

}  // namespace

OptimalSolver::OptimalSolver(SolveOptions options) : options_(std::move(options)) {
  // HtdLEO profile: strictly sequential, but the strongest single-core
  // search available (balanced separators with an eager det-k switch).
  options_.num_threads = 1;
  options_.hybrid_metric = HybridMetric::kWeightedCount;
  options_.hybrid_threshold = 60.0;
}

OptimalRun OptimalSolver::FindOptimal(const Hypergraph& graph, int max_k) {
  util::WallTimer timer;
  OptimalRun run;
  if (graph.num_edges() == 0) {
    run.outcome = Outcome::kYes;
    run.width = 0;
    run.decomposition = Decomposition();
    run.seconds = timer.ElapsedSeconds();
    return run;
  }
  // Width-1 fast path: alpha-acyclicity.
  if (auto tree = BuildJoinTree(graph); tree.has_value()) {
    run.outcome = Outcome::kYes;
    run.width = 1;
    run.decomposition = JoinTreeToHd(graph, *tree);
    run.seconds = timer.ElapsedSeconds();
    return run;
  }
  // Iterative deepening from 2 (acyclicity just failed, so hw >= 2).
  LogKDecomp solver(options_);
  for (int k = 2; k <= max_k; ++k) {
    SolveResult result = solver.Solve(graph, k);
    run.stats.Add(result.stats);
    if (result.outcome == Outcome::kYes) {
      run.outcome = Outcome::kYes;
      run.width = k;
      run.decomposition = std::move(result.decomposition);
      run.seconds = timer.ElapsedSeconds();
      return run;
    }
    if (result.outcome != Outcome::kNo) {
      run.outcome = result.outcome;
      run.seconds = timer.ElapsedSeconds();
      return run;
    }
  }
  run.outcome = Outcome::kNo;
  run.seconds = timer.ElapsedSeconds();
  return run;
}

}  // namespace htd
