#include "core/solver.h"

#include <algorithm>
#include <optional>

#include "core/search_types.h"
#include "decomp/validation.h"
#include "service/subproblem_store.h"
#include "util/logging.h"
#include "util/timer.h"

namespace htd {

void SolveStats::Add(const SolveStats& other) {
  separators_tried += other.separators_tried;
  recursive_calls += other.recursive_calls;
  max_recursion_depth = std::max(max_recursion_depth, other.max_recursion_depth);
  cache_hits += other.cache_hits;
  detk_subproblems += other.detk_subproblems;
  store_negative_hits += other.store_negative_hits;
  store_positive_hits += other.store_positive_hits;
  work_total += other.work_total;
  work_parallel += other.work_parallel;
  seconds += other.seconds;
}

int ListCandidates(const Hypergraph& graph, const ExtendedSubhypergraph& comp,
                   const util::DynamicBitset& vertices,
                   const util::DynamicBitset& allowed, std::vector<int>& out) {
  allowed.ForEach([&](int e) {
    if (comp.edges.Test(e)) out.push_back(e);
  });
  const int num_new = static_cast<int>(out.size());
  allowed.ForEach([&](int e) {
    if (!comp.edges.Test(e) && graph.edge_vertices(e).Intersects(vertices)) {
      out.push_back(e);
    }
  });
  return num_new;
}

SearchFrame::SearchFrame(const Hypergraph& graph, int k, const SolveOptions& options)
    : graph(graph), k(k), options(options), registry(graph.num_vertices()) {
  HTD_CHECK_GE(k, 1);
}

bool SearchFrame::Enter(int depth) {
  stats.recursive_calls.fetch_add(1, std::memory_order_relaxed);
  stats.UpdateMaxDepth(depth);
  return !ShouldStop(options);
}

SearchOutcome SearchFrame::Decompose(const ExtendedSubhypergraph& comp,
                                     const util::DynamicBitset& conn,
                                     const util::DynamicBitset& allowed, int depth,
                                     bool use_memo, const SeparatorSearch& search) {
  if (!Enter(depth)) return SearchOutcome::Stopped();
  Subproblem sub{comp, conn, allowed, depth, VerticesOf(graph, registry, comp), {}, 0};

  // Base cases (Algorithm 2, lines 5-10): few enough edges and no special
  // edge fit under one node; a lone special edge becomes a leaf; with no
  // edges left, no λ-label can separate two or more special edges (App. C).
  if (comp.edge_count <= k && comp.specials.empty()) {
    std::vector<int> lambda = comp.edges.ToVector();
    // Empty only for an empty input hypergraph.
    if (lambda.empty()) return SearchOutcome::Found(Fragment());
    Fragment fragment;
    fragment.SetRoot(fragment.AddNode(std::move(lambda), sub.vertices));
    return SearchOutcome::Found(std::move(fragment));
  }
  if (comp.edge_count == 0 && comp.specials.size() == 1) {
    Fragment fragment;
    const int special = comp.specials[0];
    fragment.SetRoot(fragment.AddSpecialLeaf(special, registry.vertices(special)));
    return SearchOutcome::Found(std::move(fragment));
  }
  if (comp.edge_count == 0) return SearchOutcome::NotFound();

  // A recorded failure with an allowed set ⊇ ours dominates this search
  // (soundness argument in core/negative_cache.h).
  if (use_memo && memo.ContainsDominating(comp, conn, allowed)) {
    stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return SearchOutcome::NotFound();
  }

  // Cross-instance store: log-k and det-k decide the same predicate, so they
  // share entries both ways; the key is kept for the insert after the search
  // (service/subproblem_store.h).
  service::SubproblemStore* store = options.subproblem_store;
  std::optional<service::SubproblemStore::Key> store_key;
  if (store != nullptr && store->ShouldProbe(comp)) {
    store_key = service::SubproblemStore::MakeKey(graph, registry, comp, conn,
                                                  allowed, k);
    Fragment reusable;
    switch (store->Lookup(*store_key, graph, &reusable)) {
      case service::SubproblemStore::Hit::kNegative:
        stats.store_negative_hits.fetch_add(1, std::memory_order_relaxed);
        // Mirrored into the memo: revisits then answer from a local hash
        // probe instead of re-canonicalising.
        if (use_memo) memo.Insert(comp, conn, allowed);
        return SearchOutcome::NotFound();
      case service::SubproblemStore::Hit::kPositive:
        stats.store_positive_hits.fetch_add(1, std::memory_order_relaxed);
        return SearchOutcome::Found(std::move(reusable));
      case service::SubproblemStore::Hit::kMiss:
        break;
    }
  }

  sub.num_new = ListCandidates(graph, comp, sub.vertices, allowed, sub.candidates);
  SearchOutcome outcome = search(sub);
  if (outcome.status == SearchStatus::kNotFound) {
    if (use_memo) memo.Insert(comp, conn, allowed);
    if (store_key.has_value()) store->InsertNegative(*store_key);
  } else if (outcome.status == SearchStatus::kFound && store_key.has_value()) {
    store->InsertPositive(*store_key, graph, outcome.fragment);
  }
  return outcome;
}

SolveResult SolveInFrame(const Hypergraph& graph, int k,
                         const SolveOptions& options, Witness witness,
                         const RootSearch& search) {
  util::WallTimer timer;
  SolveResult result;
  if (graph.num_edges() == 0) {
    // The empty hypergraph has the empty HD (width 0).
    result.outcome = Outcome::kYes;
    if (witness != Witness::kNone) result.decomposition = Decomposition();
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }
  SearchFrame frame(graph, k, options);
  SearchOutcome outcome = search(frame, ExtendedSubhypergraph::FullGraph(graph),
                                 util::DynamicBitset(graph.num_vertices()));
  result.stats = frame.stats.Snapshot();
  result.stats.seconds = timer.ElapsedSeconds();
  switch (outcome.status) {
    case SearchStatus::kStopped:
      result.outcome = Outcome::kCancelled;
      break;
    case SearchStatus::kNotFound:
      result.outcome = Outcome::kNo;
      break;
    case SearchStatus::kFound: {
      result.outcome = Outcome::kYes;
      if (witness == Witness::kNone) break;
      result.decomposition = outcome.fragment.ToDecomposition();
      if (!options.validate_result) break;
      const bool valid =
          witness == Witness::kHd
              ? ValidateHdWithWidth(graph, *result.decomposition, k).ok
              : ValidateGhd(graph, *result.decomposition).ok &&
                    result.decomposition->Width() <= k;
      if (!valid) {
        result.outcome = Outcome::kError;
        result.decomposition.reset();
      }
      break;
    }
  }
  return result;
}

OptimalRun FindOptimalWidth(HdSolver& solver, const Hypergraph& graph, int max_k) {
  util::WallTimer timer;
  OptimalRun run;
  for (int k = 1; k <= max_k; ++k) {
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
      run.outcome = result.outcome;  // cancelled or error
      run.seconds = timer.ElapsedSeconds();
      return run;
    }
  }
  run.outcome = Outcome::kNo;  // width exceeds max_k
  run.seconds = timer.ElapsedSeconds();
  return run;
}

}  // namespace htd
