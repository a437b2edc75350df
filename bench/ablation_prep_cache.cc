// Ablation bench (no direct paper counterpart; DESIGN.md §3 design choices):
//
//  A. Preprocessing — the width-preserving reductions (subsumed edges, twin
//     vertices, component split) every production HD system applies. We run
//     the optimal-width protocol with and without the PreprocessingSolver
//     wrapper for both log-k-decomp and det-k-decomp.
//
//  B. Negative subproblem memo — det-k-decomp's signature trick, which the
//     paper singles out as the reason det-k parallelises badly (§1). det-k
//     always consults the solve's memo (core/negative_cache.h); here we let
//     log-k-decomp's levels consult it too and measure what it buys on
//     refutation-heavy workloads.
//
// Expected shape: preprocessing never changes widths and only shrinks the
// search (large wins exactly where instances carry redundancy); the memo
// cuts separator work on hard negatives.
#include <algorithm>
#include <cstdlib>
#include <chrono>

#include "bench_common.h"
#include "hypergraph/generators.h"
#include "prep/prep_solver.h"
#include "util/cancel.h"

namespace htd::bench {
namespace {

SolverFactory PreppedFactory(SolverFactory inner) {
  return [inner](const SolveOptions& options) -> std::unique_ptr<HdSolver> {
    return MakePreprocessingSolver(inner(options));
  };
}


int Main() {
  RunConfig config = RunConfig::FromEnv();
  CorpusConfig corpus_config;
  corpus_config.scale = CorpusScaleFromEnv();
  std::vector<Instance> corpus = BuildHyperBenchLikeCorpus(corpus_config);
  PrintPreamble("Ablation: preprocessing and negative cache", config,
                corpus.size());

  // -------------------------------------------------------------- Part A
  // Preprocessing on the mid/large corpus slice (small instances finish in
  // microseconds either way).
  std::vector<int> selected;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].graph.num_edges() > 20) selected.push_back(static_cast<int>(i));
  }
  std::printf("Part A: preprocessing ablation (%zu instances with |E| > 20)\n",
              selected.size());

  struct Variant {
    std::string name;
    SolverFactory factory;
  };
  std::vector<Variant> variants = {
      {"log-k raw", LogKFactory()},
      {"log-k + prep", PreppedFactory(LogKFactory())},
      {"det-k raw", DetKFactory()},
      {"det-k + prep", PreppedFactory(DetKFactory())},
  };

  TextTable table_a;
  table_a.AddRow({"variant", "solved", "avg ms", "max ms"});
  for (const Variant& variant : variants) {
    int solved = 0;
    util::RunningStats stats;
    for (int index : selected) {
      RunRecord record =
          RunOptimalWithTimeout(variant.factory, corpus[index].graph, config);
      if (record.solved) {
        ++solved;
        stats.Add(record.seconds * 1000.0);
      }
    }
    table_a.AddRow({variant.name, std::to_string(solved),
                    Fmt1(stats.Mean()), Fmt1(stats.Max())});
  }
  std::printf("%s", table_a.Render().c_str());

  // Part A2: the same slice with HyperBench-style redundancy injected
  // (projection atoms + payload columns). The corpus generators emit
  // already-reduced hypergraphs, so this is where preprocessing shows the
  // effect it has on raw real-world CQ sets.
  std::printf("\nPart A2: same slice with injected redundancy "
              "(+33%% projection atoms, +4 payload columns)\n");
  std::vector<Hypergraph> redundant;
  for (int index : selected) {
    util::Rng inject_rng(1000 + index);
    redundant.push_back(AddRedundancy(corpus[index].graph, inject_rng,
                                      corpus[index].graph.num_edges() / 3, 4));
  }
  TextTable table_a2;
  table_a2.AddRow({"variant", "solved", "avg ms", "max ms"});
  for (const Variant& variant : variants) {
    int solved = 0;
    util::RunningStats stats;
    for (const Hypergraph& graph : redundant) {
      RunRecord record = RunOptimalWithTimeout(variant.factory, graph, config);
      if (record.solved) {
        ++solved;
        stats.Add(record.seconds * 1000.0);
      }
    }
    table_a2.AddRow({variant.name, std::to_string(solved),
                     Fmt1(stats.Mean()), Fmt1(stats.Max())});
  }
  std::printf("%s", table_a2.Render().c_str());

  // -------------------------------------------------------------- Part B
  // Negative cache on refutation-heavy instances: decide hw <= k for a k
  // strictly below the optimum, so the full search space is exhausted.
  std::printf("\nPart B: negative-cache ablation on hard refutations\n");
  struct Negative {
    std::string name;
    Hypergraph graph;
    int k;
  };
  util::Rng rng(20220412);
  std::vector<Negative> negatives;
  // K5 at k=2 is the canonical deep refutation (balanced separators exist,
  // so the search recurses and revisits subproblems). Bigger cliques at
  // small k refute instantly — no balanced separator — so K7 is a cheap
  // sanity row, not a stress row.
  negatives.push_back({"clique K5, k=2", MakeClique(5), 2});
  negatives.push_back({"clique K7, k=2", MakeClique(7), 2});
  negatives.push_back({"grid 3x4, k=1", MakeGrid(3, 4), 1});
  negatives.push_back(
      {"dense CSP, k=2", MakeRandomCsp(rng, 16, 12, 3, 5), 2});

  struct CacheVariant {
    const char* name;
    bool enabled;
  };
  const CacheVariant cache_variants[] = {{"plain", false}, {"cached", true}};
  TextTable table_b;
  table_b.AddRow({"instance", "variant", "outcome", "separators", "cache hits",
                  "ms"});
  for (const Negative& negative : negatives) {
    for (const CacheVariant& variant : cache_variants) {
      util::CancelToken deadline;
      deadline.SetTimeout(std::chrono::duration<double>(
          std::max(config.timeout_seconds, 1.0)));
      SolveOptions options;
      options.enable_cache = variant.enabled;
      options.cancel = &deadline;
      LogKDecomp solver(options);
      SolveResult result = solver.Solve(negative.graph, negative.k);
      const char* outcome = result.outcome == Outcome::kNo    ? "no"
                            : result.outcome == Outcome::kYes ? "yes"
                                                              : "other";
      table_b.AddRow({negative.name, variant.name, outcome,
                      std::to_string(result.stats.separators_tried),
                      std::to_string(result.stats.cache_hits),
                      Fmt1(result.stats.seconds * 1000.0)});
    }
  }
  std::printf("%s", table_b.Render().c_str());
  std::printf(
      "\nReading: the memo trims exhaustive refutations (same outcome, fewer\n"
      "separators); the paper's design point keeps log-k memo-free, and no\n"
      "served path turns it on for log-k levels. det-k consults it always,\n"
      "including as the hybrid's leaf solver. The follow-up ablation,\n"
      "bench/ablation_shared_memo.cc, measures the cross-instance version of\n"
      "the same idea: subproblem outcomes shared across runs.\n");
  return 0;
}

}  // namespace
}  // namespace htd::bench

int main() { return htd::bench::Main(); }
