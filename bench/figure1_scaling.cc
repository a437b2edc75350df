// Figure 1: parallel scaling of log-k-decomp (plain and hybrid) over the
// HB_large analogue (instances with |E| > 50 and hw <= 6), with the
// single-core NewDetKDecomp as reference.
//
// The paper measures wall-clock time on 1..5 cores of a 12-core Xeon (§5.2).
// Here every method solves each selected instance once per width, with the
// width as SolveOptions::num_threads on the global executor's worker
// threads, and the table reports the mean wall-clock time and the speedup
// over width 1. Widths run from 1 to the executor's worker count, at most 6:
// past it, more slot tasks only queue on the same cores.
#include <algorithm>

#include "bench_common.h"
#include "util/executor.h"

namespace htd::bench {
namespace {

int Main() {
  RunConfig config = RunConfig::FromEnv();
  CorpusConfig corpus_config;
  corpus_config.scale = CorpusScaleFromEnv();
  std::vector<Instance> corpus = BuildHyperBenchLikeCorpus(corpus_config);
  PrintPreamble("Figure 1: scaling with the number of cores (HB_large)", config,
                corpus.size());

  // Pre-pass: determine widths (hybrid, sequential) to select HB_large.
  std::vector<int> widths(corpus.size(), -1);
  {
    RunConfig prepass = config;
    prepass.num_threads = 1;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (corpus[i].graph.num_edges() <= 50) continue;
      RunRecord record =
          RunOptimalWithTimeout(HybridFactory(), corpus[i].graph, prepass);
      if (record.solved) widths[i] = record.width;
    }
  }
  std::vector<int> selected = SelectLargeSubset(corpus, widths);
  std::printf("HB_large analogue: %zu instances (|E| > 50, hw <= 6):\n",
              selected.size());
  for (size_t s = 0; s < selected.size(); ++s) {
    std::printf("%s%s", s == 0 ? "  " : ", ", corpus[selected[s]].name.c_str());
  }
  const int workers = util::Executor::Global().num_workers();
  const int max_threads = std::min(6, workers);
  std::printf("\nexecutor workers: %d, widths 1..%d\n\n", workers, max_threads);

  struct MethodSpec {
    const char* name;
    SolverFactory factory;
  };
  const std::vector<MethodSpec> methods = {
      {"log-k", LogKFactory()},
      {"log-k (Hybrid)", HybridFactory()},
  };

  TextTable table;
  table.AddRow({"method", "cores", "avg wall (ms)", "speedup", "timeouts"});
  for (const MethodSpec& method : methods) {
    // The paper averages only over instances that never time out for any n.
    std::vector<bool> always_solved(selected.size(), true);
    std::vector<std::vector<double>> wall_per_inst(
        selected.size(), std::vector<double>(max_threads + 1, 0.0));
    std::vector<int> timeouts(max_threads + 1, 0);

    for (int threads = 1; threads <= max_threads; ++threads) {
      RunConfig run_config = config;
      run_config.num_threads = threads;
      for (size_t s = 0; s < selected.size(); ++s) {
        RunRecord record = RunOptimalWithTimeout(
            method.factory, corpus[selected[s]].graph, run_config);
        if (!record.solved) {
          always_solved[s] = false;
          ++timeouts[threads];
          continue;
        }
        wall_per_inst[s][threads] = record.seconds;
      }
    }
    std::printf("%s: means over the %zu of %zu instances solved at every width\n",
                method.name,
                static_cast<size_t>(std::count(always_solved.begin(),
                                               always_solved.end(), true)),
                selected.size());
    double base_wall = 0.0;
    for (int threads = 1; threads <= max_threads; ++threads) {
      util::RunningStats wall_stats;
      for (size_t s = 0; s < selected.size(); ++s) {
        if (always_solved[s]) wall_stats.Add(wall_per_inst[s][threads]);
      }
      if (threads == 1) base_wall = wall_stats.Mean();
      double speedup = wall_stats.Mean() > 0 ? base_wall / wall_stats.Mean() : 1.0;
      table.AddRow({method.name, std::to_string(threads),
                    Fmt1(wall_stats.Mean() * 1000), Fmt1(speedup) + "x",
                    std::to_string(timeouts[threads])});
    }
  }

  // Reference: single-core NewDetKDecomp on the same subset.
  {
    RunConfig sequential = config;
    sequential.num_threads = 1;
    util::RunningStats stats;
    int timeouts = 0;
    for (int index : selected) {
      RunRecord record =
          RunOptimalWithTimeout(DetKFactory(), corpus[index].graph, sequential);
      if (record.solved) {
        stats.Add(record.seconds);
      } else {
        ++timeouts;
      }
    }
    table.AddRow({"NewDetKDecomp", "1", Fmt1(stats.Mean() * 1000), "1.0x",
                  std::to_string(timeouts)});
  }
  std::printf("\n%s\n", table.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace htd::bench

int main() { return htd::bench::Main(); }
