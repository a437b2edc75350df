// Shared helpers for the per-table benchmark harnesses.
//
// Every harness reads its protocol knobs from the environment so the same
// binaries scale from CI smoke run to full study:
//   HTD_BENCH_TIMEOUT   per-instance timeout in seconds (default varies)
//   HTD_BENCH_SCALE     corpus replication factor (default 1)
//   HTD_BENCH_THREADS   worker threads for parallel solvers (default 4)
//   HTD_BENCH_MAX_WIDTH widest k probed (default 10, as in the paper)
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/det_k_decomp.h"
#include "benchlib/corpus.h"
#include "benchlib/runner.h"
#include "benchlib/table.h"
#include "core/hybrid.h"
#include "core/log_k_decomp.h"
#include "util/stats.h"

namespace htd::bench {

inline SolverFactory DetKFactory() {
  return [](const SolveOptions& options) -> std::unique_ptr<HdSolver> {
    return std::make_unique<DetKDecomp>(options);
  };
}

inline SolverFactory LogKFactory() {
  return [](const SolveOptions& options) -> std::unique_ptr<HdSolver> {
    return std::make_unique<LogKDecomp>(options);
  };
}

inline SolverFactory HybridFactory(
    HybridMetric metric = HybridMetric::kWeightedCount,
    double threshold = kDefaultWeightedCountThreshold) {
  return [metric, threshold](const SolveOptions& options) -> std::unique_ptr<HdSolver> {
    return MakeHybridSolver(metric, threshold, options);
  };
}

/// Per-instance outcome of an optimal-width campaign for one method.
struct Campaign {
  std::string method;
  std::vector<RunRecord> records;  // index-aligned with the corpus

  int SolvedCount() const {
    int count = 0;
    for (const auto& r : records) count += r.solved ? 1 : 0;
    return count;
  }
};

/// Runs the paper's optimal-width protocol over the whole corpus.
inline Campaign RunCampaign(const std::string& method, const SolverFactory& factory,
                            const std::vector<Instance>& corpus,
                            const RunConfig& config) {
  Campaign campaign;
  campaign.method = method;
  campaign.records.reserve(corpus.size());
  for (const Instance& instance : corpus) {
    campaign.records.push_back(RunOptimalWithTimeout(factory, instance.graph, config));
  }
  return campaign;
}

/// Exact-solver (HtdLEO stand-in) campaign.
inline Campaign RunExactCampaign(const std::vector<Instance>& corpus,
                                 const RunConfig& config) {
  Campaign campaign;
  campaign.method = "opt-exact";
  campaign.records.reserve(corpus.size());
  for (const Instance& instance : corpus) {
    campaign.records.push_back(RunExactWithTimeout(instance.graph, config));
  }
  return campaign;
}

inline void PrintPreamble(const char* title, const RunConfig& config,
                          size_t corpus_size) {
  std::printf("=== %s ===\n", title);
  std::printf(
      "corpus: %zu instances (HyperBench-like synthetic stand-in, see "
      "docs/ARCHITECTURE.md)\n",
      corpus_size);
  std::printf("timeout: %.2fs/instance, max width %d, %d thread(s)\n\n",
              config.timeout_seconds, config.max_width, config.num_threads);
}

}  // namespace htd::bench
