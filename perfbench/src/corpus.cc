// solve-corpus: the paper's Table 1 / Figure 1 protocol in-process.
//
// One caller runs a closed loop over the HyperBench-like corpus. For each
// instance it calls DecompositionService::Submit for k = 1, 2, ... until
// the answer is yes, under one per-instance deadline. Every pass uses a fresh
// cold service (solver logk, solve.num_threads = 0) on a private executor
// with one worker per core — hdserver's defaults — so the result cache only
// takes writes. A run is a fixed number of passes over the corpus as
// generated, so every run and every commit solves the same graphs whatever
// the host's or the solver's speed, and each instance's runs repeat one
// piece of work.
//
// Output: one JSON document with per-pass, per-instance records (time,
// verdict, failure cause) and, when traced, the span file.
#include "workloads.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>

#include "benchlib/corpus.h"
#include "decomp/decomp_reader.h"
#include "decomp/decomp_writer.h"
#include "decomp/validation.h"
#include "service/service.h"
#include "util/executor.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kMaxK = 32;
constexpr double kDeadlineSeconds = 0.25;  // per instance, all its probes
constexpr int kPasses = 4;
// det-k budget per instance for the check references. At the seed the
// slowest reference found takes ~0.22 s and the fastest one missed ~0.8 s,
// so host speed does not change which instances have one.
constexpr double kReferenceBudgetSeconds = 0.5;
constexpr int kSetupsPerPoint = 5;

struct Probe {
  int k = 0;
  htd::Outcome outcome = htd::Outcome::kCancelled;
  htd::service::JobResult job;
};

struct InstanceRun {
  int index = 0;         ///< corpus instance
  int64_t op_id = 0;     ///< request id of the op's spans
  double seconds = 0.0;  ///< wall time to verdict (or to giving up)
  bool solved = false;
  int width = -1;
  std::string cause;  ///< "" = ok; else the failure cause
  std::vector<Probe> probes;
};

htd::service::ServiceOptions ServerLikeOptions(htd::util::Executor* executor) {
  htd::service::ServiceOptions options;
  options.solver_name = "logk";
  options.solve.num_threads = 0;
  options.executor = executor;
  return options;
}

/// The optimal-width protocol for one instance under one deadline.
InstanceRun RunInstance(htd::service::DecompositionService& service,
                        const htd::Hypergraph& graph, int index,
                        double deadline_seconds, SpanRecorder& spans,
                        int64_t op_id) {
  InstanceRun run;
  run.index = index;
  run.op_id = op_id;
  const double start = Now();
  const int64_t root = spans.Begin("instance", 0, op_id);
  for (int k = 1; k <= kMaxK; ++k) {
    const double remaining = deadline_seconds - (Now() - start);
    if (remaining <= 0) break;
    const int64_t span = spans.Begin("submit", root, op_id);
    Probe probe;
    probe.k = k;
    probe.job = service.Submit(graph, k, remaining).get();
    probe.outcome = probe.job.result.outcome;
    if (spans.enabled()) {
      const auto& job = probe.job;
      const auto& stats = job.result.stats;
      spans.End(span,
                "{\"k\": " + std::to_string(k) + ", \"outcome\": " +
                    std::to_string(static_cast<int>(probe.outcome)) +
                    ", \"edges\": " + std::to_string(graph.num_edges()) +
                    ", \"cache_hit\": " + (job.cache_hit ? "1" : "0") +
                    ", \"fingerprint_s\": " + JsonNum(job.stages.fingerprint_seconds) +
                    ", \"cache_s\": " + JsonNum(job.stages.cache_seconds) +
                    ", \"schedule_s\": " + JsonNum(job.stages.schedule_seconds) +
                    ", \"solve_s\": " + JsonNum(job.stages.solve_seconds) +
                    ", \"threads_used\": " + std::to_string(job.threads_used) +
                    ", \"separators\": " + std::to_string(stats.separators_tried) +
                    ", \"recursive_calls\": " + std::to_string(stats.recursive_calls) +
                    ", \"max_depth\": " + std::to_string(stats.max_recursion_depth) +
                    ", \"work_total\": " + std::to_string(stats.work_total) +
                    ", \"work_parallel\": " + std::to_string(stats.work_parallel) +
                    "}");
    }
    run.probes.push_back(std::move(probe));
    const htd::Outcome outcome = run.probes.back().outcome;
    if (outcome == htd::Outcome::kYes) {
      run.solved = true;
      run.width = k;
      break;
    }
    if (outcome != htd::Outcome::kNo) break;
  }
  run.seconds = Now() - start;
  spans.End(root, "{\"solved\": " + std::string(run.solved ? "1" : "0") + "}");
  return run;
}

/// Checks one instance run against the reference, outside the timed loop.
/// Every yes decomposition goes through the JSON writer and the strict
/// reader, then the HD validator at its k; widths and no verdicts are
/// compared with the reference width when one exists.
void CheckRun(const htd::Hypergraph& graph, const Reference& reference,
              InstanceRun& run, SpanRecorder& spans) {
  for (const Probe& probe : run.probes) {
    if (probe.outcome == htd::Outcome::kError) {
      run.cause = "solver_error";
      return;
    }
    if (probe.outcome == htd::Outcome::kNo && reference.width.has_value() &&
        probe.k >= *reference.width) {
      run.cause = "wrong_width";
      return;
    }
    if (probe.outcome != htd::Outcome::kYes) continue;
    const auto& decomp = probe.job.result.decomposition;
    if (!decomp.has_value()) {
      run.cause = "invalid_decomposition";
      return;
    }
    const double start = Now();
    const std::string json = htd::WriteDecompositionJson(graph, *decomp);
    auto parsed = htd::ParseDecompositionJson(graph, json);
    const bool valid =
        parsed.ok() && htd::ValidateHdWithWidth(graph, *parsed, probe.k).ok;
    spans.Add("validate", start, Now(), 0, run.op_id);
    if (!valid) {
      run.cause = "invalid_decomposition";
      return;
    }
    if (reference.width.has_value() && probe.k != *reference.width) {
      run.cause = "wrong_width";
      return;
    }
  }
}

std::string RunJson(const InstanceRun& run) {
  return "{\"i\": " + std::to_string(run.index) + ", \"s\": " +
         JsonNum(run.seconds) + ", \"solved\": " + (run.solved ? "1" : "0") +
         ", \"width\": " + std::to_string(run.width) + ", \"probes\": " +
         std::to_string(run.probes.size()) + ", \"cause\": " + JsonStr(run.cause) +
         "}";
}

}  // namespace

int RunCorpus(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  const int workers = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const bool traced = flags.Int("trace") != 0;
  const std::string out_path = flags.Str("out");
  const std::string spans_path = flags.Str("spans", "");

  // The corpus is the library's fixed one (CorpusConfig's default seed), so
  // every run solves Table 1's instance set; --seed orders the passes.
  const htd::bench::CorpusConfig config;

  // Set-up: corpus generation plus executor and service construction,
  // kSetupsPerPoint times at each pass boundary (before every pass and after
  // the last), so the median spans the whole run rather than one moment of
  // the host's speed.
  std::vector<double> setup_seconds;
  auto sample_setups = [&] {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      const double start = Now();
      auto corpus = htd::bench::BuildHyperBenchLikeCorpus(config);
      auto executor = std::make_unique<htd::util::Executor>(workers);
      auto service = std::make_unique<htd::service::DecompositionService>(
          ServerLikeOptions(executor.get()));
      setup_seconds.push_back(Now() - start);
    }
  };

  // References are isomorphism-invariant: computed once, before timing.
  const auto corpus = htd::bench::BuildHyperBenchLikeCorpus(config);
  std::vector<Reference> references;
  for (const auto& instance : corpus) {
    references.push_back(
        ReferenceWidth(instance.graph, instance.known_width, kReferenceBudgetSeconds));
  }

  // Measured passes. Every pass solves every instance once, in a seeded
  // order, on a fresh cold service. The traced run repeats the same passes
  // traced, after an untraced set, so the tracing overhead is their ratio.
  SpanRecorder spans(traced);
  SpanRecorder untraced(false);
  std::string passes_json;
  const std::string proc_before = ProcSnapshotJson();
  int64_t op_id = 0;
  auto run_pass = [&](SpanRecorder& recorder, uint64_t p) {
    sample_setups();
    std::vector<int> order(corpus.size());
    std::iota(order.begin(), order.end(), 0);
    htd::util::Rng rng(Mix(seed * 1000003 + p));
    rng.Shuffle(order);

    htd::util::Executor executor(workers);
    htd::service::DecompositionService service(ServerLikeOptions(&executor));
    const uint64_t steals_before = executor.steals_total();
    const std::string pass_proc_before = ProcSnapshotJson();
    const double pass_start = Now();
    std::vector<InstanceRun> runs;
    for (int index : order) {
      runs.push_back(RunInstance(service, corpus[index].graph, index,
                                 kDeadlineSeconds, recorder, ++op_id));
    }
    const double pass_wall = Now() - pass_start;
    const std::string pass_proc_after = ProcSnapshotJson();
    const uint64_t steals = executor.steals_total() - steals_before;

    std::string runs_json;
    for (InstanceRun& run : runs) {
      CheckRun(corpus[run.index].graph, references[run.index], run, recorder);
      runs_json += (runs_json.empty() ? "" : ", ") + RunJson(run);
    }
    passes_json += std::string(passes_json.empty() ? "" : ", ") +
                   "{\"wall\": " + JsonNum(pass_wall) +
                   ", \"traced\": " + (recorder.enabled() ? "1" : "0") +
                   ", \"steals\": " + std::to_string(steals) +
                   ", \"proc_before\": " + pass_proc_before +
                   ", \"proc_after\": " + pass_proc_after + ", \"runs\": [" +
                   runs_json + "]}";
  };
  for (int round = 0; round < (traced ? 2 : 1); ++round) {
    SpanRecorder& recorder = round == 1 ? spans : untraced;
    for (uint64_t p = 0; p < kPasses; ++p) run_pass(recorder, p);
  }
  sample_setups();
  const std::string proc_after = ProcSnapshotJson();

  // Direct calls on the same inputs (traced run only).
  std::string direct_json = "{}";
  if (traced) direct_json = DirectCorpusPass(corpus, seed, spans);

  std::string instances_json;
  for (size_t i = 0; i < corpus.size(); ++i) {
    instances_json +=
        std::string(i == 0 ? "" : ", ") + "{\"name\": " + JsonStr(corpus[i].name) +
        ", \"edges\": " + std::to_string(corpus[i].graph.num_edges()) +
        ", \"ref\": " +
        (references[i].width ? std::to_string(*references[i].width) : "null") +
        ", \"ref_source\": " + JsonStr(references[i].source) + "}";
  }
  std::string setup_json;
  for (double s : setup_seconds) {
    setup_json += (setup_json.empty() ? "" : ", ") + JsonNum(s);
  }
  WriteFile(out_path,
            "{\"workers\": " + std::to_string(workers) + ", \"deadline\": " +
                JsonNum(kDeadlineSeconds) + ", \"setup_s\": [" + setup_json +
                "], \"instances\": [" + instances_json + "], \"passes\": [" +
                passes_json + "], \"proc_before\": " + proc_before +
                ", \"proc_after\": " + proc_after + ", \"direct\": " +
                direct_json + "}\n");
  if (!spans_path.empty()) WriteFile(spans_path, spans.ToJsonLines());
  return 0;
}

}  // namespace perfbench
