// Service-throughput bench: concurrent batch submission through the
// DecompositionService at increasing executor widths, plus the cache effect.
//
// Part A sweeps the work-stealing executor over 1, 2, 4, ... workers
// (capped by HTD_BENCH_THREADS, default 4) on a cold cache and reports
// jobs/second and speedup over the 1-worker run — the batch scheduler's
// analogue of the paper's Figure 1 scaling study, with whole instances as
// the unit of parallelism instead of separator candidates. Deadlines are
// end-to-end from admission (scheduler.h), so the "solved" column — jobs
// that met their deadline — is the scaling signal that survives even on
// core-starved machines where wall-clock speedup cannot materialise:
// more workers ⇒ hard jobs start sooner ⇒ fewer deadline misses.
//
// Part B replays the identical batch against the warm cache and reports the
// served-from-cache throughput, i.e. what repeat traffic costs once the
// fingerprint ➞ result mapping is populated.
//
// Part C is the mixed-batch scenario the executor refactor exists for: one
// big solve submitted alongside many small ones. With a static per-job
// width (num_threads = 1, emulating the old one-pool-slot-per-job split)
// the big solve stays single-threaded even after every small job has
// drained; with the adaptive hint (num_threads = 0) its chunk tasks are
// picked up by each worker the moment it frees, so the fleet converges on
// the straggler. The table reports aggregate solves/sec and the big job's
// threads_used — the peak number of workers concurrently inside its task
// group, which has no static cap.
//
// Environment knobs (bench_common.h): HTD_BENCH_THREADS, HTD_BENCH_SCALE,
// HTD_BENCH_TIMEOUT.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hypergraph/generators.h"
#include "service/service.h"
#include "util/executor.h"
#include "util/timer.h"

namespace htd::bench {
namespace {

// Part C's small-job count: enough to keep every worker busy at first so
// the static/adaptive contrast is about what happens after they drain.
constexpr int kSmallJobs = 24;

struct BatchOutcome {
  double seconds = 0.0;
  int solved = 0;
  int cancelled = 0;
  uint64_t cache_hits = 0;
  uint64_t dedup_joins = 0;
};

BatchOutcome RunBatch(service::DecompositionService& svc,
                      const std::vector<const Hypergraph*>& graphs, int k,
                      double timeout_seconds) {
  std::vector<service::JobSpec> specs;
  specs.reserve(graphs.size());
  for (const Hypergraph* graph : graphs) {
    service::JobSpec spec;
    spec.graph = graph;
    spec.k = k;
    spec.timeout_seconds = timeout_seconds;
    specs.push_back(spec);
  }
  util::WallTimer timer;
  auto futures = svc.SubmitBatch(specs);
  BatchOutcome outcome;
  for (auto& future : futures) {
    service::JobResult job = future.get();
    if (job.result.outcome == Outcome::kCancelled) {
      ++outcome.cancelled;
    } else {
      ++outcome.solved;
    }
  }
  outcome.seconds = timer.ElapsedSeconds();
  outcome.cache_hits = svc.scheduler_stats().cache_hits;
  outcome.dedup_joins = svc.scheduler_stats().dedup_joins;
  return outcome;
}

int Main() {
  RunConfig config = RunConfig::FromEnv();
  CorpusConfig corpus_config;
  corpus_config.scale = CorpusScaleFromEnv();
  std::vector<Instance> corpus = BuildHyperBenchLikeCorpus(corpus_config);
  PrintPreamble("Service throughput: batch scheduling and result cache",
                config, corpus.size());

  // The job mix: every corpus instance at a fixed decision width. k = 3
  // solves most instances quickly (yes or no) so the bench measures the
  // service machinery, not one hard straggler; the per-job timeout bounds
  // the stragglers that remain.
  const int k = 3;
  const double timeout = config.timeout_seconds;
  std::vector<const Hypergraph*> graphs;
  graphs.reserve(corpus.size());
  for (const Instance& instance : corpus) graphs.push_back(&instance.graph);

  const int max_workers = config.num_threads > 0 ? config.num_threads : 4;
  std::printf("\nPart A: cold-cache batch throughput, %zu jobs at k = %d\n\n",
              graphs.size(), k);
  TextTable table;
  table.AddRow({"workers", "seconds", "jobs/s", "speedup", "solved", "cancelled"});
  double base_seconds = 0.0;
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    util::Executor executor(workers);  // private fleet: deterministic width
    service::ServiceOptions options;
    options.solver_name = "logk";
    options.executor = &executor;
    options.cache_capacity = 2 * graphs.size();
    service::DecompositionService svc(options);
    BatchOutcome outcome = RunBatch(svc, graphs, k, timeout);
    if (workers == 1) base_seconds = outcome.seconds;
    table.AddRow({std::to_string(workers), Fmt1(outcome.seconds),
                  Fmt1(outcome.seconds > 0 ? graphs.size() / outcome.seconds : 0.0),
                  Fmt1(outcome.seconds > 0 ? base_seconds / outcome.seconds : 0.0),
                  std::to_string(outcome.solved),
                  std::to_string(outcome.cancelled)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("Part B: warm-cache replay (same batch twice, one service)\n\n");
  {
    util::Executor executor(max_workers);
    service::ServiceOptions options;
    options.solver_name = "logk";
    options.executor = &executor;
    options.cache_capacity = 2 * graphs.size();
    service::DecompositionService svc(options);
    BatchOutcome cold = RunBatch(svc, graphs, k, timeout);
    BatchOutcome warm = RunBatch(svc, graphs, k, timeout);
    uint64_t warm_hits = warm.cache_hits - cold.cache_hits;
    TextTable replay;
    replay.AddRow({"pass", "seconds", "jobs/s", "cache hits"});
    replay.AddRow({"cold", Fmt1(cold.seconds),
                   Fmt1(cold.seconds > 0 ? graphs.size() / cold.seconds : 0.0),
                   std::to_string(cold.cache_hits)});
    replay.AddRow({"warm", Fmt1(warm.seconds),
                   Fmt1(warm.seconds > 0 ? graphs.size() / warm.seconds : 0.0),
                   std::to_string(warm_hits)});
    std::printf("%s\n", replay.Render().c_str());
    std::printf("warm pass served %llu/%zu jobs from the cache\n\n",
                static_cast<unsigned long long>(warm_hits), graphs.size());
  }

  // Part C: 1 big solve + many small ones through one executor. "static"
  // pins every job at width 1 (what the old admission-time pool split chose
  // for a deep queue); "adaptive" lets the big solve widen as the small
  // jobs drain.
  std::printf("Part C: mixed batch (1 big + %d small) on %d workers\n\n",
              kSmallJobs, max_workers);
  Hypergraph big = MakeClique(14);
  std::vector<Hypergraph> small;
  small.reserve(kSmallJobs);
  for (int i = 0; i < kSmallJobs; ++i) {
    small.push_back(MakeHyperCycle(6 + (i % 5), 3, 1));
  }
  TextTable mixed;
  mixed.AddRow({"policy", "seconds", "solves/s", "solved", "big threads_used"});
  for (int policy = 0; policy < 2; ++policy) {
    const bool adaptive = policy == 1;
    util::Executor executor(max_workers);
    service::ServiceOptions options;
    options.solver_name = "logk";
    options.executor = &executor;
    options.enable_result_cache = false;  // measure solves, not memoization
    options.solve.num_threads = adaptive ? 0 : 1;
    service::DecompositionService svc(options);
    util::WallTimer timer;
    std::future<service::JobResult> big_future =
        svc.Submit(big, 4, timeout);  // kNo at k=4: the exhaustive straggler
    std::vector<std::future<service::JobResult>> small_futures;
    small_futures.reserve(small.size());
    for (const Hypergraph& graph : small) {
      small_futures.push_back(svc.Submit(graph, 2, timeout));
    }
    int solved = 0;
    for (auto& future : small_futures) {
      service::JobResult job = future.get();
      solved += job.result.outcome != Outcome::kCancelled &&
                        job.result.outcome != Outcome::kError
                    ? 1
                    : 0;
    }
    service::JobResult big_job = big_future.get();
    solved += big_job.result.outcome != Outcome::kCancelled &&
                      big_job.result.outcome != Outcome::kError
                  ? 1
                  : 0;
    double seconds = timer.ElapsedSeconds();
    int total = static_cast<int>(small.size()) + 1;
    mixed.AddRow({adaptive ? "adaptive (0)" : "static (1)", Fmt1(seconds),
                  Fmt1(seconds > 0 ? total / seconds : 0.0),
                  std::to_string(solved),
                  std::to_string(big_job.threads_used)});
  }
  std::printf("%s\n", mixed.Render().c_str());
  std::printf(
      "adaptive lets the straggler widen to every worker once the small "
      "jobs drain;\nstatic keeps it at width 1 no matter how idle the fleet "
      "is\n");
  return 0;
}

}  // namespace
}  // namespace htd::bench

int main() { return htd::bench::Main(); }
