// DecompositionService: the façade over the service subsystem.
//
// Request flow (docs/SERVICE.md has the full picture):
//
//   Submit(graph, k)
//     ➞ canonical fingerprint            (service/canonical.h)
//     ➞ sharded result cache lookup      (service/result_cache.h)
//     ➞ single-flight batch scheduler    (service/scheduler.h)
//     ➞ solver from the name registry    (core/solver_factory.h)
//
// The service owns the cache and the scheduler and runs every solve on the
// fleet-wide work-stealing executor (util/executor.h — the process-global
// one unless ServiceOptions::executor injects a private instance); callers
// only hold futures. One service instance is meant to be long-lived and
// shared across many clients — every knob that changes the answers a solve
// can produce is part of the cache key, so mixing workloads is safe.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"
#include "core/solver_factory.h"
#include "service/result_cache.h"
#include "service/scheduler.h"
#include "service/subproblem_store.h"
#include "util/executor.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace htd::service {

/// ServiceOptions extends SolveOptions with the service-level knobs.
struct ServiceOptions {
  /// Base solver configuration; `cancel` is ignored (deadlines are per-job),
  /// `num_threads` hints the intra-solve width. num_threads == 0 means "as
  /// wide as the executor": the solve offers chunk tasks for the whole
  /// fleet and whatever is free runs them, so a lone flight widens to every
  /// core and a deep queue naturally runs ~one worker per flight — with no
  /// admission-time pick (the old PickAutoThreads is gone).
  SolveOptions solve;

  /// Solver registry name (core/solver_factory.h): "logk", "logk-basic",
  /// "detk", "hybrid", "balsep-ghd".
  std::string solver_name = "logk";

  /// Executor every flight and chunk task runs on (not owned; must outlive
  /// the service). nullptr = the process-wide util::Executor::Global().
  /// Tests and benches inject a private instance for deterministic widths.
  util::Executor* executor = nullptr;

  /// Whole-instance result memoization.
  bool enable_result_cache = true;
  size_t cache_capacity = 4096;
  int cache_shards = 16;

  /// Cross-instance subproblem memoization: one SubproblemStore shared by
  /// every worker and every solve, so overlapping instances reuse each
  /// other's subproblem outcomes (docs/SERVICE.md). Off by default — the
  /// result cache already covers identical resubmissions; enable it for
  /// workloads with repeated substructure across *distinct* instances.
  bool enable_subproblem_store = false;
  SubproblemStore::Options subproblem_store;

  /// Deadline applied to jobs submitted without an explicit timeout
  /// (0 = none).
  double default_timeout_seconds = 0.0;
};

class DecompositionService {
 public:
  /// Aborts (HTD_CHECK) on an unknown solver name; use Create() to validate.
  explicit DecompositionService(ServiceOptions options = {});
  ~DecompositionService();

  DecompositionService(const DecompositionService&) = delete;
  DecompositionService& operator=(const DecompositionService&) = delete;

  /// Validating constructor: kInvalidArgument on a bad configuration.
  static util::StatusOr<std::unique_ptr<DecompositionService>> Create(
      ServiceOptions options);

  /// Submits one job; uses options().default_timeout_seconds.
  std::future<JobResult> Submit(const Hypergraph& graph, int k);
  /// Submits one job with an explicit deadline (0 = none).
  std::future<JobResult> Submit(const Hypergraph& graph, int k,
                                double timeout_seconds);
  /// Submits one traced job: scheduler and solver spans (fingerprint,
  /// cache probe, schedule wait, solve, per-level separator search) are
  /// parented under `trace`. A zero TraceParent records nothing. `lane`
  /// places the flight on the executor (sync for blocking clients, async
  /// for polled decompose jobs, background for best-effort work).
  std::future<JobResult> Submit(
      const Hypergraph& graph, int k, double timeout_seconds,
      util::TraceParent trace,
      util::Executor::Lane lane = util::Executor::Lane::kSync);

  /// Submits many jobs with a single scheduler hand-off; futures are
  /// index-aligned with `jobs`.
  std::vector<std::future<JobResult>> SubmitBatch(const std::vector<JobSpec>& jobs);

  /// Synchronous convenience wrapper: Submit + wait.
  JobResult Solve(const Hypergraph& graph, int k);

  /// Cooperatively cancels all in-flight work.
  void CancelAll();
  /// Blocks until every admitted job has completed.
  void Drain();

  ResultCache::Stats cache_stats() const;
  BatchScheduler::Stats scheduler_stats() const;
  /// Zeroed stats when the subproblem store is disabled.
  SubproblemStore::Stats subproblem_stats() const;
  /// Solver runs outstanding (admitted flights not yet fanned out).
  int queue_depth() const;
  /// Jobs admitted whose futures have not resolved yet; the admission-control
  /// front-end (net/decomposition_server.h) sheds load against this.
  uint64_t outstanding_jobs() const;
  const ServiceOptions& options() const { return options_; }

  /// Warm state, for snapshot/restore (service/persistence.h). Null when the
  /// corresponding layer is disabled.
  ResultCache* result_cache() { return cache_.get(); }
  SubproblemStore* subproblem_store() { return subproblem_store_.get(); }

  /// The executor this service's flights run on (global unless injected).
  util::Executor& executor() { return *executor_; }

  /// The service's metric registry: stage latency histograms (observed by
  /// the scheduler), component counters registered as callbacks — derived
  /// counters before their totals, so one rendered page never reports a
  /// part exceeding its whole. The HTTP
  /// front-end adds its own parse/serialise histograms and admission
  /// counters here and renders the whole thing at /v1/metrics.
  util::MetricsRegistry& metrics() { return metrics_; }

  /// Observes the net-layer stage costs (parse and serialise) into the
  /// stage histogram family the scheduler populates for the other stages.
  void ObserveParseSeconds(double seconds);
  void ObserveSerialiseSeconds(double seconds);

 private:
  void RegisterComponentMetrics();

  ServiceOptions options_;
  util::MetricsRegistry metrics_;  // declared before the scheduler using it
  util::Executor* executor_;       // not owned; global unless injected
  std::unique_ptr<ResultCache> cache_;       // null when caching is disabled
  std::unique_ptr<SubproblemStore> subproblem_store_;  // null when disabled
  std::unique_ptr<BatchScheduler> scheduler_;
  util::Histogram* stage_parse_ = nullptr;
  util::Histogram* stage_serialise_ = nullptr;
};

}  // namespace htd::service
