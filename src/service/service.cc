#include "service/service.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace htd::service {

DecompositionService::DecompositionService(ServiceOptions options)
    : options_(std::move(options)),
      executor_(options_.executor != nullptr ? options_.executor
                                             : &util::Executor::Global()) {
  auto factory = MakeSolverFactory(options_.solver_name);
  HTD_CHECK(factory.ok()) << factory.status().message();
  if (options_.enable_result_cache) {
    cache_ = std::make_unique<ResultCache>(std::max<size_t>(1, options_.cache_capacity),
                                           options_.cache_shards);
  }
  if (options_.enable_subproblem_store) {
    subproblem_store_ = std::make_unique<SubproblemStore>(options_.subproblem_store);
    // Handed to every solver the scheduler builds. Part of the config digest
    // below, so result-cache entries don't cross the store on/off boundary.
    options_.solve.subproblem_store = subproblem_store_.get();
  }
  scheduler_ = std::make_unique<BatchScheduler>(
      *executor_, std::move(*factory), options_.solve, cache_.get(),
      SolverConfigDigest(options_.solver_name, options_.solve), &metrics_);
  stage_parse_ = &metrics_.GetHistogram("htd_stage_seconds", "stage=\"parse\"");
  stage_serialise_ =
      &metrics_.GetHistogram("htd_stage_seconds", "stage=\"serialise\"");
  RegisterComponentMetrics();
}

void DecompositionService::RegisterComponentMetrics() {
  metrics_.SetHelp("htd_stage_seconds",
                   "Per-stage request latency (parse, fingerprint, cache, "
                   "schedule, solve, serialise).");
  // Registration order is the snapshot read order: derived counters come
  // before the totals they are bounded by (scheduler increments the total
  // first, so sampling the part first keeps part <= whole in any snapshot).
  metrics_.SetHelp("htd_scheduler_submitted_total", "Jobs accepted.");
  metrics_.RegisterCallback(
      "htd_scheduler_cache_hits_total", "", "counter",
      [this] { return static_cast<double>(scheduler_->GetStats().cache_hits); });
  metrics_.RegisterCallback(
      "htd_scheduler_dedup_joins_total", "", "counter",
      [this] { return static_cast<double>(scheduler_->GetStats().dedup_joins); });
  metrics_.RegisterCallback(
      "htd_scheduler_solves_total", "", "counter",
      [this] { return static_cast<double>(scheduler_->GetStats().solves); });
  metrics_.RegisterCallback(
      "htd_scheduler_completed_total", "", "counter",
      [this] { return static_cast<double>(scheduler_->GetStats().completed); });
  metrics_.RegisterCallback(
      "htd_scheduler_submitted_total", "", "counter",
      [this] { return static_cast<double>(scheduler_->GetStats().submitted); });
  metrics_.RegisterCallback(
      "htd_queue_depth", "", "gauge",
      [this] { return static_cast<double>(scheduler_->queue_depth()); });
  metrics_.RegisterCallback(
      "htd_outstanding_jobs", "", "gauge",
      [this] { return static_cast<double>(scheduler_->outstanding_jobs()); });
  // Executor fleet health: tasks waiting, workers executing, and how often
  // idle workers had to steal (a high steal rate with low queue depth means
  // the fleet is load-balancing fine; with high depth it means starvation).
  metrics_.RegisterCallback(
      "htd_executor_queue_depth", "", "gauge",
      [this] { return static_cast<double>(executor_->queue_depth()); });
  metrics_.RegisterCallback(
      "htd_executor_workers_busy", "", "gauge",
      [this] { return static_cast<double>(executor_->workers_busy()); });
  metrics_.RegisterCallback(
      "htd_executor_workers", "", "gauge",
      [this] { return static_cast<double>(executor_->num_workers()); });
  metrics_.RegisterCallback(
      "htd_executor_steals_total", "", "counter",
      [this] { return static_cast<double>(executor_->steals_total()); });
  if (cache_ != nullptr) {
    metrics_.RegisterCallback(
        "htd_cache_hits_total", "", "counter",
        [this] { return static_cast<double>(cache_->GetStats().hits); });
    metrics_.RegisterCallback(
        "htd_cache_misses_total", "", "counter",
        [this] { return static_cast<double>(cache_->GetStats().misses); });
    metrics_.RegisterCallback(
        "htd_cache_evictions_total", "", "counter",
        [this] { return static_cast<double>(cache_->GetStats().evictions); });
    metrics_.RegisterCallback(
        "htd_cache_insertions_total", "", "counter",
        [this] { return static_cast<double>(cache_->GetStats().insertions); });
    metrics_.RegisterCallback(
        "htd_cache_entries", "", "gauge",
        [this] { return static_cast<double>(cache_->GetStats().entries); });
    metrics_.RegisterCallback(
        "htd_cache_capacity", "", "gauge",
        [this] { return static_cast<double>(cache_->GetStats().capacity); });
  }
  if (subproblem_store_ != nullptr) {
    metrics_.RegisterCallback("htd_store_negative_hits_total", "", "counter",
                              [this] {
                                return static_cast<double>(
                                    subproblem_store_->GetStats().negative_hits);
                              });
    metrics_.RegisterCallback("htd_store_positive_hits_total", "", "counter",
                              [this] {
                                return static_cast<double>(
                                    subproblem_store_->GetStats().positive_hits);
                              });
    metrics_.RegisterCallback(
        "htd_store_misses_total", "", "counter",
        [this] {
          return static_cast<double>(subproblem_store_->GetStats().misses);
        });
    metrics_.RegisterCallback(
        "htd_store_probes_total", "", "counter",
        [this] {
          return static_cast<double>(subproblem_store_->GetStats().probes);
        });
    metrics_.RegisterCallback(
        "htd_store_entries", "", "gauge",
        [this] {
          return static_cast<double>(subproblem_store_->GetStats().entries);
        });
    metrics_.RegisterCallback(
        "htd_store_bytes", "", "gauge",
        [this] {
          return static_cast<double>(subproblem_store_->GetStats().bytes);
        });
  }
}

void DecompositionService::ObserveParseSeconds(double seconds) {
  stage_parse_->Observe(seconds);
}

void DecompositionService::ObserveSerialiseSeconds(double seconds) {
  stage_serialise_->Observe(seconds);
}

DecompositionService::~DecompositionService() = default;

util::StatusOr<std::unique_ptr<DecompositionService>> DecompositionService::Create(
    ServiceOptions options) {
  auto factory = MakeSolverFactory(options.solver_name);
  if (!factory.ok()) return factory.status();
  if (options.solve.num_threads < 0) {
    return util::Status::InvalidArgument(
        "solve.num_threads must be >= 0 (0 = batch-aware auto)");
  }
  if (options.enable_result_cache && options.cache_capacity < 1) {
    return util::Status::InvalidArgument("cache_capacity must be >= 1");
  }
  if (options.enable_subproblem_store) {
    if (options.subproblem_store.byte_budget < 1) {
      return util::Status::InvalidArgument(
          "subproblem_store.byte_budget must be >= 1");
    }
    if (options.subproblem_store.min_subproblem_size < 0) {
      return util::Status::InvalidArgument(
          "subproblem_store.min_subproblem_size must be >= 0");
    }
  }
  if (options.solve.subproblem_store != nullptr) {
    return util::Status::InvalidArgument(
        "solve.subproblem_store is service-owned; use enable_subproblem_store");
  }
  return std::make_unique<DecompositionService>(std::move(options));
}

std::future<JobResult> DecompositionService::Submit(const Hypergraph& graph, int k) {
  return Submit(graph, k, options_.default_timeout_seconds);
}

std::future<JobResult> DecompositionService::Submit(const Hypergraph& graph, int k,
                                                    double timeout_seconds) {
  return Submit(graph, k, timeout_seconds, util::TraceParent{});
}

std::future<JobResult> DecompositionService::Submit(const Hypergraph& graph, int k,
                                                    double timeout_seconds,
                                                    util::TraceParent trace,
                                                    util::Executor::Lane lane) {
  JobSpec spec;
  spec.graph = &graph;
  spec.k = k;
  spec.timeout_seconds = timeout_seconds;
  spec.trace = trace;
  spec.lane = lane;
  return scheduler_->Submit(spec);
}

std::vector<std::future<JobResult>> DecompositionService::SubmitBatch(
    const std::vector<JobSpec>& jobs) {
  return scheduler_->SubmitBatch(jobs);
}

JobResult DecompositionService::Solve(const Hypergraph& graph, int k) {
  return Submit(graph, k).get();
}

void DecompositionService::CancelAll() { scheduler_->CancelAll(); }

void DecompositionService::Drain() { scheduler_->Drain(); }

ResultCache::Stats DecompositionService::cache_stats() const {
  if (cache_ == nullptr) return ResultCache::Stats{};
  return cache_->GetStats();
}

BatchScheduler::Stats DecompositionService::scheduler_stats() const {
  return scheduler_->GetStats();
}

int DecompositionService::queue_depth() const { return scheduler_->queue_depth(); }

uint64_t DecompositionService::outstanding_jobs() const {
  return scheduler_->outstanding_jobs();
}

SubproblemStore::Stats DecompositionService::subproblem_stats() const {
  if (subproblem_store_ == nullptr) return SubproblemStore::Stats{};
  return subproblem_store_->GetStats();
}

}  // namespace htd::service
