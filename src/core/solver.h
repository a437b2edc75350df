// Common solver interface and result types.
//
// Every decomposition method in this repository (det-k-decomp, log-k-decomp
// basic/optimised, the hybrid, the optimal solver) reports through these
// types so the benchmark harnesses and tests can treat them uniformly.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "decomp/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "util/cancel.h"

namespace htd::service {
class SubproblemStore;
}  // namespace htd::service

namespace htd::util {
class TaskGroup;
}  // namespace htd::util

namespace htd {

/// Hybridisation metrics of §D.2. kNone disables the hybrid switch.
enum class HybridMetric { kNone, kEdgeCount, kWeightedCount };

struct SolveOptions {
  /// Width hint for the parallel separator search (1 = sequential, 0 = as
  /// wide as the executor allows). With the work-stealing executor this is
  /// no longer a thread count: it caps how many candidate-chunk tasks a
  /// solve offers concurrently, and free workers pick them up as the fleet
  /// drains — a solve admitted under load widens mid-flight by construction.
  int num_threads = 1;

  /// Task group the solve spawns its parallel-search chunks into (not
  /// owned). The scheduler lends one per flight, tied to the flight's
  /// cancel token and lane. When nullptr and num_threads != 1, LogKDecomp
  /// (and the hybrid through it) opens its own root group on the global
  /// executor. DetKDecomp is sequential and ignores it. Excluded from
  /// SolverConfigDigest — execution placement never affects answers.
  util::TaskGroup* task_group = nullptr;

  /// Optional cooperative cancellation (timeouts); may be nullptr.
  util::CancelToken* cancel = nullptr;

  /// If set, Solve() validates the constructed HD before returning and
  /// reports an internal error on failure. Used by tests.
  bool validate_result = false;

  /// Hybrid strategy: below `hybrid_threshold` of `hybrid_metric`, subproblems
  /// are handed to det-k-decomp (paper §D.2).
  HybridMetric hybrid_metric = HybridMetric::kNone;
  double hybrid_threshold = 0.0;

  /// A log-k level offers candidate-chunk tasks to other workers only for
  /// subproblems of at least this size; smaller ones are searched on the
  /// calling thread, where the task hand-off would cost more than the search.
  int parallel_min_size = 12;

  /// Lets log-k levels consult the solve's negative subproblem memo
  /// (core/negative_cache.h); det-k, alone or as the hybrid's leaf solver,
  /// always does. Off by default: the paper's design point is memo-free
  /// parallel search (the trade-off is measured in
  /// bench/ablation_prep_cache.cc).
  bool enable_cache = false;

  /// Cross-instance subproblem memoization (service/subproblem_store.h).
  /// Not owned; one store is meant to be shared by many solves, possibly
  /// concurrently — the store stripes its own locking. nullptr = off.
  /// LogKDecomp, DetKDecomp, and the hybrid read and write it;
  /// LogKDecompBasic only reads (see the store header's soundness notes).
  service::SubproblemStore* subproblem_store = nullptr;

  /// Trace parentage for per-recursion-level separator-search spans
  /// (util/trace.h). Zero = this solve is not part of a traced request.
  /// Excluded from SolverConfigDigest — tracing never affects answers.
  uint64_t trace_parent = 0;
  uint64_t trace_root = 0;
};

/// Aggregate counters reported by a solve call.
struct SolveStats {
  long separators_tried = 0;  ///< candidate λ-labels examined
  long recursive_calls = 0;   ///< Decomp invocations
  int max_recursion_depth = 0;
  long cache_hits = 0;          ///< negative-memo hits (core/negative_cache.h)
  long detk_subproblems = 0;    ///< hybrid hand-offs to det-k-decomp
  /// Cross-instance subproblem store (service/subproblem_store.h) hits:
  /// dominated failures short-circuited / fragments reused without search.
  long store_negative_hits = 0;
  long store_positive_hits = 0;
  /// Parallel-scaling accounting (core/parallel_search.h): each candidate
  /// search adds the steps taken inside it, nested searches included, to
  /// work_total and its busiest slot's share to work_parallel; a sequential
  /// search adds the same count to both. Their ratio is the speedup the chunk
  /// partition reached on the executor threads that ran it (perfbench's
  /// core.work_speedup).
  long work_total = 0;
  long work_parallel = 0;
  double seconds = 0.0;

  /// Sums `other` into these stats: every counter and the seconds add up,
  /// the recursion depth is the larger of the two.
  void Add(const SolveStats& other);
};

/// Thread-safe counters; snapshotted into SolveStats at the end of a run.
struct StatsCounters {
  std::atomic<long> separators_tried{0};
  std::atomic<long> recursive_calls{0};
  std::atomic<int> max_depth{0};
  std::atomic<long> cache_hits{0};
  std::atomic<long> detk_subproblems{0};
  std::atomic<long> store_negative_hits{0};
  std::atomic<long> store_positive_hits{0};
  std::atomic<long> work_total{0};
  std::atomic<long> work_parallel{0};

  void UpdateMaxDepth(int depth) {
    int current = max_depth.load(std::memory_order_relaxed);
    while (depth > current &&
           !max_depth.compare_exchange_weak(current, depth,
                                            std::memory_order_relaxed)) {
    }
  }

  SolveStats Snapshot() const {
    SolveStats s;
    s.separators_tried = separators_tried.load();
    s.recursive_calls = recursive_calls.load();
    s.max_recursion_depth = max_depth.load();
    s.cache_hits = cache_hits.load();
    s.detk_subproblems = detk_subproblems.load();
    s.store_negative_hits = store_negative_hits.load();
    s.store_positive_hits = store_positive_hits.load();
    s.work_total = work_total.load();
    s.work_parallel = work_parallel.load();
    return s;
  }
};

enum class Outcome {
  kYes,        ///< hw(H) ≤ k; decomposition attached (for constructing solvers)
  kNo,         ///< proven: no HD of width ≤ k exists
  kCancelled,  ///< stopped by timeout/cancellation; no answer
  kError,      ///< internal failure (e.g. validate_result found a bad HD)
};

struct SolveResult {
  Outcome outcome = Outcome::kCancelled;
  std::optional<Decomposition> decomposition;
  SolveStats stats;
};

/// Interface of width-parameterised decomposition solvers.
class HdSolver {
 public:
  virtual ~HdSolver() = default;

  /// Decides hw(H) ≤ k; on kYes attaches a width-≤k HD (unless the solver is
  /// decision-only, which its documentation states).
  virtual SolveResult Solve(const Hypergraph& graph, int k) = 0;

  virtual std::string name() const = 0;
};

/// Result of the optimal-width protocol.
struct OptimalRun {
  Outcome outcome = Outcome::kCancelled;  ///< kYes: width is optimal and proven
  int width = -1;
  std::optional<Decomposition> decomposition;
  SolveStats stats;   ///< accumulated over all k probed
  double seconds = 0.0;
};

/// The paper's "solved" protocol: probe k = 1, 2, ... until Solve returns
/// kYes; every smaller k returned kNo, so the width is proven optimal.
/// Stops with kCancelled if any probe is cancelled, kNo if k exceeds max_k.
OptimalRun FindOptimalWidth(HdSolver& solver, const Hypergraph& graph, int max_k);

}  // namespace htd
