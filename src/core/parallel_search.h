// Parallel candidate-separator search (paper §D.1).
//
// The search space of λ-labels is partitioned into (size, first-element)
// chunks; workers claim chunks from an atomic counter and run the full
// candidate check — including nested recursion — independently. There is no
// other inter-thread communication, which is why the paper observes linear
// scaling: the first worker to find a fragment wins. The losers see the win
// only at this level's next candidate boundary: a nested search below them
// polls just the solve's cancel token (ShouldStop, core/search_types.h),
// so a losing slot runs its current candidate's subtree to the end.
//
// This file owns no threads. The parallel path spawns its slot workers as
// tasks into the caller's util::TaskGroup on the fleet-wide work-stealing
// executor (util/executor.h) and helps drain them inline; how many actually
// run concurrently depends on how busy the fleet is at that moment, which is
// what lets a lone solve widen to every core as the queue drains.
//
// A solve-wide ThreadBudget bounds how many slot tasks are *offered* per
// search level (a width hint, not a fork count), so deep recursions don't
// flood the executor with more tasks than the solve was asked to use.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "core/search_types.h"
#include "core/solver.h"
#include "util/executor.h"
#include "util/trace.h"

namespace htd {

class ThreadBudget {
 public:
  /// `extra_workers` = slot tasks available beyond the calling thread.
  explicit ThreadBudget(int extra_workers) : available_(std::max(0, extra_workers)) {}

  /// Claims up to `want` extra slots; returns how many were granted.
  int Claim(int want);
  /// Returns previously claimed slots to the budget.
  void Release(int count);

 private:
  std::atomic<int> available_;
};

/// Signature of a candidate check: receives the candidate's indices into the
/// caller's candidate-edge list. kNotFound means "this candidate fails";
/// kFound/kStopped end the whole search.
using CandidateFn = std::function<SearchOutcome(const std::vector<int>&)>;

/// Tries all subsets S of {0..n-1} with 1 ≤ |S| ≤ k and min(S) < first_limit
/// on 1 + extra_workers slot tasks. With extra_workers > 0, `group` must be
/// non-null: the extra slots are spawned into a nested task group under it
/// and the calling thread drains the group inline (work-stealing workers
/// pick up whatever it hasn't started yet). Records search-step work into
/// `stats`: work_total accumulates every step, work_parallel the longest
/// slot's share per search (see SolveStats).
///
/// `simulate_workers` (> 1, only meaningful with extra_workers == 0) runs the
/// search sequentially but additionally computes the makespan the solver's
/// own chunk-scheduling discipline would achieve on that many workers —
/// chunks are list-scheduled in claim order onto the least-loaded virtual
/// worker, exactly mirroring the dynamic chunk claiming of the real parallel
/// path. work_parallel then records the simulated makespan. This is how the
/// Figure 1 harness demonstrates the paper's scaling argument on single-core
/// hardware (DESIGN.md §4, substitution 3).
///
/// `trace` parents one "sep_worker" span per slot task (tagged with its
/// slot) under the caller's per-level separator-search span; an all-zero
/// TraceParent (the default) records nothing.
SearchOutcome DriveCandidates(int n, int k, int first_limit, int extra_workers,
                              util::TaskGroup* group, int simulate_workers,
                              StatsCounters& stats,
                              const CandidateFn& try_candidate,
                              util::TraceParent trace = {});

}  // namespace htd
