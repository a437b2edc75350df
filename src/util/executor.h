// Work-stealing executor: the process's one thread-pool implementation.
//
// The global instance (`Global()`) owns all compute threads (solver chunk
// workers, scheduler flights, background query jobs). `net::HttpServer`
// runs its request handlers on a private instance, so a handler blocked on
// a socket never holds a compute worker.
//
// Each worker thread keeps a private deque: tasks spawned from that worker
// push onto the back and are popped from the back (LIFO, cache-hot), while
// idle workers steal from the front of other workers' deques (FIFO,
// oldest-first — the classic Blumofe/Leiserson shape, here
// "lock-free-ish": each deque is guarded by its own small mutex whose
// critical sections are a handful of pointer moves, which keeps the whole
// thing trivially TSan-clean at no measurable cost next to a candidate
// check). Tasks submitted from non-worker threads land in one of three
// priority lanes:
//
//   kSync       interactive solves (a client is blocked on the answer)
//   kAsync      async decompose flights (client polls a job id)
//   kBackground query jobs and other best-effort work
//
// Idle workers drain lanes in priority order, but roughly every 64th lane
// pick scans in reverse so a flood of sync traffic cannot starve the
// background lane forever. A worker with nothing to run sleeps until a
// Submit wakes it; an idle executor makes no timed wake-ups.
//
// `TaskGroup` is the structured-concurrency layer on top: a group owns a bag
// of spawned closures, and what goes into the executor is only a *ticket*
// (a shared handle to the group state). Whoever runs the ticket first —
// an idle worker, a thief, or the group's own `Wait()` — pops one closure
// from the bag; late tickets find the bag empty and are no-ops. Because
// `Wait()` drains its own bag inline, a waiter can never deadlock on its own
// spawned work, whatever the worker count. Groups inherit cancellation from
// a borrowed `CancelToken` (the scheduler lends the flight token, so a
// deadline cancels the whole group) and record the peak number of threads
// concurrently inside the group tree — that peak is what the scheduler now
// reports as `JobResult::threads_used`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace htd::util {

class TaskGroup;

class Executor {
 public:
  enum class Lane : int { kSync = 0, kAsync = 1, kBackground = 2 };
  static constexpr int kNumLanes = 3;

  /// Spawns `num_workers` threads (floored at 1).
  explicit Executor(int num_workers);
  /// Drains every queued task, then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor. Created on first use with
  /// `hardware_concurrency()` workers unless InitGlobal ran earlier.
  /// Never destroyed (intentionally leaked so late detached work can't
  /// race static teardown).
  static Executor& Global();
  /// Sizes the global executor before anything touches it. No-op if the
  /// singleton already exists.
  static void InitGlobal(int num_workers);

  /// Enqueues a task. From a worker thread the task goes to that worker's
  /// own deque (LIFO); from anywhere else it goes to the given lane.
  void Submit(std::function<void()> fn, Lane lane = Lane::kSync);

  /// Runs executor work on the calling thread until `ready()` returns
  /// true. Only sync/async-lane tasks and deque steals are eligible —
  /// never the background lane, whose tasks may themselves block on
  /// solves (running one here could recurse into another blocking wait).
  /// Callable from any thread. A caller that finds no eligible work
  /// re-checks `ready` every millisecond; it never waits on the workers'
  /// wake-up, so a Submit's notify always reaches a worker.
  void HelpWhileWaiting(const std::function<bool()>& ready);

  /// True when the calling thread is one of this executor's workers.
  bool OnWorkerThread() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Workers currently executing a task (gauge).
  int workers_busy() const { return busy_.load(std::memory_order_relaxed); }
  /// Tasks sitting in lanes + worker deques, not yet claimed (gauge).
  size_t queue_depth() const;
  /// Tasks a worker took from another worker's deque (counter).
  uint64_t steals_total() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskGroup;

  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> deque;  // back = own LIFO, front = steal
  };

  // Claims one task, preferring: own deque back, lanes by priority
  // (rotated for starvation freedom), then stealing. `self` is -1 for
  // non-worker threads (helping); `allow_background` gates the background
  // lane. Returns false if nothing is runnable right now.
  bool TryAcquire(int self, bool allow_background, std::function<void()>* out);
  void RunTask(std::function<void()>& fn);
  void WorkerLoop(int slot);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex lanes_mutex_;
  std::condition_variable lanes_cv_;
  std::deque<std::function<void()>> lanes_[kNumLanes];
  bool stopping_ = false;

  std::atomic<int> busy_{0};
  std::atomic<size_t> unclaimed_{0};  // pushed but not yet claimed, all queues
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> lane_picks_{0};
  std::atomic<int> steal_seed_{0};
};

/// Structured task group on an executor. Spawn closures, Wait for all of
/// them; Wait rethrows the first exception any task threw (after every
/// task finished, matching the scheduler's promise path). Nested groups
/// (the parallel separator search opens one per recursion level) share the
/// root group's cancellation and width accounting.
class TaskGroup {
 public:
  /// Root group. `cancel` is borrowed (may be null) — the group reports
  /// cancelled() when the token fires or a task throws.
  explicit TaskGroup(Executor& executor, CancelToken* cancel = nullptr,
                     Executor::Lane lane = Executor::Lane::kSync);
  /// Nested group: shares the parent's executor, lane, cancellation and
  /// peak-width accounting.
  explicit TaskGroup(TaskGroup& parent);
  /// Waits for stragglers (exceptions are swallowed here — call Wait()
  /// yourself if you care, and you should).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queues `fn` on this group. Never runs it inline.
  void Spawn(std::function<void()> fn);

  /// Runs `fn` on the calling thread as a group participant (counts
  /// toward peak width like a spawned task).
  void Run(const std::function<void()>& fn);

  /// Blocks until every spawned task of *this* group finished, helping by
  /// draining this group's own bag inline. Rethrows the first captured
  /// exception.
  void Wait();

  /// True once the borrowed token fired or any task threw.
  bool cancelled() const;
  CancelToken* cancel_token() const { return state_->cancel; }

  /// Peak number of threads concurrently running tasks anywhere in this
  /// group's root tree (0 if nothing ever ran).
  int peak_width() const;

  Executor& executor() const { return *state_->executor; }

 private:
  struct State {
    Executor* executor = nullptr;
    CancelToken* cancel = nullptr;  // borrowed, may be null
    Executor::Lane lane = Executor::Lane::kSync;
    State* root = nullptr;               // width accounting lives here
    std::shared_ptr<State> root_ref;     // keeps a nested group's root alive

    std::mutex mutex;
    std::condition_variable done_cv;
    std::deque<std::function<void()>> bag;
    int pending = 0;  // spawned, not yet finished
    std::exception_ptr first_error;
    std::atomic<bool> failed{false};

    // Root-only: concurrent participants, and the high-water mark.
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
  };

  // RAII participant registration against the root state; a thread
  // already inside the same root tree is not double-counted.
  class Participant {
   public:
    explicit Participant(State* root);
    ~Participant();

   private:
    State* root_;
    State* prev_root_;
    int prev_depth_;
    bool counted_;
  };

  static void RunOne(const std::shared_ptr<State>& state);
  static void Execute(const std::shared_ptr<State>& state,
                      std::function<void()>& fn);
  void WaitImpl(bool rethrow);

  std::shared_ptr<State> state_;
};

}  // namespace htd::util
