#include "util/executor.h"

#include <chrono>
#include <utility>

namespace htd::util {
namespace {

// Worker identity for Submit routing and OnWorkerThread.
thread_local Executor* tl_executor = nullptr;
thread_local int tl_worker_slot = -1;

}  // namespace

// ---------------------------------------------------------------------------
// Executor

Executor::Executor(int num_workers) {
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    stopping_ = true;
  }
  lanes_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

namespace {
std::mutex g_global_mutex;
std::atomic<Executor*> g_global{nullptr};
}  // namespace

Executor& Executor::Global() {
  Executor* e = g_global.load(std::memory_order_acquire);
  if (e != nullptr) return *e;
  std::lock_guard<std::mutex> lock(g_global_mutex);
  e = g_global.load(std::memory_order_relaxed);
  if (e == nullptr) {
    unsigned hw = std::thread::hardware_concurrency();
    // Leaked on purpose: detached late work must never race static teardown.
    e = new Executor(hw == 0 ? 2 : static_cast<int>(hw));
    g_global.store(e, std::memory_order_release);
  }
  return *e;
}

void Executor::InitGlobal(int num_workers) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global.load(std::memory_order_relaxed) == nullptr) {
    g_global.store(new Executor(num_workers), std::memory_order_release);
  }
}

void Executor::Submit(std::function<void()> fn, Lane lane) {
  if (tl_executor == this && tl_worker_slot >= 0) {
    Worker& w = *workers_[static_cast<size_t>(tl_worker_slot)];
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      w.deque.push_back(std::move(fn));
    }
  } else {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    lanes_[static_cast<int>(lane)].push_back(std::move(fn));
  }
  unclaimed_.fetch_add(1, std::memory_order_relaxed);
  {
    // Lock/unlock pairs the notify with a parked worker's predicate check.
    std::lock_guard<std::mutex> lock(lanes_mutex_);
  }
  lanes_cv_.notify_one();
}

bool Executor::TryAcquire(int self, bool allow_background,
                          std::function<void()>* out) {
  // 1. Own deque, back first (LIFO keeps the hot subtree on this core).
  if (self >= 0) {
    Worker& w = *workers_[static_cast<size_t>(self)];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.deque.empty()) {
      *out = std::move(w.deque.back());
      w.deque.pop_back();
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Lanes in priority order; every 64th pick scans in reverse so sync
  //    floods cannot starve the background lane.
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    uint64_t pick = lane_picks_.fetch_add(1, std::memory_order_relaxed);
    bool reverse = (pick & 63u) == 63u;
    for (int i = 0; i < kNumLanes; ++i) {
      int lane = reverse ? kNumLanes - 1 - i : i;
      if (!allow_background && lane == static_cast<int>(Lane::kBackground)) {
        continue;
      }
      if (!lanes_[lane].empty()) {
        *out = std::move(lanes_[lane].front());
        lanes_[lane].pop_front();
        unclaimed_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  // 3. Steal from another worker's deque, front first (oldest = biggest
  //    remaining subtree). Rotate the starting victim so thieves spread.
  int n = num_workers();
  int start = steal_seed_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    int victim = (start + i) % n;
    if (victim < 0) victim += n;
    if (victim == self) continue;
    Worker& w = *workers_[static_cast<size_t>(victim)];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.deque.empty()) {
      *out = std::move(w.deque.front());
      w.deque.pop_front();
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Executor::RunTask(std::function<void()>& fn) {
  busy_.fetch_add(1, std::memory_order_relaxed);
  fn();
  busy_.fetch_sub(1, std::memory_order_relaxed);
}

void Executor::WorkerLoop(int slot) {
  tl_executor = this;
  tl_worker_slot = slot;
  for (;;) {
    std::function<void()> fn;
    if (TryAcquire(slot, /*allow_background=*/true, &fn)) {
      RunTask(fn);
      fn = nullptr;
      continue;
    }
    // Park until work arrives. Submit bumps unclaimed_ before it takes
    // lanes_mutex_ to notify, so this predicate, checked under that lock,
    // cannot miss a task; only workers wait on lanes_cv_, so the notify
    // cannot be spent on a thread that may not run the task.
    std::unique_lock<std::mutex> lock(lanes_mutex_);
    lanes_cv_.wait(lock, [this] {
      return stopping_ || unclaimed_.load(std::memory_order_relaxed) > 0;
    });
    if (stopping_ && unclaimed_.load(std::memory_order_relaxed) == 0) return;
  }
}

void Executor::HelpWhileWaiting(const std::function<bool()>& ready) {
  int self = (tl_executor == this) ? tl_worker_slot : -1;
  while (!ready()) {
    std::function<void()> fn;
    if (TryAcquire(self, /*allow_background=*/false, &fn)) {
      RunTask(fn);
      continue;
    }
    // Not on lanes_cv_: a helper woken by Submit could not run a
    // background task, and the worker that could would sleep on.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool Executor::OnWorkerThread() const {
  return tl_executor == this && tl_worker_slot >= 0;
}

size_t Executor::queue_depth() const {
  return unclaimed_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TaskGroup

namespace {
thread_local void* tl_group_root = nullptr;
thread_local int tl_group_depth = 0;
}  // namespace

TaskGroup::Participant::Participant(State* root)
    : root_(root),
      prev_root_(static_cast<State*>(tl_group_root)),
      prev_depth_(tl_group_depth),
      counted_(tl_group_root != root) {
  if (!counted_) {
    ++tl_group_depth;
    return;
  }
  tl_group_root = root;
  tl_group_depth = 1;
  int cur = root->running.fetch_add(1, std::memory_order_relaxed) + 1;
  int peak = root->peak.load(std::memory_order_relaxed);
  while (cur > peak &&
         !root->peak.compare_exchange_weak(peak, cur,
                                           std::memory_order_relaxed)) {
  }
}

TaskGroup::Participant::~Participant() {
  if (!counted_) {
    --tl_group_depth;
    return;
  }
  root_->running.fetch_sub(1, std::memory_order_relaxed);
  tl_group_root = prev_root_;
  tl_group_depth = prev_depth_;
}

TaskGroup::TaskGroup(Executor& executor, CancelToken* cancel,
                     Executor::Lane lane)
    : state_(std::make_shared<State>()) {
  state_->executor = &executor;
  state_->cancel = cancel;
  state_->lane = lane;
  state_->root = state_.get();
}

TaskGroup::TaskGroup(TaskGroup& parent) : state_(std::make_shared<State>()) {
  state_->executor = parent.state_->executor;
  state_->cancel = parent.state_->cancel;
  state_->lane = parent.state_->lane;
  state_->root_ref =
      parent.state_->root_ref ? parent.state_->root_ref : parent.state_;
  state_->root = state_->root_ref->root;
}

TaskGroup::~TaskGroup() { WaitImpl(/*rethrow=*/false); }

void TaskGroup::Spawn(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->bag.push_back(std::move(fn));
    ++state_->pending;
  }
  // Wake a waiter so it can help with the new work.
  state_->done_cv.notify_all();
  auto st = state_;
  state_->executor->Submit([st] { RunOne(st); }, state_->lane);
}

void TaskGroup::Run(const std::function<void()>& fn) {
  Participant participant(state_->root);
  try {
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->first_error) state_->first_error = std::current_exception();
    state_->failed.store(true, std::memory_order_relaxed);
  }
}

void TaskGroup::Execute(const std::shared_ptr<State>& state,
                        std::function<void()>& fn) {
  {
    Participant participant(state->root);
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (!state->first_error) state->first_error = std::current_exception();
      state->failed.store(true, std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  if (--state->pending == 0) state->done_cv.notify_all();
}

void TaskGroup::RunOne(const std::shared_ptr<State>& state) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->bag.empty()) return;  // stale ticket — someone else helped
    fn = std::move(state->bag.front());
    state->bag.pop_front();
  }
  Execute(state, fn);
}

void TaskGroup::WaitImpl(bool rethrow) {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      if (!state_->bag.empty()) {
        fn = std::move(state_->bag.back());
        state_->bag.pop_back();
      } else if (state_->pending == 0) {
        break;
      } else {
        state_->done_cv.wait(lock, [this] {
          return state_->pending == 0 || !state_->bag.empty();
        });
        continue;
      }
    }
    Execute(state_, fn);
  }
  if (!rethrow) return;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    error = state_->first_error;
    state_->first_error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::Wait() { WaitImpl(/*rethrow=*/true); }

bool TaskGroup::cancelled() const {
  if (state_->failed.load(std::memory_order_relaxed)) return true;
  return state_->cancel != nullptr && state_->cancel->ShouldStop();
}

int TaskGroup::peak_width() const {
  return state_->root->peak.load(std::memory_order_relaxed);
}

}  // namespace htd::util
