// The fleet-wide work-stealing executor (util/executor.h): steal fairness,
// task groups (nesting, cancellation, exception propagation, peak width),
// and priority-lane starvation freedom. Everything here also runs under the
// TSan CI job — the executor is the one component every solve shares.
#include "util/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace htd::util {
namespace {

using namespace std::chrono_literals;

/// Spin until `done()` or the deadline; test-local so a broken executor
/// fails an EXPECT instead of hanging the suite.
bool SpinUntil(const std::function<bool()>& done,
               std::chrono::milliseconds budget = 5000ms) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(ExecutorTest, RunsSubmittedTasksAndGoesIdle) {
  Executor executor(3);
  EXPECT_EQ(executor.num_workers(), 3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    executor.Submit([&ran] { ran.fetch_add(1); });
  }
  ASSERT_TRUE(SpinUntil([&] { return ran.load() == 64; }));
  ASSERT_TRUE(SpinUntil([&] { return executor.workers_busy() == 0; }));
  EXPECT_EQ(executor.queue_depth(), 0u);
}

TEST(ExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    Executor executor(2);
    for (int i = 0; i < 128; ++i) {
      executor.Submit([&ran] { ran.fetch_add(1); });
    }
    // No wait: the destructor must run every task before joining.
  }
  EXPECT_EQ(ran.load(), 128);
}

TEST(ExecutorTest, ParkedWorkerRunsBackgroundWorkWhileAThreadHelps) {
  // Helpers may not run background tasks, so a Submit's wake-up must reach
  // the parked worker even while other threads sit in HelpWhileWaiting.
  // Each round submits just after the worker parked again, when a helper
  // has often been waiting longer than the worker; a lost wake-up fails the
  // round at SpinUntil's budget instead of hanging the suite.
  std::atomic<int> ran{0};  // outlives the executor, which drains on exit
  std::atomic<bool> release{false};
  Executor executor(1);
  std::vector<std::thread> helpers;
  for (int i = 0; i < 3; ++i) {
    helpers.emplace_back([&executor, &release] {
      executor.HelpWhileWaiting([&release] { return release.load(); });
    });
  }
  for (int round = 0; round < 50; ++round) {
    executor.Submit([&ran] { ran.fetch_add(1); }, Executor::Lane::kBackground);
    bool woke = SpinUntil([&] { return ran.load() == round + 1; });
    EXPECT_TRUE(woke) << "round " << round
                      << ": the background task never ran";
    if (!woke) break;
  }
  release.store(true);
  for (std::thread& helper : helpers) helper.join();
}

TEST(ExecutorTest, IdleWorkersStealFromALoadedDeque) {
  // One worker seeds its own deque with many tasks (worker-side Submit goes
  // to the private deque, not a lane); the other workers must steal them —
  // the whole fleet participates and the steal counter moves.
  Executor executor(4);
  constexpr int kTasks = 256;
  std::atomic<int> ran{0};
  std::mutex mutex;
  std::set<std::thread::id> runners;
  executor.Submit([&] {
    for (int i = 0; i < kTasks; ++i) {
      executor.Submit([&] {
        {
          std::lock_guard<std::mutex> lock(mutex);
          runners.insert(std::this_thread::get_id());
        }
        // Enough work that the seeding worker cannot drain its own deque
        // before the thieves wake up.
        std::this_thread::sleep_for(1ms);
        ran.fetch_add(1);
      });
    }
  });
  ASSERT_TRUE(SpinUntil([&] { return ran.load() == kTasks; }));
  EXPECT_GT(executor.steals_total(), 0u);
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_GE(runners.size(), 2u)
      << "256 sleeping tasks on one deque must get stolen by siblings";
}

TEST(ExecutorTest, BackgroundLaneIsNotStarvedByASyncFlood) {
  // Single worker, deep sync lane, one background task behind it. Strict
  // priority would run all 1000 sync tasks first; the every-64th-pick
  // reverse scan must get the background task in far earlier.
  Executor executor(1);
  std::atomic<int> sync_done{0};
  std::atomic<int> background_saw{-1};
  std::atomic<bool> gate{false};
  // Hold the worker so the lanes fill before anything is picked.
  executor.Submit([&gate] {
    while (!gate.load()) std::this_thread::sleep_for(1ms);
  });
  constexpr int kSyncTasks = 1000;
  for (int i = 0; i < kSyncTasks; ++i) {
    executor.Submit([&sync_done] { sync_done.fetch_add(1); },
                    Executor::Lane::kSync);
  }
  executor.Submit(
      [&] { background_saw.store(sync_done.load()); },
      Executor::Lane::kBackground);
  gate.store(true);
  ASSERT_TRUE(SpinUntil([&] { return background_saw.load() >= 0; }));
  EXPECT_LT(background_saw.load(), 500)
      << "the background task waited behind " << background_saw.load()
      << " of " << kSyncTasks << " sync tasks";
  ASSERT_TRUE(SpinUntil([&] { return sync_done.load() == kSyncTasks; }));
}

TEST(TaskGroupTest, WaitRunsEverySpawnedTaskAtAnyWorkerCount) {
  for (int workers : {1, 4}) {
    std::atomic<int> ran{0};
    std::atomic<int> peak{-1};
    Executor executor(workers);
    // Spawn and Wait on a worker: a waiter drains its own bag as a group
    // participant, so only then is every participant one of `workers`.
    executor.Submit([&executor, &ran, &peak] {
      TaskGroup group(executor);
      for (int i = 0; i < 100; ++i) {
        group.Spawn([&ran] { ran.fetch_add(1); });
      }
      group.Wait();
      peak.store(group.peak_width());
    });
    ASSERT_TRUE(SpinUntil([&] { return peak.load() >= 0; }));
    EXPECT_EQ(ran.load(), 100) << workers << " workers";
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), workers);
  }
}

TEST(TaskGroupTest, NestedGroupsShareTheRootsWidthAccounting) {
  Executor executor(4);
  TaskGroup root(executor);
  std::atomic<int> leaves{0};
  constexpr int kBranches = 4;
  constexpr int kLeaves = 8;
  for (int b = 0; b < kBranches; ++b) {
    root.Spawn([&root, &leaves] {
      TaskGroup child(root);
      for (int l = 0; l < kLeaves; ++l) {
        child.Spawn([&leaves] {
          leaves.fetch_add(1);
          std::this_thread::sleep_for(1ms);
        });
      }
      child.Wait();
    });
  }
  root.Wait();
  EXPECT_EQ(leaves.load(), kBranches * kLeaves);
  // Width is recorded against the root: with 4 workers chewing the tree the
  // peak must exceed one thread, and a thread running a branch plus its
  // leaves inline is counted once, never per nesting level. The +1 is the
  // main thread, which participates whenever Wait() drains bag work inline.
  EXPECT_GT(root.peak_width(), 1);
  EXPECT_LE(root.peak_width(), 4 + 1);
}

TEST(TaskGroupTest, CancellationReachesTasksMidFlight) {
  // Long tasks spread over the fleet (some stolen, some lane-claimed); one
  // RequestStop must end them all, and Wait() must return promptly.
  Executor executor(4);
  CancelToken token;
  TaskGroup group(executor, &token);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&] {
      started.fetch_add(1);
      while (!group.cancelled()) std::this_thread::sleep_for(1ms);
      finished.fetch_add(1);
    });
  }
  ASSERT_TRUE(SpinUntil([&] { return started.load() >= 4; }));
  token.RequestStop();
  group.Wait();
  EXPECT_TRUE(group.cancelled());
  EXPECT_EQ(finished.load(), started.load())
      << "every task that started must have observed the stop and exited";
}

TEST(TaskGroupTest, NestedGroupInheritsCancellation) {
  Executor executor(2);
  CancelToken token;
  TaskGroup root(executor, &token);
  TaskGroup child(root);
  EXPECT_FALSE(child.cancelled());
  token.RequestStop();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.cancel_token(), &token);
}

TEST(TaskGroupTest, WaitRethrowsTheFirstTaskException) {
  Executor executor(2);
  TaskGroup group(executor);
  std::atomic<int> ran{0};
  group.Spawn([] { throw std::runtime_error("chunk failed"); });
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // Like the scheduler's promise path: the error surfaces only after every
  // task has finished, and a failed group reports cancelled().
  EXPECT_EQ(ran.load(), 8);
  EXPECT_TRUE(group.cancelled());
  group.Wait();  // the error was consumed; a second Wait is clean
}

TEST(TaskGroupTest, PeakWidthSaturatesTheFleetUnderABarrier) {
  // All four workers must be inside the group at once for the barrier to
  // release — the property threads_used reporting is built on.
  constexpr int kWidth = 4;
  Executor executor(kWidth);
  TaskGroup group(executor);
  std::atomic<int> arrived{0};
  auto chunk = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < kWidth) std::this_thread::sleep_for(1ms);
  };
  for (int i = 1; i < kWidth; ++i) group.Spawn(chunk);
  group.Run(chunk);
  group.Wait();
  EXPECT_EQ(group.peak_width(), kWidth);
}

TEST(TaskGroupTest, HelpWhileWaitingRunsLaneWorkOnTheCaller) {
  // A single-worker executor whose worker is pinned: the main thread's
  // HelpWhileWaiting must pick up the sync-lane task itself, and must NOT
  // touch the background lane.
  Executor executor(1);
  std::atomic<bool> pinned_started{false};
  std::atomic<bool> pinned_release{false};
  executor.Submit([&pinned_started, &pinned_release] {
    pinned_started.store(true);
    while (!pinned_release.load()) std::this_thread::sleep_for(1ms);
  });
  // The worker must own the pinning task before anything else is queued —
  // otherwise the helping main thread could claim it and spin in it.
  ASSERT_TRUE(SpinUntil([&] { return pinned_started.load(); }));
  std::atomic<bool> sync_ran{false};
  std::atomic<bool> background_ran{false};
  executor.Submit([&sync_ran] { sync_ran.store(true); },
                  Executor::Lane::kSync);
  executor.Submit([&background_ran] { background_ran.store(true); },
                  Executor::Lane::kBackground);
  executor.HelpWhileWaiting([&] { return sync_ran.load(); });
  EXPECT_TRUE(sync_ran.load());
  EXPECT_FALSE(background_ran.load())
      << "helping must never run background tasks (they can block on solves)";
  pinned_release.store(true);
  ASSERT_TRUE(SpinUntil([&] { return background_ran.load(); }));
}

}  // namespace
}  // namespace htd::util
