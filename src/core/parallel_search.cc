#include "core/parallel_search.h"

#include <algorithm>
#include <mutex>

#include "core/search_steps.h"
#include "util/combinations.h"
#include "util/executor.h"

namespace htd {

int ThreadBudget::Claim(int want) {
  if (want <= 0) return 0;
  int current = available_.load(std::memory_order_relaxed);
  while (current > 0) {
    int granted = std::min(current, want);
    if (available_.compare_exchange_weak(current, current - granted,
                                         std::memory_order_relaxed)) {
      return granted;
    }
  }
  return 0;
}

void ThreadBudget::Release(int count) {
  if (count > 0) available_.fetch_add(count, std::memory_order_relaxed);
}

SearchOutcome DriveCandidates(int n, int k, int first_limit, int extra_workers,
                              util::TaskGroup* group, StatsCounters& stats,
                              const CandidateFn& try_candidate,
                              util::TraceParent trace) {
  const std::vector<util::SubsetChunk> chunks = util::MakeSubsetChunks(n, k, first_limit);
  if (chunks.empty()) return SearchOutcome::NotFound();

  if (extra_workers <= 0 || group == nullptr) {
    // Sequential: chunks in deterministic (size, first) order. The step
    // delta covers each candidate's full nested cost (see search_steps.h);
    // one slot did all of it, so it is both the total and the longest share.
    const long steps_before = CurrentSearchSteps();
    auto search = [&] {
      for (const util::SubsetChunk& chunk : chunks) {
        util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
        while (enumerator.Next()) {
          SearchOutcome outcome = try_candidate(enumerator.indices());
          if (outcome.status != SearchStatus::kNotFound) return outcome;
        }
      }
      return SearchOutcome::NotFound();
    };
    SearchOutcome result = search();
    const long steps = CurrentSearchSteps() - steps_before;
    stats.work_total.fetch_add(steps, std::memory_order_relaxed);
    stats.work_parallel.fetch_add(steps, std::memory_order_relaxed);
    return result;
  }

  // Parallel: slot tasks claim chunks from an atomic cursor; the first
  // kFound/kStopped outcome wins and stops everyone at the next candidate.
  const int num_workers = extra_workers + 1;
  std::atomic<size_t> next_chunk{0};
  std::atomic<int> done{0};  // 0 = running, 1 = found/stopped
  std::mutex result_mutex;
  SearchOutcome result = SearchOutcome::NotFound();
  std::vector<long> work(num_workers, 0);

  auto worker = [&](int slot) {
    // One span per worker: duration is the worker's whole share of this
    // level's search, so a trace shows how evenly the chunks divided.
    util::TraceScope span("sep_worker", trace, static_cast<uint64_t>(slot));
    const long steps_before = CurrentSearchSteps();
    while (done.load(std::memory_order_relaxed) == 0) {
      size_t chunk_index = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk_index >= chunks.size()) break;
      const util::SubsetChunk& chunk = chunks[chunk_index];
      util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
      while (enumerator.Next()) {
        if (done.load(std::memory_order_relaxed) != 0) {
          work[slot] = CurrentSearchSteps() - steps_before;
          return;
        }
        SearchOutcome outcome = try_candidate(enumerator.indices());
        if (outcome.status != SearchStatus::kNotFound) {
          {
            std::lock_guard<std::mutex> lock(result_mutex);
            // Keep the first decisive outcome; prefer kFound over kStopped so
            // a successful worker is not masked by a timeout racing in.
            if (result.status == SearchStatus::kNotFound ||
                (result.status == SearchStatus::kStopped &&
                 outcome.status == SearchStatus::kFound)) {
              result = std::move(outcome);
            }
            done.store(1, std::memory_order_relaxed);
          }
          work[slot] = CurrentSearchSteps() - steps_before;
          return;
        }
      }
    }
    work[slot] = CurrentSearchSteps() - steps_before;
  };

  // The extra slots go into a nested group so this call waits only on its
  // own tasks, never on sibling searches elsewhere in the flight. Slot 0
  // runs inline (the calling thread is a full participant); whatever the
  // fleet has idle steals the rest, and a stolen-late slot just finds the
  // chunk cursor drained.
  {
    util::TaskGroup local(*group);
    for (int t = 1; t < num_workers; ++t) {
      local.Spawn([&worker, t] { worker(t); });
    }
    local.Run([&worker] { worker(0); });
    local.Wait();
  }

  long total = 0;
  long max_work = 0;
  for (long w : work) {
    total += w;
    max_work = std::max(max_work, w);
  }
  stats.work_total.fetch_add(total, std::memory_order_relaxed);
  stats.work_parallel.fetch_add(max_work, std::memory_order_relaxed);
  return result;
}

}  // namespace htd
