// Cooperative cancellation with optional deadline.
//
// All solvers poll a CancelToken at candidate-separator granularity so the
// benchmark runner can enforce per-instance timeouts in-process (the paper's
// experiments used HTCondor job limits; see "Substitutions" in
// docs/ARCHITECTURE.md).
#pragma once

#include <atomic>
#include <chrono>

namespace htd::util {

class CancelToken {
 public:
  CancelToken() = default;

  /// Requests cooperative stop; ShouldStop() returns true from now on.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  /// Arms a wall-clock deadline after which ShouldStop() returns true.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_.store(true, std::memory_order_relaxed);
  }
  void SetTimeout(std::chrono::duration<double> timeout) {
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(timeout));
  }

  bool ShouldStop() const {
    if (stop_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_.load(std::memory_order_relaxed) &&
        std::chrono::steady_clock::now() >= deadline_) {
      stop_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> stop_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace htd::util
