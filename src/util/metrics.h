// Cheap monotonic counters, callback gauges, and log-bucketed latency
// histograms behind a registry that renders Prometheus text exposition.
//
// The registry is instantiable (not a singleton): each DecompositionService
// owns one, so tests running several servers in one process keep their
// counters separate. Updates are relaxed atomics; registration takes a
// mutex once per metric. RenderPrometheus() reads every metric exactly
// once, family by family: families in the order of their first
// registration, each family's series together in registration order.
// Register a part's family before its whole's (cache hits before
// submissions) and one page can never report a part exceeding its whole.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace htd::util {

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram with log-2 bucket bounds: 1us, 2us, 4us, ... 2^26us
/// (~67s), then +Inf. Observations are clamped at zero.
class Histogram {
 public:
  static constexpr int kFiniteBuckets = 27;  ///< bounds 2^0 .. 2^26 us
  static constexpr int kBucketCount = kFiniteBuckets + 1;  ///< + the +Inf one

  void Observe(double seconds);

  /// The bucket an observation of `seconds` falls into (for tests).
  static int BucketIndex(double seconds);
  /// Upper bound of finite bucket `i` in seconds; +Inf slot excluded.
  static double BucketBound(int i);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double SumSeconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  uint64_t BucketValue(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBucketCount] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

class MetricsRegistry {
 public:
  /// Returns the counter registered under (name, labels), creating it on
  /// first use. References stay valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name, const std::string& labels = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& labels = "");

  /// Registers a callback sampled at render time. `type` is the
  /// Prometheus type to advertise ("gauge" or "counter").
  void RegisterCallback(const std::string& name, const std::string& labels,
                        const std::string& type,
                        std::function<double()> callback);

  /// Attaches a HELP line to a metric family.
  void SetHelp(const std::string& name, const std::string& help);

  /// Prometheus text exposition (version 0.0.4) of everything registered.
  std::string RenderPrometheus() const;

 private:
  struct Entry {
    std::string name;
    std::string labels;
    std::string type;  ///< "counter", "gauge", or "histogram"
    Counter* counter = nullptr;
    Histogram* histogram = nullptr;
    std::function<double()> callback;
  };

  Entry* Find(const std::string& name, const std::string& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::map<std::string, std::string> help_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

/// Formats a double the way the registry renders values: integers without
/// a decimal point, everything else with %g.
std::string FormatMetricValue(double value);

}  // namespace htd::util
