#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace htd::util {

void Histogram::Observe(double seconds) {
  int bucket = BucketIndex(seconds);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (seconds > 0) {
    sum_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
  }
}

int Histogram::BucketIndex(double seconds) {
  if (!(seconds > 0)) return 0;
  double us = seconds * 1e6;
  for (int i = 0; i < kFiniteBuckets; ++i) {
    if (us <= static_cast<double>(1ull << i)) return i;
  }
  return kFiniteBuckets;  // +Inf
}

double Histogram::BucketBound(int i) {
  return static_cast<double>(1ull << i) * 1e-6;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) return *e->counter;
  counters_.push_back(std::make_unique<Counter>());
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = "counter";
  entry->counter = counters_.back().get();
  entries_.push_back(std::move(entry));
  return *counters_.back();
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) return *e->histogram;
  histograms_.push_back(std::make_unique<Histogram>());
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = "histogram";
  entry->histogram = histograms_.back().get();
  entries_.push_back(std::move(entry));
  return *histograms_.back();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const std::string& labels,
                                       const std::string& type,
                                       std::function<double()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) {
    e->callback = std::move(callback);
    e->type = type;
    return;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = type;
  entry->callback = std::move(callback);
  entries_.push_back(std::move(entry));
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                              const std::string& labels) {
  for (auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) return entry.get();
  }
  return nullptr;
}

std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

namespace {

std::string Braced(const std::string& labels) {
  if (labels.empty()) return "";
  return "{" + labels + "}";
}

std::string WithLe(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return "{" + labels + ",le=\"" + le + "\"}";
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The text format wants each family's samples in one group: order the
  // series by their family's first registration, keeping registration order
  // inside a family.
  std::map<std::string, size_t> family_rank;
  std::vector<const Entry*> order;
  for (const auto& entry : entries_) {
    family_rank.emplace(entry->name, family_rank.size());
    order.push_back(entry.get());
  }
  std::stable_sort(order.begin(), order.end(),
                   [&family_rank](const Entry* a, const Entry* b) {
                     return family_rank.at(a->name) < family_rank.at(b->name);
                   });
  std::string out;
  out.reserve(4096);
  std::map<std::string, bool> typed;
  for (const Entry* entry : order) {
    if (!typed.count(entry->name)) {
      typed[entry->name] = true;
      auto help = help_.find(entry->name);
      if (help != help_.end()) {
        out += "# HELP " + entry->name + " " + help->second + "\n";
      }
      out += "# TYPE " + entry->name + " " + entry->type + "\n";
    }
    if (entry->histogram != nullptr) {
      const Histogram& h = *entry->histogram;
      uint64_t cumulative = 0;
      for (int i = 0; i < Histogram::kFiniteBuckets; ++i) {
        cumulative += h.BucketValue(i);
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", Histogram::BucketBound(i));
        out += entry->name + "_bucket" + WithLe(entry->labels, bound) + " " +
               FormatMetricValue(static_cast<double>(cumulative)) + "\n";
      }
      cumulative += h.BucketValue(Histogram::kFiniteBuckets);
      out += entry->name + "_bucket" + WithLe(entry->labels, "+Inf") + " " +
             FormatMetricValue(static_cast<double>(cumulative)) + "\n";
      out += entry->name + "_sum" + Braced(entry->labels) + " " +
             FormatMetricValue(h.SumSeconds()) + "\n";
      out += entry->name + "_count" + Braced(entry->labels) + " " +
             FormatMetricValue(static_cast<double>(h.Count())) + "\n";
      continue;
    }
    double value = 0.0;
    if (entry->counter != nullptr) {
      value = static_cast<double>(entry->counter->Value());
    } else if (entry->callback) {
      value = entry->callback();
    }
    out += entry->name + Braced(entry->labels) + " " +
           FormatMetricValue(value) + "\n";
  }
  return out;
}

}  // namespace htd::util
