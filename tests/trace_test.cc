// Tests for the trace ring / registry (util/trace.h) and the metrics
// registry (util/metrics.h). The concurrent cases are the reason this
// test runs under TSan in CI: a seqlock reader racing a writer must
// either see a consistent span or skip the slot, never a torn one.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace htd::util {
namespace {

TraceSpan MakeSpan(uint64_t id, uint64_t parent, uint64_t root,
                   const char* name, uint64_t tag = 0) {
  TraceSpan span;
  span.id = id;
  span.parent = parent;
  span.root = root;
  span.start_ns = id;  // any monotone-ish value
  span.duration_ns = 1;
  span.tag = tag;
  std::strncpy(span.name, name, sizeof(span.name) - 1);
  return span;
}

TEST(TraceRingTest, ReadsBackWhatWasPushed) {
  TraceRing ring;
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Push(MakeSpan(i, 0, i, "span"));
  }
  std::vector<TraceSpan> out;
  ring.ReadInto(&out);
  ASSERT_EQ(out.size(), 10u);
  std::set<uint64_t> ids;
  for (const TraceSpan& span : out) {
    ids.insert(span.id);
    EXPECT_EQ(span.Name(), "span");
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST(TraceRingTest, WraparoundKeepsNewestCapacitySpans) {
  TraceRing ring;
  const uint64_t total = TraceRing::kCapacity * 2 + 17;
  for (uint64_t i = 1; i <= total; ++i) {
    ring.Push(MakeSpan(i, 0, i, "wrap"));
  }
  EXPECT_EQ(ring.pushed(), total);
  std::vector<TraceSpan> out;
  ring.ReadInto(&out);
  ASSERT_EQ(out.size(), TraceRing::kCapacity);
  // Exactly the newest kCapacity ids survive.
  for (const TraceSpan& span : out) {
    EXPECT_GT(span.id, total - TraceRing::kCapacity);
    EXPECT_LE(span.id, total);
  }
}

TEST(TraceRingTest, LongNameIsTruncatedNotOverrun) {
  TraceRing ring;
  TraceSpan span = MakeSpan(1, 0, 1, "a-very-long-span-name-indeed");
  ring.Push(span);
  std::vector<TraceSpan> out;
  ring.ReadInto(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LE(out[0].Name().size(), sizeof(span.name));
  EXPECT_EQ(out[0].Name().substr(0, 8), "a-very-l");
}

// One writer spinning on Push while readers snapshot: every span a reader
// sees must satisfy the writer's invariant (tag == id). A torn read would
// surface as a mismatch; TSan additionally checks the memory ordering.
TEST(TraceRingTest, ConcurrentReadersSeeConsistentSlots) {
  TraceRing ring;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.Push(MakeSpan(i, 0, i, "race", /*tag=*/i));
      ++i;
    }
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> spans_seen{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 200; ++iter) {
        std::vector<TraceSpan> out;
        ring.ReadInto(&out);
        for (const TraceSpan& span : out) {
          ASSERT_EQ(span.tag, span.id);
          ASSERT_EQ(span.root, span.id);
        }
        spans_seen.fetch_add(out.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(spans_seen.load(), 0u);
}

TEST(TraceRegistryTest, NextIdIsUniqueAndNonZero) {
  TraceRegistry& registry = TraceRegistry::Instance();
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = registry.NextId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

TEST(TraceRegistryTest, ScopeNestingParentsUnderCurrent) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(true);
  uint64_t root_id = 0, child_id = 0;
  {
    TraceScope root("root-test");
    ASSERT_TRUE(root.armed());
    root_id = root.id();
    EXPECT_EQ(root.root(), root_id);
    {
      TraceScope child("child-test");
      ASSERT_TRUE(child.armed());
      child_id = child.id();
      EXPECT_EQ(child.root(), root_id);
      EXPECT_NE(child_id, root_id);
    }
  }
  // Both completed spans are findable, child parented under root.
  bool found_root = false, found_child = false;
  for (const TraceSpan& span : registry.Snapshot()) {
    if (span.id == root_id) {
      found_root = true;
      EXPECT_EQ(span.parent, 0u);
      EXPECT_EQ(span.Name(), "root-test");
    }
    if (span.id == child_id) {
      found_child = true;
      EXPECT_EQ(span.parent, root_id);
      EXPECT_EQ(span.root, root_id);
    }
  }
  EXPECT_TRUE(found_root);
  EXPECT_TRUE(found_child);
}

TEST(TraceRegistryTest, ZeroTraceParentIsInert) {
  TraceScope scope("untraced", TraceParent{});
  EXPECT_FALSE(scope.armed());
  EXPECT_EQ(scope.id(), 0u);
  EXPECT_EQ(scope.Seconds(), 0.0);
}

TEST(TraceRegistryTest, DisabledRegistryRecordsNothing) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(false);
  {
    TraceScope scope("while-off");
    EXPECT_FALSE(scope.armed());
  }
  registry.set_enabled(true);
  for (const TraceSpan& span : registry.Snapshot()) {
    EXPECT_NE(span.Name(), "while-off");
  }
}

TEST(TraceRegistryTest, AdoptedRootIdShowsUpInRecentRoots) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(true);
  const uint64_t request_id = registry.NextId();
  {
    TraceScope root("request", TraceRootId{request_id}, /*tag=*/42);
    TraceScope stage("solve", TraceParent{request_id, request_id});
  }
  auto roots = registry.RecentRoots(64);
  bool found = false;
  for (const TraceRegistry::RootTrace& trace : roots) {
    if (trace.root.id != request_id) continue;
    found = true;
    EXPECT_EQ(trace.root.tag, 42u);
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_EQ(trace.spans[0].Name(), "solve");
    EXPECT_EQ(trace.spans[0].root, request_id);
  }
  EXPECT_TRUE(found);
}

TEST(TraceRegistryTest, RecentRootsNewestFirstAndBounded) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(true);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    uint64_t id = registry.NextId();
    ids.push_back(id);
    TraceScope root("ordered", TraceRootId{id});
  }
  auto roots = registry.RecentRoots(3);
  ASSERT_LE(roots.size(), 3u);
  ASSERT_GE(roots.size(), 1u);
  // Newest of our batch comes before older ones (other tests' roots may
  // interleave, so only check relative order of ours).
  std::vector<uint64_t> seen;
  for (const auto& trace : roots) {
    for (uint64_t id : ids) {
      if (trace.root.id == id) seen.push_back(id);
    }
  }
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i - 1], seen[i]);
  }
}

// Many short-lived threads each record spans, as the parallel separator
// search does; spans must survive thread exit via the retired store.
TEST(TraceRegistryTest, SpansSurviveThreadExit) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(true);
  const uint64_t request_id = registry.NextId();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry, request_id, t] {
      TraceScope scope("worker", TraceParent{request_id, request_id},
                       static_cast<uint64_t>(t));
      (void)registry;
    });
  }
  for (std::thread& t : workers) t.join();
  size_t found = 0;
  for (const TraceSpan& span : registry.Snapshot()) {
    if (span.root == request_id && span.Name() == "worker") ++found;
  }
  EXPECT_EQ(found, 4u);
}

// Concurrent TraceScope recorders + Snapshot readers; primarily a TSan
// target (thread-local ring registration races the registry snapshot).
TEST(TraceRegistryTest, ConcurrentScopesAndSnapshots) {
  TraceRegistry& registry = TraceRegistry::Instance();
  registry.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        TraceScope root("stress");
        TraceScope child("stress-kid");
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot();
      (void)registry.RecentRoots(8);
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

TEST(TraceIdTest, HexRoundTrip) {
  EXPECT_EQ(TraceIdHex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(TraceIdHex(1), "0000000000000001");
  uint64_t id = 0;
  ASSERT_TRUE(ParseTraceId("0123456789abcdef", &id));
  EXPECT_EQ(id, 0x0123456789abcdefULL);
  ASSERT_TRUE(ParseTraceId(TraceIdHex(0xdeadbeefULL), &id));
  EXPECT_EQ(id, 0xdeadbeefULL);
}

TEST(TraceIdTest, ParseRejectsMalformedIds) {
  uint64_t id = 7;
  EXPECT_FALSE(ParseTraceId("", &id));
  EXPECT_FALSE(ParseTraceId("123", &id));                  // too short
  EXPECT_FALSE(ParseTraceId("0123456789abcdef0", &id));    // too long
  EXPECT_FALSE(ParseTraceId("0123456789abcdeg", &id));     // non-hex
  EXPECT_FALSE(ParseTraceId("0000000000000000", &id));     // zero id
  EXPECT_EQ(id, 7u);  // untouched on failure
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwoMicros) {
  // Bound of bucket i is 2^i microseconds.
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(10), 1024e-6);
  // An observation exactly at a bound lands in that bucket (le semantics).
  EXPECT_EQ(Histogram::BucketIndex(1e-6), 0);
  EXPECT_EQ(Histogram::BucketIndex(2e-6), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.1e-6), 2);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0);  // clamped
  // Beyond the largest finite bound: the +Inf slot.
  EXPECT_EQ(Histogram::BucketIndex(1e9), Histogram::kFiniteBuckets);
}

TEST(HistogramTest, ObserveAccumulatesCountAndSum) {
  Histogram h;
  h.Observe(0.001);
  h.Observe(0.002);
  h.Observe(0.004);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_NEAR(h.SumSeconds(), 0.007, 1e-9);
  uint64_t total = 0;
  for (int i = 0; i < Histogram::kBucketCount; ++i) total += h.BucketValue(i);
  EXPECT_EQ(total, 3u);
}

TEST(MetricsRegistryTest, CounterIdentityByNameAndLabels) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("requests_total", "route=\"x\"");
  Counter& b = registry.GetCounter("requests_total", "route=\"x\"");
  Counter& c = registry.GetCounter("requests_total", "route=\"y\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Add(2);
  EXPECT_EQ(b.Value(), 2u);
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsRegistryTest, RenderReadsInRegistrationOrder) {
  // Parts registered before their wholes are read first, so one page never
  // shows a part exceeding its whole.
  MetricsRegistry registry;
  registry.GetCounter("part_total").Add(3);
  registry.GetCounter("whole_total").Add(5);
  registry.RegisterCallback("gauge_now", "", "gauge", [] { return 1.5; });
  const std::string text = registry.RenderPrometheus();
  const size_t part = text.find("\npart_total 3\n");
  const size_t whole = text.find("\nwhole_total 5\n");
  const size_t gauge = text.find("\ngauge_now 1.5\n");
  ASSERT_NE(part, std::string::npos) << text;
  ASSERT_NE(whole, std::string::npos) << text;
  ASSERT_NE(gauge, std::string::npos) << text;
  EXPECT_LT(part, whole);
  EXPECT_LT(whole, gauge);
}

TEST(MetricsRegistryTest, RenderGroupsEachFamilyInFirstRegistrationOrder) {
  // Series of one family registered around other families still render as
  // one group under one TYPE line, families in first-registration order.
  MetricsRegistry registry;
  registry.GetCounter("a_total", "x=\"1\"").Add(1);
  registry.GetHistogram("b_seconds", "stage=\"one\"").Observe(0.001);
  registry.GetCounter("c_total").Add(2);
  registry.GetCounter("a_total", "x=\"2\"").Add(3);
  registry.GetHistogram("b_seconds", "stage=\"two\"").Observe(0.002);
  const std::string text = registry.RenderPrometheus();
  const std::vector<std::string> in_order = {
      "# TYPE a_total counter\n",
      "a_total{x=\"1\"} 1\n",
      "a_total{x=\"2\"} 3\n",
      "# TYPE b_seconds histogram\n",
      "b_seconds_count{stage=\"one\"} 1\n",
      "b_seconds_bucket{stage=\"two\",le=\"1e-06\"} 0\n",
      "b_seconds_count{stage=\"two\"} 1\n",
      "# TYPE c_total counter\n",
      "c_total 2\n"};
  size_t last = 0;
  for (const std::string& line : in_order) {
    const size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos) << line << " missing in:\n" << text;
    EXPECT_GE(at, last) << line << " out of order in:\n" << text;
    last = at;
  }
  for (const char* family : {"a_total", "b_seconds", "c_total"}) {
    const std::string type = std::string("# TYPE ") + family + " ";
    EXPECT_EQ(text.find(type, text.find(type) + 1), std::string::npos)
        << family << " announced twice in:\n" << text;
  }
}

TEST(MetricsRegistryTest, RenderPrometheusShape) {
  MetricsRegistry registry;
  registry.SetHelp("req_total", "Requests served.");
  registry.GetCounter("req_total", "route=\"a\"").Add(4);
  registry.GetHistogram("lat_seconds").Observe(0.5);
  registry.GetHistogram("lat_seconds").Observe(0.5);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP req_total Requests served.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{route=\"a\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 1\n"), std::string::npos);
  // Buckets are cumulative: the +Inf count equals the total count.
  EXPECT_EQ(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeInRender) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("stage_seconds");
  h.Observe(0.5e-6);  // bucket 0 (le 1us)
  h.Observe(3e-6);    // bucket 2 (le 4us)
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("stage_seconds_bucket{le=\"1e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_bucket{le=\"4e-06\"} 2\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentGetAndAdd) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared_total").Add();
        registry.GetHistogram("shared_seconds").Observe(1e-3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared_total").Value(), 4000u);
  EXPECT_EQ(registry.GetHistogram("shared_seconds").Count(), 4000u);
}

TEST(FormatMetricValueTest, IntegersBareDoublesWithPoint) {
  EXPECT_EQ(FormatMetricValue(4.0), "4");
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(1.5), "1.5");
}

}  // namespace
}  // namespace htd::util
