// Tests for rng, stats, cancel token and timer.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace htd::util {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleDistinctIsSortedAndDistinct) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleDistinct(10, 30, 7);
    ASSERT_EQ(sample.size(), 7u);
    for (size_t i = 0; i < sample.size(); ++i) {
      EXPECT_GE(sample[i], 10);
      EXPECT_LE(sample[i], 30);
      if (i > 0) {
        EXPECT_LT(sample[i - 1], sample[i]);
      }
    }
  }
}

TEST(RngTest, SampleDistinctFullUniverse) {
  Rng rng(13);
  auto sample = rng.SampleDistinct(0, 4, 5);
  EXPECT_EQ(sample, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ForkDiverges) {
  Rng rng(5);
  Rng child = rng.Fork();
  EXPECT_NE(rng.Next64(), child.Next64());
}

TEST(StatsTest, EmptyStats) {
  RunningStats stats;
  EXPECT_EQ(stats.Count(), 0);
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Max(), 0.0);
  EXPECT_EQ(stats.StdDev(), 0.0);
}

TEST(StatsTest, MeanMaxStdDev) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.Count(), 8);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_NEAR(stats.StdDev(), 2.0, 1e-9);  // classic textbook data set
}

TEST(StatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.Max(), 3.5);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 0.0);
}

TEST(CancelTest, ManualStop) {
  CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  token.RequestStop();
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTest, DeadlineInThePast) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTest, DeadlineInTheFuture) {
  CancelToken token;
  token.SetTimeout(std::chrono::duration<double>(60.0));
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancelTest, StopFromAnotherThread) {
  CancelToken token;
  std::thread stopper([&] { token.RequestStop(); });
  stopper.join();
  EXPECT_TRUE(token.ShouldStop());
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.015);
}

}  // namespace
}  // namespace htd::util
