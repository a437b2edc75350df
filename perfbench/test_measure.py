"""Self-tests of the benchmark's measurement code. No server is started.

    python3 perfbench/test_measure.py

The last test builds the harness (as run.py does) and runs its checker
self-test: the checker must reject the decomposition a renamed
MakeGrid(3,3) gets back from the result cache at the seed.
"""

import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import measure  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_inclusive_interpolation(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(measure.percentile(values, 50), 5.5)
        self.assertAlmostEqual(measure.percentile(values, 0), 1)
        self.assertAlmostEqual(measure.percentile(values, 100), 10)
        self.assertAlmostEqual(measure.percentile(values, 90), 9.1)

    def test_order_does_not_matter(self):
        self.assertEqual(measure.percentile([3, 1, 2], 50), 2)

    def test_single_and_empty(self):
        self.assertEqual(measure.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            measure.percentile([], 50)

    def test_p99_never_extrapolates(self):
        values = list(range(1, 73))
        self.assertLessEqual(measure.percentile(values, 99), 72)


class HarrellDavisTest(unittest.TestCase):
    def test_beta_cdf_closed_forms(self):
        for x in (0.1, 0.5, 0.9):
            self.assertAlmostEqual(measure.beta_cdf(x, 1, 1), x, places=12)
            self.assertAlmostEqual(measure.beta_cdf(x, 2, 1), x * x, places=12)
            self.assertAlmostEqual(measure.beta_cdf(x, 1, 3), 1 - (1 - x) ** 3, places=12)
        self.assertAlmostEqual(measure.beta_cdf(0.5, 36.5, 36.5), 0.5, places=12)
        self.assertEqual(measure.beta_cdf(0.0, 2, 2), 0.0)
        self.assertEqual(measure.beta_cdf(1.0, 2, 2), 1.0)

    def test_symmetric_and_constant_samples(self):
        self.assertAlmostEqual(measure.harrell_davis(list(range(1, 10)), 50), 5.0)
        self.assertAlmostEqual(measure.harrell_davis([3.0] * 72, 99), 3.0)
        self.assertAlmostEqual(measure.harrell_davis([4, 1, 3, 2], 50),
                               measure.harrell_davis([1, 2, 3, 4], 50))

    def test_one_value_crossing_the_median_moves_it_a_little(self):
        # 72 values with a gap at the median; one value crossing it moves
        # the order-statistic median by most of the gap, Harrell-Davis by
        # a fraction of that.
        low = [1.0 + i / 100 for i in range(36)]
        high = [10.0 + i / 100 for i in range(36)]
        crossed = low[:-1] + [10.5] + high
        plain = measure.percentile(crossed, 50) - measure.percentile(low + high, 50)
        smooth = (measure.harrell_davis(crossed, 50) -
                  measure.harrell_davis(low + high, 50))
        self.assertGreater(plain, 4.0)
        self.assertLess(smooth, plain / 3)

    def test_rejects_edges_and_empty(self):
        with self.assertRaises(ValueError):
            measure.harrell_davis([1, 2], 100)
        with self.assertRaises(ValueError):
            measure.harrell_davis([], 50)


class TenBeyondRuleTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertTrue(measure.supports_percentile(1000, 99))
        self.assertFalse(measure.supports_percentile(999, 99))

    def test_other_percentiles(self):
        self.assertTrue(measure.supports_percentile(20, 50))
        self.assertFalse(measure.supports_percentile(72, 90))
        self.assertTrue(measure.supports_percentile(10000, 99.9))
        self.assertFalse(measure.supports_percentile(9999, 99.9))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(measure.geomean([1, 100]), 10)
        self.assertAlmostEqual(measure.geomean([2, 8]), 4)
        self.assertAlmostEqual(measure.geomean([5]), 5)

    def test_rejects_non_positive_and_empty(self):
        with self.assertRaises(ValueError):
            measure.geomean([1, 0])
        with self.assertRaises(ValueError):
            measure.geomean([])


class BestOfTest(unittest.TestCase):
    def test_mean_of_the_fastest_per_key(self):
        samples = [("a", 5.0), ("b", 1.0), ("a", 1.0), ("a", 2.0), ("a", 3.0),
                   ("b", 9.0)]
        # a: mean of 1, 2, 3; b has only two values: mean of both.
        self.assertEqual(measure.best_of(samples, 3), [2.0, 5.0, 2.0, 2.0, 2.0, 5.0])

    def test_a_stall_on_some_sends_does_not_move_it(self):
        quiet = [(k, 1.0 + k / 10) for k in range(4) for _ in range(8)]
        stalled = [(k, v + (20.0 if i % 2 else 0.0)) for i, (k, v) in enumerate(quiet)]
        self.assertEqual(measure.best_of(stalled, 3), measure.best_of(quiet, 3))

    def test_mean_of_lowest(self):
        self.assertEqual(measure.mean_of_lowest([5, 1, 3, 2], 3), 2)
        self.assertEqual(measure.mean_of_lowest([4, 2], 3), 3)

    def test_fastest_one(self):
        self.assertEqual(measure.best_of([(1, 4.0), (1, 3.0)], 1), [3.0, 3.0])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        report = measure.spread([10, 11, 12, 13, 14])
        self.assertAlmostEqual(report["median"], 12)
        self.assertAlmostEqual(report["q1"], 10.5)
        self.assertAlmostEqual(report["q3"], 13.5)
        self.assertAlmostEqual(report["iqr_share"], 3 / 12)
        self.assertAlmostEqual(report["range_share"], 4 / 12)


class ServerTimingTest(unittest.TestCase):
    def test_decompose_header(self):
        header = ("parse;dur=0.061, fingerprint;dur=0.412, cache;dur=0.003, "
                  "schedule;dur=0.000, solve;dur=0.000, serialise;dur=0.020")
        stages = measure.parse_server_timing(header)
        self.assertEqual(list(stages), ["parse", "fingerprint", "cache",
                                        "schedule", "solve", "serialise"])
        self.assertAlmostEqual(stages["fingerprint"], 0.412)
        self.assertEqual(stages["solve"], 0.0)

    def test_query_header_and_junk(self):
        stages = measure.parse_server_timing(
            "parse;dur=1.5, decompose;dur=0.1;desc=\"x\", pick, execute;dur=x")
        self.assertEqual(stages, {"parse": 1.5, "decompose": 0.1})
        self.assertEqual(measure.parse_server_timing(""), {})


class PrometheusTest(unittest.TestCase):
    BEFORE = """# HELP htd_request_seconds HTTP request latency by route.
# TYPE htd_request_seconds histogram
htd_request_seconds_bucket{route="decompose",le="1e-06"} 0
htd_request_seconds_bucket{route="decompose",le="+Inf"} 10
htd_request_seconds_sum{route="decompose"} 0.01
htd_request_seconds_count{route="decompose"} 10
htd_request_seconds_sum{route="metrics"} 0.5
htd_request_seconds_count{route="metrics"} 1
# TYPE htd_cache_hits_total counter
htd_cache_hits_total 7
"""
    AFTER = BEFORE.replace("_sum{route=\"decompose\"} 0.01",
                           "_sum{route=\"decompose\"} 0.03") \
                  .replace("_count{route=\"decompose\"} 10",
                           "_count{route=\"decompose\"} 30") \
                  .replace("htd_cache_hits_total 7", "htd_cache_hits_total 27")

    def test_parse(self):
        samples = measure.parse_prometheus(self.BEFORE)
        self.assertEqual(samples[("htd_cache_hits_total", "")], 7)
        self.assertEqual(
            samples[("htd_request_seconds_count", 'route="decompose"')], 10)
        self.assertEqual(measure.metric(samples, "absent_total"), 0.0)

    def test_histogram_delta_uses_sum_and_count(self):
        before = measure.parse_prometheus(self.BEFORE)
        after = measure.parse_prometheus(self.AFTER)
        d_sum, d_count = measure.histogram_delta(
            before, after, "htd_request_seconds", 'route="decompose"')
        self.assertAlmostEqual(d_sum, 0.02)
        self.assertEqual(d_count, 20)
        self.assertAlmostEqual(
            measure.metric(after, "htd_cache_hits_total") -
            measure.metric(before, "htd_cache_hits_total"), 20)


class ProcReaderTest(unittest.TestCase):
    def test_cpu_with_awkward_command_name(self):
        # utime (field 14) = 250 ticks, stime (field 15) = 50 ticks.
        fields = ["S", "1", "1", "1", "0", "-1", "0", "0", "0", "0", "0",
                  "250", "50", "0", "0", "20", "0", "4", "0", "100"]
        stat = "4242 (hd server) (x)) " + " ".join(fields) + "\n"
        self.assertAlmostEqual(measure.proc_cpu_seconds(stat, 100), 3.0)

    def test_cpu_of_this_process(self):
        stat = measure.read_text("/proc/self/stat")
        self.assertGreaterEqual(measure.proc_cpu_seconds(stat), 0.0)

    def test_peak_rss(self):
        status = "Name:\thdserver\nVmPeak:\t  99999 kB\nVmHWM:\t   10240 kB\n"
        self.assertAlmostEqual(measure.proc_peak_rss_mb(status), 10.0)
        self.assertGreater(
            measure.proc_peak_rss_mb(measure.read_text("/proc/self/status")), 0)
        with self.assertRaises(ValueError):
            measure.proc_peak_rss_mb("Name:\tx\n")

    def test_steal_ticks(self):
        text = "cpu  10 0 20 300 4 0 1 17 0 0\ncpu0 5 0 10 150 2 0 0 9 0 0\n"
        self.assertEqual(measure.steal_ticks(text), 17)

    def test_run_conditions(self):
        conditions = measure.run_conditions()
        self.assertEqual(len(conditions["loadavg"]), 3)


class CheckerTest(unittest.TestCase):
    """The output checker rejects a renamed copy's cache-hit decomposition."""

    def test_renamed_grid_cache_hit_is_rejected(self):
        import run
        try:
            harness, _ = run.build()
        except run.BenchError as error:
            self.skipTest(str(error))
        out = subprocess.run([str(harness), "selftest"], stdout=subprocess.PIPE,
                             text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn('renamed cache hit -> "invalid_decomposition"', out.stdout)


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)
    unittest.main()
