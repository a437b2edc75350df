"""Measurement helpers of the benchmark: statistics, header and metric
parsers, and /proc readers. Pure functions, tested by test_measure.py
without a server."""

import math
import os
import statistics

def percentile(values, pct):
    """Linear-interpolated percentile (the 'inclusive' method: the minimum
    is the 0th and the maximum the 100th percentile)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def harrell_davis(values, pct):
    """Harrell-Davis percentile: a weighted mean of every order statistic,
    with Beta(p(n+1), (1-p)(n+1)) weights. On a small sample with gaps
    around the percentile it moves smoothly where a single order statistic
    jumps from one value to its neighbour."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct < 100:
        raise ValueError("Harrell-Davis needs 0 < pct < 100")
    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, value in enumerate(ordered, 1):
        upto = beta_cdf(i / n, a, b)
        total += (upto - below) * value
        below = upto
    return total


def beta_cdf(x, a, b):
    """Regularised incomplete beta function I_x(a, b): the continued
    fraction, evaluated by Lentz's method on the side where it converges."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a, b, x):
    tiny = 1e-300

    def guard(value):
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    result = d
    for m in range(1, 400):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / guard(1.0 + numerator * d)
            c = guard(1.0 + numerator / c)
            result *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return result


def supports_percentile(count, pct):
    """The ten-beyond rule: a percentile is reported only when at least ten
    samples lie beyond it."""
    return count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9  # 100 - 99.9 is inexact


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean_of_lowest(values, count):
    """Mean of the `count` lowest values (of all of them when there are
    fewer)."""
    lowest = sorted(values)[:count]
    return sum(lowest) / len(lowest)


def best_of(samples, fastest):
    """Each sample's value replaced by its key's best: the mean of the
    `fastest` lowest values recorded for that key. `samples` is a list of
    (key, value) pairs; the result keeps their order, so every sample still
    counts once in a percentile."""
    by_key = {}
    for key, value in samples:
        by_key.setdefault(key, []).append(value)
    best = {key: mean_of_lowest(values, fastest) for key, values in by_key.items()}
    return [best[key] for key, _ in samples]


def spread(values):
    """Median, quartiles and the interquartile range as a share of the
    median, the way statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / median if median else float("inf"),
        "range_share": (max(values) - min(values)) / median if median else float("inf"),
    }


def parse_server_timing(header):
    """'parse;dur=0.061, fingerprint;dur=0.4' -> {'parse': 0.061, ...}
    (milliseconds). Entries without a dur are skipped."""
    stages = {}
    for part in header.split(","):
        fields = [f.strip() for f in part.split(";")]
        if not fields[0]:
            continue
        for field in fields[1:]:
            if field.startswith("dur="):
                try:
                    stages[fields[0]] = float(field[4:])
                except ValueError:
                    pass
    return stages


def parse_prometheus(text):
    """Prometheus text exposition -> {(name, labels): value}. `labels` is the
    raw text between the braces ('' when there are none)."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            labels, value = rest.rsplit("}", 1)
        else:
            name, value = line.split(None, 1)
            labels = ""
        try:
            samples[(name, labels)] = float(value.split()[0])
        except (ValueError, IndexError):
            continue
    return samples


def metric(samples, name, labels=""):
    """One sample's value, 0 when absent."""
    return samples.get((name, labels), 0.0)


def histogram_delta(before, after, name, labels=""):
    """(sum delta, count delta) of a histogram between two scrapes. Only
    _sum and _count are used: the buckets are log2-wide."""
    d_sum = metric(after, name + "_sum", labels) - metric(before, name + "_sum", labels)
    d_count = metric(after, name + "_count", labels) - metric(before, name + "_count", labels)
    return d_sum, d_count


def proc_cpu_seconds(stat_text, ticks_per_second=None):
    """utime + stime of a /proc/PID/stat line, in seconds. The command name
    may hold spaces and parentheses, so fields are counted after the last
    ')'."""
    if ticks_per_second is None:
        ticks_per_second = os.sysconf("SC_CLK_TCK")
    fields = stat_text.rsplit(")", 1)[1].split()
    # Fields after the name start at field 3 (state); utime is field 14.
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / ticks_per_second


def proc_peak_rss_mb(status_text):
    """VmHWM of a /proc/PID/status text, in MiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def steal_ticks(proc_stat_text):
    """Steal ticks of the aggregate 'cpu' line of /proc/stat."""
    for line in proc_stat_text.splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            return int(fields[8]) if len(fields) > 8 else 0
    return 0


def read_text(path):
    with open(path) as handle:
        return handle.read()


def run_conditions():
    """Host state recorded with every run: load average and steal ticks."""
    try:
        load = [float(x) for x in read_text("/proc/loadavg").split()[:3]]
    except OSError:
        load = []
    try:
        steal = steal_ticks(read_text("/proc/stat"))
    except OSError:
        steal = None
    return {"loadavg": load, "steal_ticks": steal, "cpus": os.cpu_count()}
