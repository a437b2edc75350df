#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload serve-query --repeat 5 --seed 1   # steadiness report

Builds the program from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks every output, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
line before it holds the run's details (failures by cause, run conditions);
build output and logs go to stderr. See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import measure  # noqa: E402

WORKLOADS = ("solve-corpus", "serve-warm", "serve-query")
# hdserver exactly as the workloads specify it.
SERVER_FLAGS = ["--host", "127.0.0.1", "--port", "0", "--workers", "2",
                "--io-threads", "2", "--loop-threads", "1", "--no-save-on-exit"]
SETUPS_PER_POINT = 12    # hdserver set-ups before and after the windows;
                         # setup_s is the median of all of them
# Latency metrics take each distinct op's best: the mean of its BEST_OF
# fastest repetitions (a served request's sends, a corpus instance's runs).
BEST_OF = 3
# A run is invalid when the generator itself, not the server, made requests
# late: p99 of (send - schedule) over requests a free connection waited for.
MAX_GENERATOR_LATENESS_MS = 10.0
STEP_TIMEOUT_S = 150.0   # no single step of a run may take longer

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "geomean_ms": "ms", "p50_ms": "ms",
    "p99_ms": "ms", "solved": "count", "ok_share": "ratio",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "net.server_ms": "ms", "net.transit_ms": "ms", "net.lateness_ms": "ms",
    "net.shed": "count",
    "hypergraph.parse_ms": "ms", "hypergraph.parse_direct_ms": "ms",
    "canonical.fingerprint_ms": "ms", "canonical.fingerprint_direct_ms": "ms",
    "canonical.fingerprint_share": "ratio",
    "result_cache.lookup_ms": "ms", "result_cache.hit_ratio": "ratio",
    "scheduler.wait_ms": "ms", "qa.probes_per_op": "count/op",
    "executor.peak_width": "threads", "executor.steals_per_op": "count/op",
    "executor.busy_share": "ratio",
    "core.solve_ms": "ms", "core.separators_per_op": "count/op",
    "core.recursive_calls_per_op": "count/op", "core.work_speedup": "ratio",
    "core.depth_ratio": "ratio", "core.cancelled_probes": "count",
    "decomp.split_us": "us", "decomp.serialise_ms": "ms",
    "decomp.validate_ms": "ms",
    "qa.parse_ms": "ms", "qa.parse_direct_ms": "ms", "qa.decompose_ms": "ms",
    "qa.pick_ms": "ms",
    "cq.execute_ms": "ms", "cq.execute_direct_ms": "ms",
    "trace.overhead_share": "ratio",
}


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("program sources not found next to perfbench/ "
                         "(expected ../CMakeLists.txt and ../src)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=300)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 2), "--target", "perfbench_harness",
                    "hdserver"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=850)
    return build_dir / "perfbench_harness", build_dir / "htd" / "hdserver"


# --------------------------------------------------------------------------
# Processes


class Server:
    """One hdserver child. `start()` returns the set-up time: from spawning
    the process until its "listening" line (printed after the snapshot
    restore and the bind)."""

    def __init__(self, binary, snapshot, log_path):
        self.args = [str(binary)] + SERVER_FLAGS
        if snapshot:
            self.args += ["--snapshot", snapshot]
        self.log_path = log_path
        self.proc = None
        self.port = None

    def start(self):
        t0 = time.perf_counter()
        with open(self.log_path, "a") as log_file:
            self.proc = subprocess.Popen(self.args, stdout=subprocess.PIPE,
                                         stderr=log_file, text=True)
        deadline = t0 + 60
        while True:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            if not ready:
                raise BenchError("hdserver did not start listening")
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("hdserver exited during start-up")
            if "listening on" in line:
                elapsed = time.perf_counter() - t0
                address = line.split("listening on", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return elapsed

    def stat(self):
        return measure.read_text("/proc/%d/stat" % self.proc.pid)

    def status(self):
        return measure.read_text("/proc/%d/status" % self.proc.pid)

    def scrape(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            if response.status != 200:
                raise BenchError("/v1/metrics answered %d" % response.status)
            return measure.parse_prometheus(response.read().decode())
        except OSError as error:
            raise BenchError("hdserver is not answering (%s; exit status %s)"
                             % (error, self.proc.poll()))
        finally:
            conn.close()

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# This host's vCPUs halt when idle, and a halted vCPU runs again only when
# the hypervisor schedules it, which takes as long as the rest of the host
# makes it take. Every hand-off between threads of the program (and between
# the client and the server) pays that wait, so without this a run measures
# the neighbours (README "Latency"). While the program is measured, one busy
# loop per CPU keeps every vCPU from halting, as idle=poll or a polling
# cpuidle driver would: it runs at SCHED_IDLE, which gets the CPU only when
# no other task wants it, in a process of its own, so no CPU figure of the
# program counts it. A loop that cannot lower its own priority exits instead
# of spinning; one whose runner dies stops within 0.1 s.
SPINNER = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("spinning", flush=True)
parent = os.getppid()
while os.getppid() == parent:
    until = time.monotonic() + 0.1
    while time.monotonic() < until:
        pass
"""


class IdleSpinners:
    """The busy loops above, spinning for the duration of a with block."""

    def __enter__(self):
        self.procs = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-c", SPINNER, str(cpu)], stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True))
            for p in self.procs:  # a line once it spins, EOF if it cannot
                if select.select([p.stdout], [], [], 10.0)[0]:
                    p.stdout.readline()
        except BaseException:
            self.__exit__()
            raise
        return self

    def running(self):
        """How many loops are spinning (all of them, unless the host refused
        SCHED_IDLE)."""
        return sum(1 for p in self.procs if p.poll() is None)

    def __exit__(self, *_):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
        for p in self.procs:
            p.wait()
            p.stdout.close()


class Harness:
    """The compiled half of the benchmark (perfbench_harness) and its line
    handshake."""

    def __init__(self, args):
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def event(self, *expected):
        ready, _, _ = select.select([self.proc.stdout], [], [], STEP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("harness stopped before event %s" % (expected,))
        message = json.loads(line)
        if message.get("event") not in expected:
            raise BenchError("harness sent %s, expected %s" % (message, expected))
        return message

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# --------------------------------------------------------------------------
# Workloads


def count_failures(causes):
    failures = {}
    for cause in causes:
        if cause:
            failures[cause] = failures.get(cause, 0) + 1
    return failures


def run_corpus(harness_bin, work, seed, trace):
    out = work / "corpus.json"
    spans_path = work / "spans.jsonl"
    args = [str(harness_bin), "corpus", "--seed", str(seed), "--trace", str(trace),
            "--out", str(out)]
    if trace:
        args += ["--spans", str(spans_path)]
    with IdleSpinners() as spinners:
        subprocess.run(args, check=True, timeout=175, stdout=sys.stderr)
        spinning = spinners.running()
    data = json.loads(out.read_text())
    deadline_ms = data["deadline"] * 1e3

    measured = [p for p in data["passes"] if not trace or p["traced"]]
    runs = [r for p in measured for r in p["runs"]]
    causes = [r["cause"] for r in runs]
    failures = count_failures(causes)
    # Every instance runs once per pass, on the same graph each time.
    # "solved" is the majority of an instance's runs. Its time is the mean of
    # its BEST_OF fastest runs: a full-width solve stalls whenever the
    # hypervisor takes one of the vCPUs it runs on, and some runs escape that
    # (see README "Latency"). p50/p99 are over instances, of that time to the
    # solver's stop: the instances are sparse around the median
    # (neighbouring instances up to 1.5x apart), so they are Harrell-Davis
    # percentiles, which weigh the neighbouring ranks too instead of jumping
    # to the next instance when one crosses over.
    solved = 0
    instance_ms = []
    for rs in by_instance(runs).values():
        ok_solved = [bool(r["solved"]) and not r["cause"] for r in rs]
        solved += 1 if sum(ok_solved) * 2 > len(rs) else 0
        instance_ms.append(measure.mean_of_lowest([r["s"] * 1e3 for r in rs], BEST_OF))
    wall = sum(p["wall"] for p in measured)
    cpu = sum(measure.proc_cpu_seconds(p["proc_after"]["stat"]) -
              measure.proc_cpu_seconds(p["proc_before"]["stat"]) for p in measured)
    peak_rss = measure.proc_peak_rss_mb(data["proc_after"]["status"])
    e2e = {
        "setup_s": statistics.median(data["setup_s"]),
        "ops_per_s": len(runs) / wall,
        "geomean_ms": verdict_geomean_ms(runs, deadline_ms),
        "p50_ms": measure.harrell_davis(instance_ms, 50),
        "p99_ms": measure.harrell_davis(instance_ms, 99),
        "solved": solved,
        "ok_share": (len(runs) - sum(failures.values())) / len(runs),
        "cpu_ms_per_op": cpu * 1e3 / len(runs),
        "peak_rss_mb": peak_rss,
    }
    info = {"instances": len(data["instances"]), "passes": len(measured),
            "idle_spinners": spinning,
            "runs": len(runs),
            "failures": failures, "deadline_s": data["deadline"],
            "references": {s: sum(1 for i in data["instances"] if i["ref_source"] == s)
                           for s in ("known", "detk", "none")}}
    layers = None
    if trace:
        layers = corpus_layers(data, measured, spans_path)
    return e2e, layers, len(runs), sum(failures.values()), info


def by_instance(runs):
    groups = {}
    for r in runs:
        groups.setdefault(r["i"], []).append(r)
    return groups


def verdict_geomean_ms(runs, deadline_ms):
    """Geomean over instances of each one's time to verdict, the mean of its
    BEST_OF fastest runs; unsolved runs count at the deadline."""
    return measure.geomean([
        measure.mean_of_lowest([r["s"] * 1e3 if r["solved"] else deadline_ms for r in rs],
                               BEST_OF)
        for rs in by_instance(runs).values()])


def corpus_layers(data, measured, spans_path):
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    probes = [s["attrs"] for s in spans if s["name"] == "submit"]
    solves = [p for p in probes if not p["cache_hit"]]
    ops = sum(len(p["runs"]) for p in measured)
    wall = sum(p["wall"] for p in measured)
    cpu = sum(measure.proc_cpu_seconds(p["proc_after"]["stat"]) -
              measure.proc_cpu_seconds(p["proc_before"]["stat"]) for p in measured)
    validate = [s["end"] - s["start"] for s in spans if s["name"] == "validate"]
    direct = data["direct"]
    untraced = [p for p in data["passes"] if not p["traced"]]

    def geo(passes):
        return verdict_geomean_ms([r for p in passes for r in p["runs"]],
                                  data["deadline"] * 1e3)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    depth_ratio = 0.0
    for p in probes:
        log_edges = max(1, (p["edges"] - 1).bit_length())  # ceil(log2 |E|)
        depth_ratio = max(depth_ratio, p["max_depth"] / log_edges)
    work_parallel = sum(p["work_parallel"] for p in probes)
    instance_ms = sum(s["end"] - s["start"] for s in spans if s["name"] == "instance") * 1e3
    layers = zero_layers()
    layers.update({
        "hypergraph.parse_direct_ms": direct["parse_s"] * 1e3 / direct["calls"],
        "canonical.fingerprint_ms": mean([p["fingerprint_s"] * 1e3 for p in probes]),
        "canonical.fingerprint_direct_ms": direct["fingerprint_s"] * 1e3 / direct["calls"],
        "canonical.fingerprint_share":
            sum(p["fingerprint_s"] for p in probes) * 1e3 / instance_ms if instance_ms else 0.0,
        "result_cache.lookup_ms": mean([p["cache_s"] * 1e3 for p in probes]),
        "result_cache.hit_ratio": mean([float(p["cache_hit"]) for p in probes]),
        "scheduler.wait_ms": mean([p["schedule_s"] * 1e3 for p in solves]),
        "qa.probes_per_op": len(probes) / ops,
        "executor.peak_width": mean([p["threads_used"] for p in solves]),
        "executor.steals_per_op": sum(p["steals"] for p in measured) / ops,
        "executor.busy_share": cpu / (data["workers"] * wall),
        "core.solve_ms": mean([p["solve_s"] * 1e3 for p in solves]),
        "core.separators_per_op": sum(p["separators"] for p in probes) / ops,
        "core.recursive_calls_per_op": sum(p["recursive_calls"] for p in probes) / ops,
        "core.work_speedup":
            sum(p["work_total"] for p in probes) / work_parallel if work_parallel else 0.0,
        "core.depth_ratio": depth_ratio,
        "core.cancelled_probes": sum(1 for p in probes if p["outcome"] == 2),
        "decomp.split_us": direct["split_s"] * 1e6 / direct["splits"],
        "decomp.validate_ms": mean(validate) * 1e3,
        "trace.overhead_share": geo(measured) / geo(untraced) - 1 if untraced else 0.0,
    })
    return layers


def zero_layers():
    """Every per-layer metric starts at 0: a layer off a workload's path
    does no work there."""
    return {name: 0.0 for name in LAYER_UNITS}


def run_serve(harness_bin, server_bin, work, workload, seed, seconds, trace):
    out = work / "serve.json"
    spans_path = work / "spans.jsonl"
    args = [str(harness_bin), workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--dir", str(work), "--out", str(out)]
    if trace:
        args += ["--spans", str(spans_path)]
    harness = Harness(args)
    server = None
    try:
        ready = harness.event("ready")
        snapshot = ready["snapshot"] or None
        if workload == "serve-query":
            # The renamed-query probe runs on a server of its own, restarted
            # whenever a request kills it (not counted as set-up).
            server = Server(server_bin, snapshot, work / "hdserver.log")
            server.start()
            harness.send("port %d" % server.port)
            while harness.event("probe_failed", "probe_done")["event"] == "probe_failed":
                try:
                    server.proc.wait(timeout=1.0)  # a killed server exits now
                except subprocess.TimeoutExpired:
                    harness.send("port %d alive" % server.port)
                    continue
                server.stop()
                server = Server(server_bin, snapshot, work / "hdserver.log")
                server.start()
                harness.send("port %d crashed" % server.port)
            server.stop()
        # Set-up: spawn, restore, listen. Sampled before and after the
        # windows, so the median spans the run; the last spawn before the
        # windows serves them.
        setups = []

        def sample_setups(keep_last):
            nonlocal server
            for i in range(SETUPS_PER_POINT):
                server = Server(server_bin, snapshot, work / "hdserver.log")
                setups.append(server.start())
                if not (keep_last and i + 1 == SETUPS_PER_POINT):
                    server.stop()

        sample_setups(keep_last=True)
        harness.send("port %d" % server.port)
        windows = []
        for _ in range(2 if trace else 1):
            harness.event("window")
            with IdleSpinners() as spinners:
                before = {"cpu": measure.proc_cpu_seconds(server.stat()),
                          "metrics": server.scrape(), "t": time.perf_counter(),
                          "conditions": measure.run_conditions()}
                harness.send("go")
                harness.event("window_done")
                after = {"cpu": measure.proc_cpu_seconds(server.stat()),
                         "metrics": server.scrape(), "t": time.perf_counter(),
                         "rss": measure.proc_peak_rss_mb(server.status()),
                         "conditions": measure.run_conditions(),
                         "spinners": spinners.running()}
            harness.send("ok")
            windows.append((before, after))
        harness.event("done")
        if harness.proc.wait(timeout=STEP_TIMEOUT_S) != 0:
            raise BenchError("harness failed")
        server.stop()
        sample_setups(keep_last=False)
    except BenchError:
        log_path = work / "hdserver.log"
        if log_path.exists():
            sys.stderr.write(log_path.read_text()[-2000:])
        raise
    finally:
        if server is not None:
            server.stop()
        harness.stop()

    data = json.loads(out.read_text())
    records = [json.loads(line) for line in
               Path(str(out) + ".records").read_text().splitlines()]
    before, after = windows[-1]
    ok = [r for r in records if not r["cause"]]
    probe = data["probe"]
    failures = count_failures([r["cause"] for r in records] + [p["cause"] for p in probe])
    attempted = len(records) + len(probe)
    if not ok:
        raise BenchError("no successful request")
    open_loop_ms = [(r["done"] - r["sched"]) * 1e3 for r in ok]
    latency_ms = best_latencies(ok, open_loop_ms)
    elapsed = max(r["done"] for r in records)
    generator_late = [(r["sent"] - r["sched"]) * 1e3 for r in records if r["early"]]
    lateness_p99 = measure.percentile(generator_late, 99) if generator_late else 0.0
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / elapsed,
        "geomean_ms": measure.geomean(latency_ms),
        "p50_ms": measure.percentile(latency_ms, 50),
        "p99_ms": measure.percentile(latency_ms, 99),
        "solved": len(ok),
        "ok_share": len(ok) / attempted,
        "cpu_ms_per_op": (after["cpu"] - before["cpu"]) * 1e3 / len(ok),
        "peak_rss_mb": after["rss"],
    }
    valid = lateness_p99 <= MAX_GENERATOR_LATENESS_MS and \
        measure.supports_percentile(len(ok), 99)
    info = {
        "rate": data["rate"], "connections": data["connections"],
        "requests": len(records), "items": len(data["items"]),
        "variants": data["variants"], "prepare_s": data["prepare_s"],
        "probe": count_failures(p["cause"] or "ok" for p in probe),
        "failures": failures,
        "failures_renamed": count_failures(
            [r["cause"] for r in records if r["renamed"]] + [p["cause"] for p in probe]),
        "open_loop": {"geomean_ms": measure.geomean(open_loop_ms),
                      "p50_ms": measure.percentile(open_loop_ms, 50),
                      "p99_ms": measure.percentile(open_loop_ms, 99)},
        "generator_lateness_p99_ms": lateness_p99,
        "idle_spinners": after["spinners"],
        "waited_for_connection": sum(1 for r in records if not r["early"]),
        "setups_s": setups, "valid": valid,
        "conditions": {"before": before["conditions"], "after": after["conditions"]},
    }
    layers = None
    if trace:
        layers = serve_layers(workload, data, records, windows, spans_path)
    return e2e, layers, attempted, sum(failures.values()), info, valid


def best_latencies(records, latency_ms):
    """Headline latency of each successful send: the best latency of the
    request it sent (variant and decomposition flag), taken as the mean of
    that request's BEST_OF fastest sends, each timed from its scheduled send.
    Percentiles over these still count every send once."""
    return measure.best_of([(r["request"], ms) for r, ms in zip(records, latency_ms)],
                           BEST_OF)


def serve_layers(workload, data, records, windows, spans_path):
    before, after = windows[-1]
    route = 'route="decompose"' if workload == "serve-warm" else 'route="query"'
    d_sum, d_count = measure.histogram_delta(before["metrics"], after["metrics"],
                                             "htd_request_seconds", route)
    server_ms = d_sum * 1e3 / d_count if d_count else 0.0
    ok = [r for r in records if not r["cause"]]
    stages = [measure.parse_server_timing(r["timing"]) for r in ok]

    def stage(name):
        values = [s.get(name, 0.0) for s in stages]
        return sum(values) / len(values) if values else 0.0

    def delta(name):
        return measure.metric(after["metrics"], name) - measure.metric(before["metrics"], name)

    transit = sum((r["done"] - r["sent"]) * 1e3 for r in ok) / len(ok) - server_ms
    late = [(r["sent"] - r["sched"]) * 1e3 for r in records if r["early"]]
    submitted = delta("htd_scheduler_submitted_total")
    # Headline p50 of both windows over the requests that succeeded in both
    # (the untraced window lists one latency per planned request, -1 = failed).
    both = [(r, u * 1e3) for r, u in zip(records, data["untraced_latencies"])
            if u >= 0 and not r["cause"]]
    traced_p50 = untraced_p50 = 0.0
    if both:
        kept = [r for r, _ in both]
        traced_p50 = measure.percentile(
            best_latencies(kept, [(r["done"] - r["sched"]) * 1e3 for r in kept]), 50)
        untraced_p50 = measure.percentile(best_latencies(kept, [u for _, u in both]), 50)
    layers = zero_layers()
    layers.update({
        "net.server_ms": server_ms,
        "net.transit_ms": transit,
        "net.lateness_ms": measure.percentile(late, 99) if late else 0.0,
        "net.shed": sum(1 for r in records if r["status"] in (429, 503)),
        "result_cache.hit_ratio":
            delta("htd_cache_hits_total") / submitted if submitted else 0.0,
        "qa.probes_per_op": submitted / len(records),
        "decomp.serialise_ms": stage("serialise"),
        "trace.overhead_share": traced_p50 / untraced_p50 - 1 if untraced_p50 else 0.0,
    })
    direct = data["direct"]
    if workload == "serve-warm":
        fingerprint = stage("fingerprint")
        layers.update({
            "hypergraph.parse_ms": stage("parse"),
            "hypergraph.parse_direct_ms": direct["parse_s"] * 1e3 / direct["calls"],
            "canonical.fingerprint_ms": fingerprint,
            "canonical.fingerprint_direct_ms": direct["fingerprint_s"] * 1e3 / direct["calls"],
            "canonical.fingerprint_share": fingerprint / server_ms if server_ms else 0.0,
            "result_cache.lookup_ms": stage("cache"),
            "scheduler.wait_ms": stage("schedule"),
            "core.solve_ms": stage("solve"),
            "decomp.validate_ms":
                data["validate_s"] * 1e3 / data["validations"] if data["validations"] else 0.0,
        })
    else:
        prep = data["prepare_direct"]
        layers.update({
            "qa.parse_ms": stage("parse"),
            "qa.parse_direct_ms": direct["parse_s"] * 1e3 / direct["calls"],
            "qa.decompose_ms": stage("decompose"),
            "qa.pick_ms": stage("pick"),
            "cq.execute_ms": stage("execute"),
            "cq.execute_direct_ms":
                prep["reference_execute_s"] * 1e3 / prep["reference_executions"],
        })
    return layers


# --------------------------------------------------------------------------
# Entry points


def run_once(args):
    harness_bin, server_bin = build()
    target = harness_bin.parent / "runs" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    conditions = measure.run_conditions()
    try:
        if args.workload == "solve-corpus":
            e2e, layers, attempted, failed, info = run_corpus(
                harness_bin, target, args.seed, args.trace)
            valid = True
        else:
            e2e, layers, attempted, failed, info, valid = run_serve(
                harness_bin, server_bin, target, args.workload, args.seed,
                args.seconds, args.trace)
    finally:
        # The traced run's spans outlive the run, next to the build, for
        # reading where time went (one JSON object per line).
        spans = target / "spans.jsonl"
        if spans.exists():
            shutil.copy(spans, harness_bin.parent / ("spans-%s.jsonl" % args.workload))
        shutil.rmtree(target, ignore_errors=True)
    info["conditions"] = {"start": conditions, "end": measure.run_conditions(),
                          **info.get("conditions", {})}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "info": info}), flush=True)
    metrics = layers if args.trace else e2e
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        # correct: every output was checked by the benchmark's own checker
        # and every failure has a cause; false when the run is invalid.
        "correct": bool(valid),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_repeat(args):
    """Steadiness report: runs the workload `--repeat` times with seeds
    seed, seed+1, ... and prints each metric's median, quartiles and
    spread."""
    values = {}
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed + i), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                             timeout=900)
        details, last = [json.loads(line) for line in out.stdout.strip().splitlines()[-2:]]
        start, end = (details["info"]["conditions"][k] for k in ("start", "end"))
        steal = (end["steal_ticks"] - start["steal_ticks"]
                 if None not in (start["steal_ticks"], end["steal_ticks"]) else None)
        log("run %d: %s steal_ticks=%s loadavg=%s" % (
            i + 1,
            json.dumps({k: round(v["value"], 6) for k, v in last["metrics"].items()}),
            steal, end["loadavg"]))
        for name, entry in last["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    report = {name: measure.spread(vals) for name, vals in values.items()
              if len(vals) >= 2}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "spread": report}, indent=1))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30,
                        help="measured window of the served workloads; "
                             "solve-corpus always runs four passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeded runs")
    args = parser.parse_args()
    # A SIGTERM unwinds like an error, so every child is stopped and waited.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.repeat:
            return run_repeat(args)
        return run_once(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        traceback.print_exc(file=sys.stderr)
        log("failed: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
