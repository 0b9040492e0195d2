#!/usr/bin/env python3
"""End-to-end benchmark of the shipped binaries: cloudcache_sim at its
defaults, cloudcache_sim as a windowed elastic cluster, and cloudcached
serving four streams. See perfbench/README.md.

    python3 perfbench/run.py --workload sim-default --seed 17 \\
        --seconds 30 --trace 0

Run from the root of a checkout. Builds everything it runs from source into
.bench_build/, measures for --seconds, checks every output, prints a
human-readable summary and, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of the bare binaries; --trace 1 reports the
per-layer metrics of a traced run (perfbench_trace, perfbench_client
--split) next to the bare one.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
TARGETS = ["cloudcache_sim", "cloudcached", "perfbench_trace",
           "perfbench_client", "perfbench_spawn"]
CHILD_TIMEOUT_S = 60

# Experiment flags per workload; --seed=<n> is appended. Everything else
# stays at the binaries' own defaults (50000 queries, econ-cheap, TPC-H
# 2.5 TB, fixed 10 s arrivals, skew 1.0, repeat 0.3).
WORKLOADS = {
    "sim-default": {"flags": [], "kind": "sim"},
    "sim-cluster": {
        "flags": ["--nodes=2", "--elastic=on", "--max-nodes=4",
                  "--threads=2"],
        "checkpoint_every": 20000,
        "kind": "sim",
    },
    "server-4stream": {"flags": ["--tenants=4"], "kind": "server"},
}
QUERIES = 50000  # The binaries' default --queries.
SERVER_SEEDS = 12  # Workload seeds per server-4stream run (ServerRunner).
SEED_STRIDE = 1000003

END_TO_END_UNITS = {
    "qps": "1/s", "setup_s": "s", "cpu_us_per_query": "us",
    "peak_rss_mb": "MB", "success_frac": "ratio",
    "operating_cost_usd": "USD", "response_p99_s": "s",
}
PER_LAYER_UNITS = {
    "workload.draw_ns": "ns", "plan.enumerate_ns": "ns",
    "plan.skyline_ns": "ns", "econ.price_ns": "ns", "econ.settle_ns": "ns",
    "plan.cache_hit_ratio": "ratio", "plan.cache_lookups": "count",
    "econ.on_query_ns": "ns", "econ.other_ns": "ns",
    "econ.investments": "count", "econ.evictions": "count",
    "cache.hit_rate": "ratio", "sim.driver_self_ns": "ns",
    "sim.parallel_cpu_ratio": "ratio", "cluster.rented": "count",
    "cluster.released": "count", "cluster.migrations": "count",
    "persist.checkpoint_p50_ms": "ms", "persist.checkpoint_max_ms": "ms",
    "persist.snapshot_bytes": "bytes", "server.overhead_us": "us",
    "server.ctx_switches_per_query": "count", "client.encode_ns": "ns",
    "client.write_us": "us", "client.wait_us": "us",
    "client.decode_ns": "ns", "client.rtt_p50_us": "us",
    "client.rtt_p99_us": "us",
    "trace.overhead_frac": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no trustworthy result."""


# --------------------------------------------------------------- build


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no cloudcache sources at {ROOT / 'src'}; run "
                         "from the root of a full checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *TARGETS])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed; see {build_log}")
    Child.spawn = BUILD_DIR / "perfbench_spawn"
    return {name: BUILD_DIR / ("tools" if name.startswith("cloudcache")
                               else ".") / name for name in TARGETS}


# ------------------------------------------------------------ processes


class Child:
    """A binary run under perfbench_spawn, which reports its wall time, CPU,
    peak RSS and context switches (see spawn.cpp for why Python cannot).
    A watchdog kills it after CHILD_TIMEOUT_S; `live` tracks every child
    not yet reaped."""

    live = set()
    spawn = None  # Path of perfbench_spawn, set once built.

    def __init__(self, argv, log_path):
        self.log_path = log_path
        self.usage_path = f"{log_path}.usage"
        with open(log_path, "w") as err:
            self.proc = subprocess.Popen(
                [str(Child.spawn), self.usage_path, *map(str, argv)],
                stdout=err, stderr=subprocess.STDOUT, cwd=ROOT)
        Child.live.add(self)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def reap(self):
        """Blocks until exit; returns (exit code, usage dict). The usage
        has start_ns, wall_ns, cpu_ns, maxrss_kb, nvcsw and nivcsw."""
        code = self.proc.wait()
        self.watchdog.cancel()
        Child.live.discard(self)
        try:
            usage = json.loads(Path(self.usage_path).read_text())
        except (OSError, ValueError):
            usage = None
        return code, usage

    def tail(self):
        try:
            return Path(self.log_path).read_text()[-400:].strip()
        except OSError:
            return ""

    @classmethod
    def stop_all(cls):
        for child in list(cls.live):
            child.proc.kill()
            child.reap()


def run_child(argv, log_path):
    """Runs a binary to completion; returns its usage dict."""
    child = Child(argv, log_path)
    code, usage = child.reap()
    if code != 0 or usage is None:
        raise BenchError(f"{Path(argv[0]).name} exited {code}: "
                         f"{child.tail()}")
    return usage


def usage_s(usage, key):
    return usage[key] / 1e9


def read_metrics(path):
    """metrics-json export as {(name, labels...): value}."""
    entries = json.loads(Path(path).read_text())["metrics"]
    return {(m["name"],) + tuple(sorted(m.get("labels", {}).items())):
            m["value"] for m in entries}


def metric(metrics, name, default=0.0, **labels):
    return metrics.get((name,) + tuple(sorted(labels.items())), default)


def log_quartiles(name, values):
    q1, q2, q3 = stats.quartiles(values)
    log(f"{name} over {len(values)} runs: q1 {q1:.6g}, median {q2:.6g}, "
        f"q3 {q3:.6g}")


def economy_outputs(metrics):
    """The paper's two outputs: operating cost and p99 response time."""
    cost = sum(v for k, v in metrics.items()
               if k[0] == "cloudcache_operating_cost_dollars")
    return cost, metric(metrics, "cloudcache_response_seconds",
                        quantile="0.99")


# ------------------------------------------------------ sim workloads


class SimRunner:
    def __init__(self, bins, workdir, workload, seed):
        self.bins = bins
        self.workdir = workdir
        self.flags = list(workload["flags"]) + [f"--seed={seed}"]
        self.snapshot = None
        if "checkpoint_every" in workload:
            self.snapshot = workdir / "run.snap"
            every = workload["checkpoint_every"]
            self.flags += [f"--checkpoint-path={self.snapshot}",
                           f"--checkpoint-every={every}"]
        self.count = 0

    def _path(self, stem):
        self.count += 1
        return self.workdir / f"{stem}-{self.count}"

    def setup_seconds(self):
        """Spawn-to-exit time of the same command serving one query."""
        usage = run_child([self.bins["cloudcache_sim"], *self.flags,
                           "--queries=1"], self._path("setup.log"))
        return usage_s(usage, "wall_ns")

    def bare(self):
        """One bare cloudcache_sim run: (usage, metrics)."""
        out = self._path("bare.json")
        usage = run_child([self.bins["cloudcache_sim"], *self.flags,
                           f"--metrics-json={out}"], self._path("bare.log"))
        return usage, read_metrics(out)

    def traced(self):
        """One perfbench_trace run: (wall s, metrics, layer totals)."""
        out = self._path("traced.json")
        layers = self._path("layers.json")
        usage = run_child([self.bins["perfbench_trace"], *self.flags,
                           f"--metrics-json={out}",
                           f"--layers-json={layers}"],
                          self._path("traced.log"))
        return (usage_s(usage, "wall_ns"), read_metrics(out),
                json.loads(layers.read_text()))


def sim_end_to_end(runner, seconds, failures):
    runner.bare()  # Warm-up: page cache, CPU frequency.
    walls, cpus, rss, setups = [], [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        usage, metrics = runner.bare()
        reference = reference or metrics
        ok = metrics == reference
        failures.add(QUERIES, 0 if ok else QUERIES,
                     "bare runs of one seed disagree")
        walls.append(usage_s(usage, "wall_ns"))
        cpus.append(usage_s(usage, "cpu_ns"))
        rss.append(usage["maxrss_kb"])
        # Set-up is timed after every timed run, so its samples span the
        # window as the server's per-round ones do; timed back to back,
        # they caught a single host state.
        setups.append(runner.setup_seconds())
    # Instrumented == bare: the traced twin must reproduce the metrics.
    _, traced, _ = runner.traced()
    failures.add(QUERIES, 0 if traced == reference else QUERIES,
                 "traced run differs from the bare binary")
    cost, response_p99 = economy_outputs(reference)
    qps = [QUERIES / w for w in walls]
    log_quartiles("qps", qps)
    return {
        "qps": stats.median(qps),
        "setup_s": stats.median(setups),
        "cpu_us_per_query": stats.median([c / QUERIES * 1e6 for c in cpus]),
        "peak_rss_mb": stats.median(rss) / 1024.0,
        "operating_cost_usd": cost,
        "response_p99_s": response_p99,
    }


def econ_layers(layers, metrics):
    """Per-query layer figures of one traced run."""
    q = layers["queries"]
    stages = (layers["enumerate_ns"] + layers["skyline_ns"]
              + layers["price_ns"] + layers["settle_ns"])
    lookups = layers["plan_cache_hits"] + layers["plan_cache_misses"]
    served = metric(metrics, "cloudcache_served_total")
    return {
        "workload.draw_ns": layers["draw_ns"] / q,
        "plan.enumerate_ns": layers["enumerate_ns"] / q,
        "plan.skyline_ns": layers["skyline_ns"] / q,
        "econ.price_ns": layers["price_ns"] / q,
        "econ.settle_ns": layers["settle_ns"] / q,
        "plan.cache_hit_ratio":
            layers["plan_cache_hits"] / lookups if lookups else 0.0,
        "plan.cache_lookups": lookups,
        "econ.on_query_ns": layers["on_query_ns"] / q,
        "econ.other_ns": (layers["on_query_ns"] - stages) / q,
        "econ.investments": metric(metrics, "cloudcache_investments_total"),
        "econ.evictions": metric(metrics, "cloudcache_evictions_total"),
        "cache.hit_rate":
            metric(metrics, "cloudcache_served_cache_total") / served
            if served else 0.0,
        "sim.driver_self_ns":
            (layers["run_ns"] - layers["below_driver_ns"]
             - layers["draw_ns"]) / q,
        "cluster.rented":
            metric(metrics, "cloudcache_cluster_scale_out_total"),
        "cluster.released":
            metric(metrics, "cloudcache_cluster_scale_in_total"),
        "cluster.migrations":
            metric(metrics, "cloudcache_cluster_migrations_total"),
    }


def traced_pairs(runner, seconds, failures, min_pairs=2):
    """Alternating bare and traced runs: per-layer medians, the bare
    run's CPU/wall ratio and the tracing overhead on qps."""
    figures, checkpoints, ratios = [], [], []
    bare_qps, traced_qps = [], []
    snapshot_bytes = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(figures) < min_pairs:
        usage, bare = runner.bare()
        wall = usage_s(usage, "wall_ns")
        if runner.snapshot is not None:
            snapshot_bytes = runner.snapshot.stat().st_size
        traced_wall, traced, layers = runner.traced()
        ok = traced == bare
        failures.add(2 * QUERIES, 0 if ok else 2 * QUERIES,
                     "traced run differs from the bare binary")
        figures.append(econ_layers(layers, traced))
        checkpoints += [ns / 1e6 for ns in layers["checkpoint_ns"]]
        ratios.append(usage_s(usage, "cpu_ns") / wall)
        bare_qps.append(QUERIES / wall)
        # The twin-generator draw timing runs after the simulation.
        traced_qps.append(QUERIES / (traced_wall - layers["draw_ns"] / 1e9))
    out = {name: stats.median([f[name] for f in figures])
           for name in figures[0]}
    out["sim.parallel_cpu_ratio"] = stats.median(ratios)
    out["persist.checkpoint_p50_ms"] = (stats.median(checkpoints)
                                        if checkpoints else 0.0)
    out["persist.checkpoint_max_ms"] = max(checkpoints, default=0.0)
    out["persist.snapshot_bytes"] = snapshot_bytes
    out["trace.overhead_frac"] = (1 - stats.median(traced_qps)
                                  / stats.median(bare_qps))
    log(f"traced {len(figures)} runs: bare {stats.median(bare_qps):.0f} "
        f"q/s, traced {stats.median(traced_qps):.0f} q/s")
    return out


def sim_per_layer(runner, seconds, failures):
    out = traced_pairs(runner, seconds, failures)
    for name in PER_LAYER_UNITS:
        if name.startswith(("server.", "client.")):
            out[name] = 0.0
    return out


# --------------------------------------------------- server workload


class ServerRunner:
    """cloudcached rounds over SERVER_SEEDS streams derived from --seed:
    four tenants' operating cost swings ~18% (interquartile) from seed to
    seed, so each run averages the economy over several seeds."""

    def __init__(self, bins, workdir, workload, seed):
        self.bins = bins
        self.workdir = workdir
        self.flags = list(workload["flags"])
        self.seeds = [seed + SEED_STRIDE * i for i in range(SERVER_SEEDS)]
        self.count = 0
        for s in self.seeds:
            run_child([bins["perfbench_client"], *self.flags, f"--seed={s}",
                       f"--reference-out={self.reference(s)}",
                       f"--metrics-json={self.reference(s)}.json"],
                      workdir / f"reference-{s}.log")

    def reference(self, seed):
        return self.workdir / f"reference-{seed}.bin"

    def economy_outputs(self):
        """Operating cost and p99 response, averaged over the seeds."""
        outputs = [economy_outputs(read_metrics(f"{self.reference(s)}.json"))
                   for s in self.seeds]
        return tuple(sum(column) / len(outputs) for column in zip(*outputs))

    def round(self, failures, split, turn):
        """One cloudcached lifetime, on the `turn`-th seed, driven to
        completion by the client."""
        seed = self.seeds[turn % len(self.seeds)]
        flags = self.flags + [f"--seed={seed}"]
        self.count += 1
        port_file = self.workdir / f"port-{self.count}"
        result = self.workdir / f"result-{self.count}.json"
        server = Child([self.bins["cloudcached"], *flags, "--port=0",
                        f"--port-file={port_file}"],
                       self.workdir / f"server-{self.count}.log")
        try:
            while not port_file.is_file() or \
                    not port_file.read_text().endswith("\n"):
                if server.proc.poll() is not None:
                    raise BenchError(f"cloudcached exited early: "
                                     f"{server.tail()}")
                time.sleep(0.0002)
            ready = time.perf_counter()
            run_child([self.bins["perfbench_client"], *flags,
                       f"--reference={self.reference(seed)}",
                       f"--port-file={port_file}",
                       f"--result-json={result}"]
                      + (["--split"] if split else []),
                      self.workdir / f"client-{self.count}.log")
        except BaseException:
            server.proc.kill()
            server.reap()
            raise
        code, usage = server.reap()
        outcome = json.loads(result.read_text())
        failed = outcome["failed"]
        if code != 0 or usage is None or not outcome["shutdown_ok"]:
            failed = outcome["attempted"]
        failures.add(outcome["attempted"], failed,
                     f"server round {self.count}: exit {code}, "
                     f"{outcome['mismatched']} outcomes differ from the "
                     "in-process simulator")
        outcome["setup_s"] = ready - usage_s(usage, "start_ns")
        outcome["usage"] = usage
        return outcome


def server_rounds(runner, seconds, failures, split):
    runner.round(failures, split, turn=0)  # Warm-up.
    rounds = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rounds) < 3:
        rounds.append(runner.round(failures, split, turn=len(rounds)))
    return rounds


def server_end_to_end(runner, seconds, failures):
    rounds = server_rounds(runner, seconds, failures, split=False)
    cost, response_p99 = runner.economy_outputs()
    qps = [r["attempted"] / (r["wall_ns"] / 1e9) for r in rounds]
    log_quartiles("qps", qps)
    return {
        "qps": stats.median(qps),
        "setup_s": stats.median([r["setup_s"] for r in rounds]),
        "cpu_us_per_query": stats.median(
            [usage_s(r["usage"], "cpu_ns") / r["attempted"] * 1e6
             for r in rounds]),
        "peak_rss_mb": stats.median([r["usage"]["maxrss_kb"]
                                     for r in rounds]) / 1024.0,
        "operating_cost_usd": cost,
        "response_p99_s": response_p99,
    }


def server_per_layer(runner, sim, seconds, failures):
    # The economy's own layers at the server's config, from the simulator.
    out = traced_pairs(sim, seconds / 4, failures, min_pairs=1)
    rounds = server_rounds(runner, seconds * 3 / 4, failures, split=True)

    def per_query(key, scale):
        return stats.median([r[key] / r["attempted"] / scale
                             for r in rounds])

    server_cpu_us = stats.median([usage_s(r["usage"], "cpu_ns")
                                  / r["attempted"] * 1e6 for r in rounds])
    out["server.overhead_us"] = server_cpu_us - out["econ.on_query_ns"] / 1e3
    out["server.ctx_switches_per_query"] = stats.median(
        [(r["usage"]["nvcsw"] + r["usage"]["nivcsw"]) / r["attempted"]
         for r in rounds])
    out["client.encode_ns"] = per_query("encode_ns", 1)
    out["client.write_us"] = per_query("write_ns", 1e3)
    out["client.wait_us"] = per_query("wait_ns", 1e3)
    out["client.decode_ns"] = per_query("decode_ns", 1)
    # Percentiles per round (50000 round trips: p99 has 500 beyond it),
    # then the median over rounds, so one disturbed round does not set them.
    out["client.rtt_p50_us"] = stats.median(
        [stats.median(r["rtt_ns"]) / 1e3 for r in rounds])
    tails = []
    for r in rounds:
        pct, tail, beyond = stats.tail_percentile(r["rtt_ns"])
        tails.append(tail / 1e3)
    log(f"client.rtt_p99_us: p{pct:g} of each round ({beyond} samples "
        f"beyond), median over {len(rounds)} rounds")
    out["client.rtt_p99_us"] = stats.median(tails)
    return out


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated benchmark still stops its children (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    bins = build()
    workdir = BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failures = stats.Failures()
    try:
        if workload["kind"] == "sim":
            runner = SimRunner(bins, workdir, workload, args.seed)
            measure = sim_per_layer if args.trace else sim_end_to_end
            values = measure(runner, args.seconds, failures)
        else:
            runner = ServerRunner(bins, workdir, workload, args.seed)
            if args.trace:
                sim = SimRunner(bins, workdir, workload, args.seed)
                values = server_per_layer(runner, sim, args.seconds,
                                          failures)
            else:
                values = server_end_to_end(runner, args.seconds, failures)
    finally:
        Child.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        values["success_frac"] = failures.success_frac()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for reason in failures.reasons:
        log(f"FAILED: {reason}")
    for name in units:
        print(f"{args.workload} {name:<32} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as error:
        log(f"perfbench: {error}")
        sys.exit(1)
