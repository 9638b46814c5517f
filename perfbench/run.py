#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload sweep-cold --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from
``src/`` and nothing outside the checkout is read or written (scratch
state lives under ``.perfbench_work/`` and is removed at exit).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from spans that ``tracer.py`` records around each layer's entry
points, plus ``tracing_overhead`` against untraced work in the same
run.  The exit status is 1 when the correctness gate fails and 2 when
the checkout holds no program.  Every end-to-end time is scaled to
a nominal host by the reference loop of ``hostspeed.py``, which a
sampler process of the benchmark's own times on the program's CPU for
the whole run.  ``README.md`` describes the workloads, the metrics and
which layer should move which metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("sweep-cold", "sweep-warm", "gateway-mix")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "points_per_s": "points/s",
    "interactive_p50_s": "s",
    "interactive_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "fraction",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "trace.materialize_s": "s",
    "trace.calls": "count",
    "trace.hit_ratio": "fraction",
    "uarch.run_self_s": "s",
    "uarch.runs": "count",
    "native.build_s": "s",
    "native.builds": "count",
    "native.marshal_s": "s",
    "native.execute_self_s": "s",
    "native.fallbacks": "count",
    "engine.batch_self_s": "s",
    "engine.store_put_s": "s",
    "engine.store_puts": "count",
    "engine.store_get_s": "s",
    "engine.cache_hit_ratio": "fraction",
    "service.submit_p50_s": "s",
    "service.first_event_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.rounds": "count",
    "service.points_per_round": "points",
    "service.round_s": "s",
    "service.wal_bytes_per_job": "bytes",
    "obs.span_bytes_per_job": "bytes",
    "unattributed_s": "s",
    "tracing_overhead": "fraction",
}

#: Sample of points each gate re-simulates on the interpreter.
GATE_SAMPLE = 6
#: Set-up-only sweep processes per run, besides one set-up per pass.
SWEEP_SETUPS = 3
#: Fresh processes per run that time the gateway set-up.
GATEWAY_SETUPS = 5
#: Run length of every gateway-mix point.
GATEWAY_INSTRUCTIONS = 1_200
GATEWAY_SKIP = 300
#: Interactive jobs a gateway-mix window needs for ``interactive_p90_s``;
#: the window outlasts ``--seconds`` until it has them, up to twice as long.
MIN_INTERACTIVE_JOBS = 100
#: A failed job's latency: slower than any limit (JSON has no inf).
FAILED_LATENCY_S = 1e9
#: Step between the interactive tenant's think-time shares.
GOLDEN = (math.sqrt(5) - 1) / 2

clock = time.monotonic


def percentile(values, pct):
    """Nearest-rank percentile; ``inf`` marks a failed job."""
    ordered = sorted(values)
    if not ordered:
        return FAILED_LATENCY_S
    value = ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
    return FAILED_LATENCY_S if math.isinf(value) else value


def median(values):
    return statistics.median(values) if values else 0.0


class Children:
    """Every process the run starts; ``stop`` ends and reaps them.

    The program and the host-speed sampler share one CPU, and this
    process (the load generator and the gate) keeps the others: the
    CPUs of the machines the benchmark was sized on slowed down and sped
    up independently of each other, so the sampler tracks only the CPU
    it runs on.  With a single CPU everything shares it."""

    def __init__(self):
        self.procs = []
        cpus = sorted(os.sched_getaffinity(0))
        self.program_cpus = {cpus[0]}
        self.load_cpus = set(cpus[1:]) or self.program_cpus

    def pin_self(self):
        """Keep this process's thread, and the threads it starts, off
        the program's CPU."""
        os.sched_setaffinity(0, self.load_cpus)

    def start(self, cmd, env, **kwargs):
        # A child inherits the affinity of the thread that forks it.
        os.sched_setaffinity(0, self.program_cpus)
        try:
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, **kwargs)
        finally:
            os.sched_setaffinity(0, self.load_cpus)
        self.procs.append(proc)
        return proc

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass


CHILDREN = Children()


def child_env(cache_dir, **extra):
    """The environment of a program process: no inherited ``REPRO_*``
    setting, the checkout's sources, scratch files inside ``cache_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=f"{SRC}{os.pathsep}{HERE}",
               REPRO_CACHE_DIR=str(cache_dir), TMPDIR=str(cache_dir))
    env.update({k: str(v) for k, v in extra.items()})
    return env


def stats_equal(a, b):
    """Bit-identical ``SimStats`` dicts, compared in their JSON form."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def replay(spec):
    """``SimStats`` dict of ``spec`` re-simulated here on the interpreter."""
    from repro.uarch.processor import simulate

    result = simulate(spec.config.with_(engine="interp"),
                      workload=spec.workload,
                      max_instructions=spec.instructions, skip=spec.skip,
                      seed=spec.seed)
    return result.stats.to_dict()


def gate_sample(rng, points):
    """Keys of a seed-chosen sample of ``points`` whose statistics differ
    from a re-simulation.  ``points`` maps key -> (spec, stats dict)."""
    sample = rng.sample(sorted(points), min(GATE_SAMPLE, len(points)))
    return [key for key in sample
            if not stats_equal(replay(points[key][0]), points[key][1])]


# -- sweeps ------------------------------------------------------------------


def run_sweep_child(mode, cache_dir, seed, spans=""):
    """One ``sweep.py`` process; returns its report plus its spawn time."""
    out = cache_dir / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "sweep.py"), mode, "--out", str(out)]
    if spans:
        cmd += ["--spans", spans]
    env = child_env(cache_dir, REPRO_ENGINE="native",
                    REPRO_BENCH_INSTRS=30_000, REPRO_BENCH_SKIP=3_000,
                    REPRO_BENCH_SEED=seed)
    spawned = clock()
    proc = CHILDREN.start(cmd, env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=90)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {"error": f"sweep.py {mode} exited {proc.returncode} "
                           "without a report"}
    report["spawned"] = spawned
    return report


def span_metrics(spans, window, label=None):
    """The per-layer metrics that spans give: self times, span counts,
    hit ratios and the wall time no top-level span covers.
    ``engine.cache_hit_ratio`` counts the points labelled ``label``, or
    all points when it is ``None``.  Times are raw, not scaled."""
    import tracer

    kept, self_s, calls, top = tracer.layer_totals(spans, window)

    def hit_ratio(named):
        return sum(s["attrs"]["hit"] for s in named) / max(1, len(named))

    materialize = [s for s in kept if s["name"] == "trace.materialize"]
    points = [s for s in kept if s["name"] == "engine.batch"
              and "hit" in s["attrs"]
              and label in (None, s["attrs"]["label"])]
    return {
        "trace.materialize_s": self_s["trace.materialize"],
        "trace.calls": len(materialize),
        "trace.hit_ratio": hit_ratio(materialize),
        "uarch.run_self_s": self_s["uarch.run"],
        "uarch.runs": calls["uarch.run"],
        "native.build_s": self_s["native.build"],
        "native.marshal_s": self_s["native.marshal"],
        "native.execute_self_s": self_s["native.execute"],
        "engine.batch_self_s": self_s["engine.batch"],
        "engine.store_put_s": self_s["engine.store_put"],
        "engine.store_puts": calls["engine.store_put"],
        "engine.store_get_s": self_s["engine.store_get"],
        "engine.cache_hit_ratio": hit_ratio(points),
        "unattributed_s": window[1] - window[0] - top,
    }


def sweep_layers(report, spans):
    """Per-layer metrics of one traced pass."""
    return dict(
        span_metrics(spans, (report["start"], report["end"])),
        **{"native.builds": report["builds"],
           "native.fallbacks": sum(stats["engine_fallbacks"]
                                   for stats in report["results"].values())})


def run_sweep(args, work, warm, host):
    """sweep-cold / sweep-warm: fresh-process passes over both grids
    until ``--seconds`` are spent (median per metric over passes).
    ``host`` is the run's host-speed sampler."""
    import sweep
    import tracer

    rng = random.Random(args.seed)
    seed = rng.randrange(1, 2 ** 31)
    specs = {spec.key(): spec for _, grid in sweep.grids(seed)
             for spec in grid}
    lines, fill_s = [], 0.0
    failed = attempted = 0
    if warm:
        fill_dir = work / "fill"
        fill_dir.mkdir()
        fill = run_sweep_child("fill", fill_dir, seed)
        if "error" in fill or fill["failures"]:
            raise RuntimeError(f"artifact fill failed: "
                               f"{fill.get('error') or fill['failures']}")
        fill_raw = fill["done"] - fill["spawned"]
        fill_s = host.scaled(fill["spawned"], fill["done"])
        lines.append(f"fill: {fill['configs']} configurations, "
                     f"{fill['artifacts']} artifacts in {fill_raw:.2f} s, "
                     f"{fill_s:.2f} s scaled")
    setups = []
    for index in range(SWEEP_SETUPS):
        probe_dir = work / f"setup-{index}"
        probe_dir.mkdir()
        probe = run_sweep_child("setup", probe_dir, seed)
        if "error" in probe:
            raise RuntimeError(f"sweep set-up failed: {probe['error']}")
        setups.append(setup_seconds(probe, host))
    passes, traced_layers = [], []
    deadline = clock() + args.seconds
    began = clock()
    while True:
        index = len(passes)
        # A traced run alternates untraced and traced passes, untraced
        # first, so both are measured under the same conditions.
        traced = bool(args.trace) and index % 2 == 1
        cache_dir = work / f"pass-{index}"
        cache_dir.mkdir()
        if warm:
            (cache_dir / "native").symlink_to(fill_dir / "native")
        spans = str(cache_dir / "spans.jsonl") if traced else ""
        report = run_sweep_child("pass", cache_dir, seed, spans)
        report["traced"] = traced
        passes.append(report)
        attempted += len(specs)
        if "error" in report:
            failed += len(specs)
            lines.append(f"pass {index}: FAILED\n{report['error']}")
        else:
            report["scaled"] = host.scaled(report["start"], report["end"])
            results = report["results"]
            missing = set(specs) - set(results)
            fallbacks = [k for k, s in results.items()
                         if s["engine_fallbacks"]]
            reference = next((p["results"] for p in passes[:-1]
                              if "error" not in p), results)
            drift = [k for k in results if k in reference
                     and not stats_equal(results[k], reference[k])]
            failed += len(missing | set(fallbacks) | set(drift))
            wall = report["end"] - report["start"]
            lines.append(
                f"pass {index}{' (traced)' if traced else ''}: "
                f"{len(results)} points in {wall:.2f} s, "
                f"{report['scaled']:.2f} s scaled, set-up "
                f"{report['ready'] - report['spawned']:.3f} s, "
                f"{report['builds']} builds, {len(fallbacks)} fallbacks, "
                f"{len(missing)} missing, {len(drift)} differ from pass 0")
            if traced:
                traced_layers.append(sweep_layers(
                    report, tracer.load(spans)))
        per_pass = (clock() - began) / len(passes)
        enough = not args.trace or len(passes) >= 2
        if enough and deadline - clock() < per_pass / 2:
            break

    good = [p for p in passes if "error" not in p]
    if good:
        first = good[0]
        points = {k: (specs[k], s) for k, s in first["results"].items()
                  if k in specs}
        mismatched = gate_sample(rng, points)
        failed += len(mismatched) * len(good)
        lines.append(f"gate: {min(GATE_SAMPLE, len(points))} sampled points "
                     f"re-simulated on interp, {len(mismatched)} differ "
                     f"from native {' '.join(mismatched)}".rstrip())
        lines += paper_lines(first)

    def rate(p):
        return len(p["results"]) / p["scaled"]

    plain = [p for p in good if not p["traced"]]
    if args.trace:
        metrics = {name: statistics.fmean(layers[name]
                                          for layers in traced_layers)
                   for name in traced_layers[0]} if traced_layers else {}
        metrics.update({name: 0.0 for name in PER_LAYER
                        if name.startswith(("service.", "obs."))})
        traced_pps = [rate(p) for p in good if p["traced"]]
        metrics["tracing_overhead"] = (
            median([rate(p) for p in plain]) / median(traced_pps) - 1
            if plain and traced_pps else 0.0)
    else:
        latencies = [host.scaled(submitted, ended) for p in plain
                     for submitted, ended in p["latencies"]]
        metrics = {
            "points_per_s": median([rate(p) for p in plain]),
            "interactive_p50_s": percentile(latencies, 50),
            "interactive_p90_s": percentile(latencies, 90),
            "setup_s": fill_s + median(
                setups + [setup_seconds(p, host) for p in good]),
            "peak_rss_mb": median([p["rss_mb"] for p in plain]),
        }
    return lines, attempted, failed, metrics


def setup_seconds(report, host):
    """A sweep process's set-up, scaled to the nominal host."""
    return host.scaled(report["spawned"], report["ready"])


def paper_lines(report):
    from repro.experiments import paper_data

    fig4 = report["fig4_fp_speedup_32"]
    fig5 = report["fig5_best_improvement_pct"]
    want4 = paper_data.FIGURE4_FP_SPEEDUP_AT_32
    want5 = paper_data.FIGURE5_BEST_IMPROVEMENT_PCT
    return [
        f"paper: Figure 4 FP hmean speedup at NRR=32 {fig4:.3f} vs "
        f"{want4} published (error {100 * (fig4 / want4 - 1):+.1f}%)",
        f"paper: Figure 5 best improvement {fig5:.1f}% vs {want5}% "
        f"published (error {fig5 - want5:+.1f} points); reported, "
        "not gated",
    ]


# -- gateway-mix -------------------------------------------------------------


class Gateway:
    """``repro serve --jobs 1`` started through ``launcher.py``."""

    def __init__(self, cache_dir, spans=""):
        self.cache_dir = cache_dir
        cmd = [sys.executable, str(HERE / "launcher.py"),
               "--cache-dir", str(cache_dir)]
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--", "serve", "--jobs", "1", "--port", "0"]
        self.lines = queue.Queue()
        self.spawned = clock()
        self.ready = None
        self.proc = CHILDREN.start(cmd, child_env(cache_dir),
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._wait_listening()

    def _drain(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_listening(self):
        deadline = clock() + 60
        seen = []
        while clock() < deadline:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                break
            if line is None:
                break
            seen.append(line)
            marker = "listening on "
            if marker in line:
                return line.split(marker, 1)[1].split()[0]
        raise RuntimeError("gateway did not start:\n" + "".join(seen))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def setup_s(self, host):
        """Spawn to warm-up job done, scaled to the nominal host."""
        return host.scaled(self.spawned, self.ready)

    def stop(self):
        """SIGINT (the gateway's Ctrl-C path), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        finally:
            self._reader.join(timeout=10)


def gateway_specs():
    """Spec makers for the two tenants and the warm-up job."""
    from repro.core.virtual_physical import AllocationStage
    from repro.engine import RunSpec
    from repro.experiments.figures import NRR_SWEEP, PHYS_SWEEP
    from repro.experiments.runner import ALL_BENCHMARKS
    from repro.uarch.config import (conventional_config,
                                    virtual_physical_config)

    def spec(bench, config, seed, label):
        return RunSpec(bench, config, label=label,
                       instructions=GATEWAY_INSTRUCTIONS,
                       skip=GATEWAY_SKIP, seed=seed)

    def warmup(seed):
        return [spec(b, conventional_config(), seed, "warmup")
                for b in ALL_BENCHMARKS]

    def figure7(seed):
        configs = []
        for phys in PHYS_SWEEP:
            configs.append(conventional_config(int_phys=phys, fp_phys=phys))
            configs.append(virtual_physical_config(
                nrr=phys - 32, int_phys=phys, fp_phys=phys))
        return [spec(b, c, seed, "bulk")
                for c in configs for b in ALL_BENCHMARKS]

    def interactive(rng, warm_seed):
        """Endless interactive jobs.  Workloads come in seed-shuffled
        rounds of all nine, so every window sees the same workload mix
        and only the order and the draws within a job vary."""
        while True:
            order = list(ALL_BENCHMARKS)
            rng.shuffle(order)
            for bench in order:
                points = [spec(bench, conventional_config(), warm_seed,
                               "interactive")]
                for _ in range(2):
                    config = virtual_physical_config(
                        nrr=rng.choice(NRR_SWEEP),
                        allocation=AllocationStage.WRITEBACK)
                    points.append(spec(bench, config,
                                       rng.randrange(2 * 10 ** 6, 2 ** 31),
                                       "interactive"))
                yield points

    return warmup, figure7, interactive


def follow(client, record):
    """Stream a submitted job to its ``end`` event into ``record``."""
    opened = clock()
    for event in client.stream(record["id"]):
        if record["first_event"] is None:
            record["first_event"] = clock() - opened
        if event.get("event") == "point":
            record["points"][event["index"]] = (clock(), event)
        elif event.get("event") == "end":
            record["state"] = event.get("state")
            return


def new_record(specs, tenant):
    return {"tenant": tenant, "specs": specs, "points": {}, "state": None,
            "first_event": None, "latency": math.inf, "ended": None}


def run_job(client, specs, tenant):
    """Submit and stream one job; returns its accounting record."""
    record = new_record(specs, tenant)
    start = clock()
    try:
        record["id"] = client.submit(specs, client=tenant)["id"]
        record["submit_s"] = clock() - start
        follow(client, record)
    except (ConnectionError, RuntimeError) as exc:
        record["state"] = f"error: {exc}"
    if record["state"] == "done":
        record["ended"] = clock()
        record["latency"] = record["ended"] - start
    return record


def gateway_window(gateway, seconds, rng, warm_seed, makers, min_jobs=0):
    """Drive both tenants for ``seconds``, longer (up to twice as long)
    until ``min_jobs`` interactive jobs ended; returns the window's
    record."""
    from repro.service.client import GatewayClient, GatewayError

    _, figure7, interactive = makers
    client = GatewayClient(gateway.url, token="")
    bulk_seed = rng.randrange(10 ** 6, 2 * 10 ** 6)
    jobs = interactive(random.Random(rng.randrange(2 ** 31)), warm_seed)
    share = random.Random(rng.randrange(2 ** 31)).random()
    lock = threading.Lock()
    window_over, stop = threading.Event(), threading.Event()
    enough = threading.Event()
    bulk_jobs, interactive_jobs = [], []
    current = {}

    def bulk():
        own = GatewayClient(gateway.url, token="")
        for k in itertools.count():
            record = new_record(figure7(bulk_seed + k), "bulk")
            try:
                # Under the lock, so teardown cancels whichever job
                # was submitted last and no job starts after it.
                with lock:
                    if stop.is_set():
                        return
                    record["id"] = current["id"] = own.submit(
                        record["specs"], client="bulk")["id"]
                follow(own, record)
            except (ConnectionError, RuntimeError) as exc:
                record["state"] = f"error: {exc}"
            bulk_jobs.append(record)
            if record["state"] not in ("done", "cancelled"):
                return

    def interactive_loop():
        nonlocal share
        own = GatewayClient(gateway.url, token="")
        while not window_over.is_set():
            record = run_job(own, next(jobs), "interactive")
            interactive_jobs.append(record)
            if len(interactive_jobs) >= min_jobs:
                enough.set()
            # Think for a share of the last job's latency: that spreads
            # submissions over the gateway's rounds at any host speed,
            # where a pause fixed in seconds would shift the share of
            # jobs that catch the next round as the host speeds up or
            # slows down.  The shares step by the golden ratio from a
            # seed-drawn start, so they cover [0, 1) more evenly than
            # random draws and the median varies less between runs.
            share = (share + GOLDEN) % 1.0
            latency = record["latency"]
            window_over.wait(share * latency
                             if math.isfinite(latency) else 0.0)

    before = client.metrics()
    telemetry = gateway.cache_dir / "telemetry"
    span_bytes = dir_bytes(telemetry)
    start = clock()
    threads = [threading.Thread(target=bulk, daemon=True),
               threading.Thread(target=interactive_loop, daemon=True)]
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    enough.wait(timeout=seconds)
    end = clock()
    window_over.set()
    threads[1].join(timeout=30)
    after = client.metrics()
    span_bytes = dir_bytes(telemetry) - span_bytes
    rss_mb = gateway.peak_rss_mb()
    with lock:
        stop.set()
        bulk_id = current.get("id")
    cancelled = None
    if bulk_id is not None:
        try:
            cancelled = client.cancel(bulk_id)
        except (GatewayError, ConnectionError) as exc:
            cancelled = {"error": str(exc)}
    threads[0].join(timeout=30)
    alive = [t.name for t in threads if t.is_alive()]
    return {"start": start, "end": end, "bulk": bulk_jobs,
            "interactive": interactive_jobs, "before": before,
            "after": after, "span_bytes": span_bytes, "rss_mb": rss_mb,
            "bulk_id": bulk_id, "cancelled": cancelled, "alive": alive}


def dir_bytes(path):
    total = 0
    if path.is_dir():
        for child in path.iterdir():
            try:
                total += child.stat().st_size
            except OSError:
                pass
    return total


def start_gateway(work, name, warmup_specs, spans=""):
    """Start a gateway and run the warm-up job."""
    from repro.service.client import GatewayClient

    cache_dir = work / name
    cache_dir.mkdir()
    gateway = Gateway(cache_dir, spans)
    record = run_job(GatewayClient(gateway.url, token=""), warmup_specs,
                     "warmup")
    if record["state"] != "done":
        raise RuntimeError(f"gateway warm-up job ended {record['state']}")
    gateway.ready = clock()
    return gateway


def finished_bulk(window):
    """Bulk jobs that ended on their own (not the one teardown cancels)."""
    return [j for j in window["bulk"] if j["state"] != "cancelled"
            or j.get("id") != window["bulk_id"]]


def gateway_accounting(rng, window):
    """Gate the window's jobs: ``(lines, attempted, failed)``."""
    lines = []
    bulk_done = finished_bulk(window)
    jobs = window["interactive"] + bulk_done
    bad = {id(j) for j in jobs if j["state"] != "done"
           or len(j["points"]) != len(j["specs"])}
    points = {}
    for job in window["interactive"] + window["bulk"]:
        for index, (_, event) in job["points"].items():
            spec = job["specs"][index]
            if event["key"] != spec.key():
                bad.add(id(job))
            points[spec.key()] = (spec, event["result"]["stats"], id(job))
    mismatched = gate_sample(rng, {k: v[:2] for k, v in points.items()})
    bad |= {points[key][2] for key in mismatched}
    lines.append(
        f"gate: {len(window['interactive'])} interactive and "
        f"{len(bulk_done)} finished bulk jobs, {len(bad)} failed; "
        f"{min(GATE_SAMPLE, len(points))} sampled points re-simulated, "
        f"{len(mismatched)} differ")
    line, clean = teardown(window)
    lines.append(line)
    if not clean:
        bad.add("teardown")
    return lines, len(jobs), len(bad)


def teardown(window):
    """``(line, clean)``: whether the window's teardown cancelled the bulk
    job in flight and left no load thread alive.  Only a window with no
    bulk job in flight has nothing to cancel; a DELETE that raised or
    answered without a state or with an error is not clean."""
    cancel = window["cancelled"]
    state = (cancel.get("state") if isinstance(cancel, dict)
             and not cancel.get("error") else None)
    cancelled = window["bulk_id"] is None or state in ("cancelled", "done")
    line = (f"teardown: bulk job {window['bulk_id']} {state or cancel}, "
            f"threads alive: {window['alive'] or 'none'}")
    return line, cancelled and not window["alive"]


def gateway_metrics(window, host):
    """End-to-end metrics of one untraced window, each interval scaled
    to the nominal host by the run's host-speed sampler ``host``."""
    start, end = window["start"], window["end"]
    bulk_points = sum(1 for job in window["bulk"]
                      for t, _ in job["points"].values() if start <= t <= end)
    latencies = [host.scaled(j["ended"] - j["latency"], j["ended"])
                 if j["ended"] else j["latency"]
                 for j in window["interactive"]]
    return {
        "points_per_s": bulk_points / host.scaled(start, end),
        "interactive_p50_s": percentile(latencies, 50),
        "interactive_p90_s": percentile(latencies, 90),
        "peak_rss_mb": window["rss_mb"],
    }


def gateway_layers(window, spans):
    """Per-layer metrics of one traced window."""
    seconds = window["end"] - window["start"]
    jobs = window["interactive"]
    journal = [s for s in spans if s["name"] == "service.journal_end"
               and window["start"] <= s["start"] < window["end"]]
    before, after = window["before"], window["after"]
    rounds = after["rounds"] - before["rounds"]
    served = (after["points_executed"] + after["points_cached"]
              - before["points_executed"] - before["points_cached"])
    tenant = after["tenants"].get("interactive", {})
    finished = len(jobs) + len(finished_bulk(window))
    return dict(
        span_metrics(spans, (window["start"], window["end"]),
                     label="interactive"),
        **{"native.builds": len(list((window["cache_dir"] / "native")
                                     .glob("engine-*.so"))),
           "native.fallbacks": sum(
               event["result"]["stats"]["engine_fallbacks"]
               for job in jobs + window["bulk"]
               for _, event in job["points"].values()),
           "service.submit_p50_s": median([j["submit_s"] for j in jobs
                                           if "submit_s" in j]),
           "service.first_event_p50_s": median(
               [j["first_event"] for j in jobs
                if j["first_event"] is not None]),
           "service.queue_wait_p50_s": tenant.get("queue_wait_p50") or 0.0,
           "service.rounds": rounds,
           "service.points_per_round": served / max(1, rounds),
           "service.round_s": seconds / max(1, rounds),
           "service.wal_bytes_per_job": (sum(s["attrs"]["bytes"]
                                             for s in journal)
                                         / max(1, len(journal))),
           "obs.span_bytes_per_job": window["span_bytes"] / max(1, finished)})


def run_gateway(args, work, host):
    """gateway-mix: two tenants against one serial gateway.  ``host``
    is the run's host-speed sampler."""
    import tracer

    rng = random.Random(args.seed)
    warm_seed = rng.randrange(1, 10 ** 6)
    makers = gateway_specs()
    warmup = makers[0](warm_seed)
    lines, attempted, failed = [], 0, 0
    # A traced run measures an untraced window, then a traced one.
    windows = [(False, args.seconds)] if not args.trace else [
        (False, args.seconds / 2), (True, args.seconds / 2)]
    metrics, rates = {}, {}
    for traced, seconds in windows:
        gateways = []
        repeats = 1 if args.trace else GATEWAY_SETUPS
        for n in range(repeats):
            name = f"gateway-{'traced' if traced else 'plain'}-{n}"
            spans = str(work / f"{name}.spans") if traced else ""
            gateway = start_gateway(work, name, warmup, spans)
            gateways.append(gateway)
            if n < repeats - 1:
                gateway.stop()
        window = gateway_window(gateway, seconds, rng, warm_seed, makers,
                                0 if args.trace else MIN_INTERACTIVE_JOBS)
        window["cache_dir"] = gateway.cache_dir
        code = gateway.stop()
        setups = [g.setup_s(host) for g in gateways]
        window_lines, window_attempted, window_failed = \
            gateway_accounting(rng, window)
        lines += window_lines
        lines.append(f"gateway {'traced' if traced else 'untraced'}: "
                     f"exit {code}, set-up "
                     f"{', '.join(f'{s:.3f}' for s in setups)} s scaled")
        attempted += window_attempted
        failed += window_failed + (code != 0)
        measured = gateway_metrics(window, host)
        rates[traced] = measured["points_per_s"]
        length = window["end"] - window["start"]
        scaled = host.scaled(window["start"], window["end"])
        lines.append(
            f"window: {len(window['interactive'])} interactive jobs, "
            f"{measured['points_per_s'] * scaled:.0f} bulk points "
            f"in {length:.1f} s, {scaled:.1f} s scaled")
        if traced:
            metrics = gateway_layers(window, tracer.load(spans))
        elif not args.trace:
            metrics = dict(measured, setup_s=median(setups))
    if args.trace:
        metrics["tracing_overhead"] = (rates[False] / rates[True] - 1
                                       if rates.get(True) else 0.0)
    return lines, attempted, failed, metrics


# -- entry point -------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    CHILDREN.pin_self()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Replays in this process stay inside the checkout as well.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(REPRO_CACHE_DIR=str(work / "replay"),
                      TMPDIR=str(work))
    host = None
    try:
        host = hostspeed.Sampler(
            lambda cmd, **kwargs: CHILDREN.start(cmd, child_env(work),
                                                 **kwargs))
        if args.workload == "gateway-mix":
            outcome = run_gateway(args, work, host)
        else:
            outcome = run_sweep(args, work, args.workload == "sweep-warm",
                                host)
    finally:
        if host is not None:
            host.stop()
        CHILDREN.stop()
        shutil.rmtree(work, ignore_errors=True)
    lines, attempted, failed, metrics = outcome
    if not args.trace:
        metrics["ok_share"] = 1 - failed / max(1, attempted)
    units = PER_LAYER if args.trace else END_TO_END
    for line in lines:
        print(line)
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
