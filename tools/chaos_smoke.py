#!/usr/bin/env python3
"""Chaos smoke: seeded fault injection across the distributed stack.

Run with ``PYTHONPATH=src``; everything (workers, gateway, reference
run, and this process's own cache use) runs against a throwaway cache
directory, so it needs no prior setup and leaves the user's default
cache untouched.  Four phases, all asserted bit-identical to
a serial in-process reference run of the same grid:

1. **Reference** — serial execution of the acceptance grid, on the
   interpreted cycle-engine tier.
2. **Remote chaos** — two ``repro worker`` daemons started with a
   seeded ``REPRO_FAULTS`` plan that makes each drop one chunk reply
   and then die mid-chunk; the coordinator runs with its own seeded
   plan (refused connects + a dropped reply), retries through the
   circuit breaker, and — once both workers are gone — degrades onto
   the local fallback executor.  The merged results must equal the
   reference exactly.
3. **Native-engine chaos** — the same worker/coordinator fault plans
   replayed with every spec pinned to the C-compiled *native* cycle
   engine (the engine pin rides the spec wire format to the workers;
   each fresh worker process compiles or loads the cached native
   artifact before the plan kills it).  Transport-level chaos on top of
   the native tier must still merge bit-identical to the serial
   *interpreted* reference — and the stats dumps carry
   ``engine_fallbacks``, so a silent fallback to the interpreter on a
   worker would itself show up as a mismatch.  Skipped with a loud log
   line on hosts without a C toolchain.
4. **Gateway kill + resume** — a journaled ``repro serve`` is
   SIGKILLed mid-job after streaming at least one point, restarted on
   the same port with ``--resume``, and must deliver every remaining
   point exactly once (the client reconnects with its event cursor),
   again bit-identical.

A fault log (``--log``, default ``chaos_smoke.log``) records the
plans, per-site fire counts, and phase outcomes — CI uploads it as an
artifact.  Exit status is non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from repro.engine import RemoteExecutor, RunSpec, SerialExecutor
from repro.engine.faults import FaultPlan, active_plan, clear, install
from repro.service import GatewayClient
from repro.uarch.config import conventional_config, virtual_physical_config

#: Coordinator-side chaos: refused connects and one dropped reply.
COORDINATOR_PLAN = ("seed=13;remote.connect:p=0.3,n=2;"
                    "remote.chunk_reply:n=1")

#: Worker-side chaos (per process): drop the first chunk's reply, then
#: die mid-chunk on the third — so both daemons are gone before the
#: grid drains and the coordinator must fall back.
WORKER_PLAN = "seed=17;worker.crash_before_reply:n=1;worker.exit:n=1,after=2"


def build_grid(instructions, skip, seeds, engine=None):
    """Conventional vs vp-issue on two workloads, ``seeds`` points each.

    ``engine`` pins every spec's cycle-engine tier (``"native"`` for
    the native-chaos phase); ``None`` keeps the config default
    (``"auto"``, which resolves to the interpreter here).
    """
    configs = [
        ("conventional", conventional_config()),
        ("vp-issue", virtual_physical_config(nrr=8)),
    ]
    if engine:
        configs = [(label, config.with_(engine=engine))
                   for label, config in configs]
    return [
        RunSpec(workload, config, label=label).resolved(
            instructions, skip, seed)
        for seed in range(seeds)
        for workload in ("go", "swim")
        for label, config in configs
    ]


class FaultLog:
    """Append-only artifact file describing what the chaos run did."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self.path.write_text("")

    def write(self, message):
        """One timestamped line to the artifact and to stdout."""
        line = f"[{time.strftime('%H:%M:%S')}] {message}"
        print(line, flush=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def report(self, title, report):
        """Record a fault plan's fire counts."""
        self.write(f"{title}: plan={report['plan']!r} "
                   f"fired={json.dumps(report['fired'], sort_keys=True)}")
        for entry in report["log"]:
            self.write(f"{title}:   {entry}")


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.2)
    raise AssertionError(f"timed out waiting for {what}")


def spawn(cmd, env, log, name):
    log.write(f"spawn {name}: {' '.join(cmd)}")
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)


def comparable(result):
    """``to_dict`` with the config's engine pin stripped — the one
    field :meth:`ProcessorConfig.key` also excludes, so an interpreted
    reference and a native-tier run compare on substance (timing,
    stats, workload) rather than on which tier was requested."""
    d = result.to_dict()
    if isinstance(d.get("config"), dict):
        d["config"] = {k: v for k, v in d["config"].items()
                       if k != "engine"}
    return d


def assert_identical(results, reference, what, log):
    mismatches = sum(comparable(a) != comparable(b)
                     for a, b in zip(results, reference))
    assert len(results) == len(reference) and not mismatches, (
        f"{what}: {mismatches}/{len(reference)} result(s) differ "
        "from the serial reference")
    log.write(f"{what}: {len(reference)} result(s) bit-identical "
              "to the serial reference")


def phase_remote_chaos(specs, reference, cache_dir, ports, log,
                       what="remote chaos"):
    """Workers that drop replies and die; the run must still merge."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               REPRO_FAULTS=WORKER_PLAN, PYTHONPATH="src")
    env.pop("REPRO_TOKEN", None)
    workers = [spawn([sys.executable, "-m", "repro", "worker", "--serve",
                      "--port", str(port)], env, log, f"worker:{port}")
               for port in ports]
    try:
        addresses = [("127.0.0.1", port) for port in ports]
        executor = RemoteExecutor(addresses, chunk_size=1,
                                  max_task_attempts=10,
                                  connect_timeout=5.0,
                                  quarantine_cooldown=0.5)
        wait_for(lambda: len(executor.probe()[0]) == len(ports),
                 timeout=20, what="both workers to come up")
        install(FaultPlan.from_string(COORDINATOR_PLAN))
        try:
            results = executor.run(specs)
            log.report("coordinator", active_plan().report())
        finally:
            clear()
        run_report = executor.last_run_report
        log.write(f"{what}: retries={run_report.get('retries')} "
                  f"quarantined={run_report.get('quarantined')} "
                  f"degraded={bool(run_report.get('degraded'))}")
        assert_identical(results, reference, what, log)
    finally:
        for proc in workers:
            proc.kill()
        for proc in workers:
            proc.wait(timeout=10)


def assert_native_engages(config, log):
    """Prove ``config`` actually selects the native engine in-process.

    Bit-identity alone cannot distinguish "native ran and matched" from
    "the engine pin never made it through the wire and the interpreter
    ran twice" — so probe one tiny run locally and check the engine the
    processor reports it used.
    """
    from repro.trace.generator import SyntheticTrace
    from repro.trace.workloads import load_workload
    from repro.uarch.processor import Processor

    processor = Processor(config)
    processor.run(SyntheticTrace(load_workload("go"), seed=0),
                  max_instructions=200)
    assert processor.engine_used == "native", (
        "engine pin did not engage the native tier: "
        f"used {processor.engine_used!r}")
    log.write("native chaos: probe confirms the native tier engages "
              "for the pinned configs")


def phase_gateway_resume(specs, reference, cache_dir, port, log):
    """SIGKILL a journaled gateway mid-job; resume must finish it."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH="src")
    env.pop("REPRO_TOKEN", None)
    env.pop("REPRO_FAULTS", None)
    serve = [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--max-inflight", "1"]
    client = GatewayClient(f"http://127.0.0.1:{port}", token="")

    def healthy():
        try:
            return bool(client.healthz()["ok"])
        except (ConnectionError, OSError):
            return False

    first = spawn(serve, env, log, "gateway")
    try:
        wait_for(healthy, timeout=20, what="the gateway to come up")
        job = client.submit(specs)
        log.write(f"gateway: job {job['id']} submitted "
                  f"({job['points']} point(s))")
        consumed = []
        for event in client.stream(job["id"], reconnect=False):
            consumed.append(event)
            if len(consumed) >= 2:
                break  # at least one point streamed: kill mid-job
    finally:
        first.kill()
        first.wait(timeout=10)
    log.write(f"gateway: SIGKILLed after {len(consumed)} streamed "
              "event(s)")
    assert any(e.get("event") == "point" for e in consumed), (
        "gateway died before streaming a single point")

    second = spawn(serve + ["--resume"], env, log, "gateway --resume")
    try:
        wait_for(healthy, timeout=20, what="the resumed gateway")
        metrics = client.metrics()
        assert metrics["resumed_jobs"] >= 1, (
            f"resumed gateway reloaded no jobs: {metrics}")
        rest = list(client.stream(job["id"], after=len(consumed)))
        assert rest and rest[-1].get("event") == "end", "stream never ended"
        assert rest[-1]["state"] == "done", (
            f"resumed job ended {rest[-1]['state']!r}: "
            f"{rest[-1].get('error')}")
        indices = ([e["index"] for e in consumed
                    if e.get("event") == "point"]
                   + [e["index"] for e in rest
                      if e.get("event") == "point"])
        assert sorted(indices) == list(range(len(specs))), (
            f"points not delivered exactly once across the restart: "
            f"{sorted(indices)}")
        log.write(f"gateway: {len(indices)} point(s) delivered exactly "
                  "once across the kill/resume")
        results = client.fetch(job["id"])
        assert_identical(results, reference, "gateway resume", log)
    finally:
        second.kill()
        second.wait(timeout=10)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--instructions", type=int, default=2000)
    parser.add_argument("--skip", type=int, default=200)
    parser.add_argument("--gateway-instructions", type=int, default=20_000,
                        help="run length for the kill/resume phase (long "
                             "enough that the kill lands mid-job)")
    parser.add_argument("--base-port", type=int, default=18760)
    parser.add_argument("--log", default="chaos_smoke.log",
                        help="fault-log artifact path")
    args = parser.parse_args(argv)

    log = FaultLog(args.log)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp = pathlib.Path(tmp)
        # This process's own cache use (the native engagement probe, the
        # coordinator's degraded local fallback) stays in the throwaway
        # directory too, never in the user's default cache.
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "coordinator-cache")

        specs = build_grid(args.instructions, args.skip, seeds=2)
        log.write(f"reference: running {len(specs)} point(s) serially")
        reference = SerialExecutor().run(specs)

        phase_remote_chaos(specs, reference, tmp / "remote-cache",
                           [args.base_port, args.base_port + 1], log)

        # Same transport chaos, C-compiled native cycle engine
        # underneath: the seeded fault plans replay exactly (fresh
        # worker processes, fresh plan counters; each compiles or loads
        # the native artifact before the plan kills it) and
        # the merged results must still equal the *interpreted* serial
        # reference bit for bit.  Skipped, loudly, on hosts without a C
        # toolchain: the tier would otherwise fall back and silently
        # re-test the interpreter.
        from repro.uarch import native

        if native.toolchain() is None:
            log.write("native chaos: SKIPPED — no C toolchain on this "
                      "host (set REPRO_CC or install cc/gcc/clang)")
        else:
            native_specs = build_grid(args.instructions, args.skip,
                                      seeds=2, engine="native")
            assert_native_engages(native_specs[0].config, log)
            phase_remote_chaos(native_specs, reference,
                               tmp / "native-cache",
                               [args.base_port + 5, args.base_port + 6],
                               log, what="native-engine chaos")

        gw_specs = [RunSpec("go", conventional_config()).resolved(
            args.gateway_instructions, args.skip, seed)
            for seed in range(6)]
        gw_reference = SerialExecutor().run(gw_specs)
        phase_gateway_resume(gw_specs, gw_reference, tmp / "gateway-cache",
                             args.base_port + 2, log)

    log.write("chaos smoke: all phases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
