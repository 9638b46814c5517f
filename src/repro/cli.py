"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Simulate one workload under one renaming scheme and print a summary.
``compare``
    Run conventional and virtual-physical side by side.
``sweep``
    Run an arbitrary NRR × allocation-stage × workload grid through the
    batch engine and report IPC speedups plus wall-clock accounting.
``port-sweep``
    Sweep the register-file read-port count per renaming policy with
    the port/bank contention model enabled (IPC vs. ports × policy;
    ``--check-monotone`` gates on IPC never rising as ports shrink).
``table2`` / ``figure4`` / ``figure5`` / ``figure6`` / ``figure7``
    Regenerate a paper artifact and print it.
``ablation`` / ``window-scaling`` / ``branch-sensitivity``
    Run the extra experiments that go beyond the paper's figures.
``bench``
    Measure engine throughput (KIPS) per workload × renamer and write
    ``BENCH_engine.json``; optionally gate against a committed baseline.
    ``--engine all`` A/Bs the interpreter against the C-compiled native
    engine.
``engines``
    Report cycle-engine tier availability on this host: the C toolchain
    probe, the native artifact cache, and what ``auto`` resolves to.
    ``--prebuild`` builds (or finds) the one native artifact instead.
``cache compact``
    Merge the persistent store's writer segments and rewrite it keeping
    the newest record per key (``--prune-stale`` also drops records
    from older code versions).
``cache stats``
    Operator summary of the store: record/segment counts, bytes, and a
    per-workload breakdown (including CRC failures and quarantined
    lines).
``cache verify``
    Integrity-scan every record (CRC32 checksums); ``--repair``
    quarantines corrupt lines to ``corrupt-<ts>.jsonl`` and rewrites
    the affected files.  Exits 1 when corruption is found and left in
    place.
``serve``
    Run the simulation-as-a-service HTTP gateway
    (:mod:`repro.service`): clients POST RunSpec grids and stream
    results back as NDJSON; set ``REPRO_TOKEN`` to require auth.
    Jobs are journaled to a WAL under ``REPRO_CACHE_DIR/gateway``
    (``--no-journal`` disables) and ``--resume`` reloads unfinished
    jobs after a crash.
``submit`` / ``status`` / ``fetch``
    The gateway's client side: submit a sweep grid over HTTP (streams
    points as they finish), poll a job, or collect its results.
``worker``
    Serve simulations to remote coordinators: ``repro worker --serve``
    runs the daemon behind ``--executor remote`` and records a
    ``worker-<host>-<pid>.json`` descriptor under ``REPRO_CACHE_DIR``.
``cluster``
    Inspect or stop a set of workers: ``repro cluster status --workers
    host1,host2`` pings each; ``repro cluster stop`` shuts them down.
    With no ``--workers``, addresses come from the worker descriptors
    in the cache directory.
``workloads``
    List the available benchmark models.
``dump-trace``
    Write the first N records of a workload's dynamic trace to a file.
``trace``
    Render the telemetry spans recorded for one trace id (see
    :mod:`repro.obs.tracing`): a wall-clock-ordered timeline across the
    gateway, coordinator, and workers that handled the request.
``top``
    Aggregate the recorded telemetry spans: span counts, total and p95
    duration, and error counts per phase/name, plus per-host/pid
    activity — a quick "what is the cluster spending time on" view.

Every simulating command accepts ``--jobs N`` (worker processes;
default ``REPRO_JOBS`` or the CPU count), ``--executor
{serial,pool,persistent,remote}`` (``persistent`` keeps a warm worker
pool across batches; ``remote`` fans out across ``repro worker``
daemons), ``--workers host1[:port],host2`` (implies ``remote``),
``--no-cache`` (skip the persistent result store under
``REPRO_CACHE_DIR``), and the fault-handling knobs
``--heartbeat`` / ``--retries`` / ``--connect-timeout`` /
``--run-timeout`` / ``--on-cluster-loss``
(``REPRO_HEARTBEAT`` / ``REPRO_RETRIES`` / ``REPRO_CONNECT_TIMEOUT`` /
``REPRO_RUN_TIMEOUT`` / ``REPRO_ON_CLUSTER_LOSS``).  ``--faults``
activates a deterministic fault-injection plan
(:mod:`repro.engine.faults`) for chaos testing; see
``docs/resilience.md``.  ``--profile`` turns on the engine profiler
(``REPRO_PROFILE``): each result carries throughput and stall
composition in ``extra["profile"]`` — observability only, never
persisted, golden stats stay bit-identical.  ``repro sweep --trace``
mints a trace id and threads it through every span the grid produces;
``repro trace <id>`` renders the timeline afterwards.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.policy import AllocationStage, policy_names, resolve_policy
from repro.engine import RunSpec
from repro.experiments.runner import ResultCache
from repro.trace.generator import SyntheticTrace
from repro.trace.io import save_trace
from repro.trace.workloads import WORKLOADS, load_workload
from repro.uarch.config import (
    ENGINES,
    conventional_config,
    policy_config,
    resolve_engine,
    virtual_physical_config,
)

# --scheme choices come from the policy registry, read inside
# build_parser() so policies registered before parsing (e.g. by a
# plugin that imported this module first) are accepted with no edits
# here.
_ALLOCATIONS = {
    "writeback": (AllocationStage.WRITEBACK,),
    "issue": (AllocationStage.ISSUE,),
    "both": (AllocationStage.WRITEBACK, AllocationStage.ISSUE),
}


def _progress_line(done, total, spec):
    sys.stderr.write(f"\r  {done}/{total} runs")
    if done == total:
        sys.stderr.write("\n")
    sys.stderr.flush()


def _cache_for_args(args, progress=None):
    """The result cache an invocation's --jobs/--no-cache imply.

    ``persistent=None`` (the no-flag case) defers to the
    ``REPRO_NO_CACHE`` environment check inside :class:`ResultCache`.
    """
    return ResultCache(jobs=getattr(args, "jobs", None),
                       persistent=(False if getattr(args, "no_cache", False)
                                   else None),
                       progress=progress,
                       executor=getattr(args, "executor", None),
                       workers=getattr(args, "workers", None),
                       heartbeat=getattr(args, "heartbeat", None),
                       retries=getattr(args, "retries", None),
                       connect_timeout=getattr(args, "connect_timeout",
                                               None),
                       run_timeout=getattr(args, "run_timeout", None),
                       on_cluster_loss=getattr(args, "on_cluster_loss",
                                               None))


def _config_for(args):
    """The ProcessorConfig an invocation's --scheme/--phys/--nrr imply,
    resolved through the policy registry."""
    changes = {}
    if args.phys is not None:
        changes["int_phys"] = args.phys
        changes["fp_phys"] = args.phys
    if getattr(args, "engine", None):
        changes["engine"] = args.engine
    nrr = None
    if resolve_policy(args.scheme).uses_nrr:
        nrr = getattr(args, "nrr", None)
        if nrr is None:
            nrr = changes.get("int_phys", 64) - 32
    return policy_config(args.scheme, nrr=nrr, **changes)


def _add_engine_tier_arg(parser, all_tiers=False):
    """--engine: the cycle-engine tier (distinct from the *batch*
    engine's --jobs/--executor arguments)."""
    choices = ["auto", *ENGINES] + (["all"] if all_tiers else [])
    parser.add_argument(
        "--engine", choices=choices, default=None,
        help="cycle-engine tier: 'interp' is the reference interpreter, "
             "'native' runs the C-compiled loop (bit-identical "
             "to interp, faster; needs a C toolchain — see `repro "
             "engines`), 'auto' (default) defers to REPRO_ENGINE"
             + ("; 'all' measures an interp/native A/B" if all_tiers
                else ""))


def _add_engine_args(parser):
    from repro.engine import EXECUTOR_KINDS

    parser.set_defaults(simulates=True)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "the CPU count)")
    parser.add_argument("--executor", choices=EXECUTOR_KINDS, default=None,
                        help="execution strategy (default: serial for one "
                             "job, a per-batch pool otherwise; 'persistent' "
                             "reuses warm workers across batches; 'remote' "
                             "fans out across `repro worker` daemons)")
    parser.add_argument("--workers", default=None,
                        help="comma-separated worker addresses "
                             "host[:port] for the remote executor "
                             "(implies --executor remote; default port "
                             "8642 or REPRO_WORKER_PORT)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result store")
    parser.add_argument("--heartbeat", type=float, default=None,
                        help="remote executor: idle heartbeat interval "
                             "in seconds (default: REPRO_HEARTBEAT or 5)")
    parser.add_argument("--retries", type=int, default=None,
                        help="remote executor: attempts per chunk before "
                             "the run fails (default: REPRO_RETRIES or 3)")
    parser.add_argument("--connect-timeout", type=float, default=None,
                        help="remote executor: per-worker connect timeout "
                             "in seconds (default: REPRO_CONNECT_TIMEOUT "
                             "or 5)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        help="seconds one batch may go without any "
                             "simulation finishing before the executor "
                             "gives up on it (pool/persistent/remote; "
                             "default: REPRO_RUN_TIMEOUT, or no limit "
                             "for local pools and 900 for remote)")
    parser.add_argument("--on-cluster-loss", choices=("fallback", "fail"),
                        default=None,
                        help="remote executor: when every worker is lost, "
                             "'fallback' finishes the batch locally "
                             "(default; loudly reported), 'fail' raises "
                             "(REPRO_ON_CLUSTER_LOSS)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="deterministic fault injection plan, e.g. "
                             "'worker.crash_before_reply:p=0.2;seed=7' "
                             "(test/chaos tooling; also exported as "
                             "REPRO_FAULTS so child processes inherit it)")
    parser.add_argument("--profile", action="store_true",
                        help="attach engine profiles (KIPS + stall "
                             "composition) to results; exported as "
                             "REPRO_PROFILE so worker processes inherit "
                             "it (observability only: profiles are never "
                             "persisted, stats stay bit-identical)")


def _add_run_args(parser):
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("-n", "--instructions", type=int, default=30_000)
    parser.add_argument("--skip", type=int, default=3_000)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--phys", type=int, default=None,
                        help="physical registers per file (default 64)")
    _add_engine_tier_arg(parser)
    _add_engine_args(parser)


def _spec_for(args, config):
    return RunSpec(args.workload, config, instructions=args.instructions,
                   skip=args.skip, seed=args.seed)


def cmd_run(args):
    cache = _cache_for_args(args)
    result = cache.run(_spec_for(args, _config_for(args)))
    if getattr(args, "json", False):
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.summary())
    stats = result.stats
    print(f"  squashes={stats.squashes} "
          f"issue-blocks={stats.issue_alloc_blocks} "
          f"rename-stalls(reg)={stats.stall_no_reg} "
          f"rob-full={stats.stall_rob_full} "
          f"avg-regs int/fp={stats.avg_reg_occupancy('int'):.1f}/"
          f"{stats.avg_reg_occupancy('fp'):.1f}")
    profile = result.extra.get("profile") if result.extra else None
    if profile:
        print(f"  profile: {profile['kips']:.1f} KIPS "
              f"({profile['elapsed']:.3f}s, "
              f"{profile['engine_fallbacks']} engine fallback(s))")
        stalls = sorted(profile["stalls"].items(),
                        key=lambda item: item[1]["count"], reverse=True)
        shown = [f"{name}={entry['frac']:.1%}"
                 for name, entry in stalls if entry["count"]]
        print("  stall mix: " + (" ".join(shown) if shown else "none"))
    elif getattr(args, "profile", False):
        print("  profile: (served from cache — profiles only attach to "
              "freshly executed runs; add --no-cache to force one)")
    return 0


def cmd_compare(args):
    cache = _cache_for_args(args)
    specs = []
    for scheme in ("conventional", "vp-writeback"):
        args.scheme = scheme
        specs.append(_spec_for(args, _config_for(args)))
    conv, virt = cache.run_specs(specs)
    print(f"{'conventional':15s}: {conv.summary()}")
    print(f"{'vp-writeback':15s}: {virt.summary()}")
    print(f"speedup        : {virt.ipc / conv.ipc:.2f}x")
    return 0


def cmd_workloads(args):
    for name in sorted(WORKLOADS):
        wl = load_workload(name)
        kernels = ", ".join(k.name for k in wl.kernels)
        print(f"{name:10s} [{wl.category}]  kernels: {kernels}")
    return 0


def cmd_dump_trace(args):
    trace = SyntheticTrace(load_workload(args.workload), args.seed)
    count = save_trace(trace.take(args.instructions), args.output)
    print(f"wrote {count} records to {args.output}")
    return 0


def _experiment_command(runner_name):
    def cmd(args):
        from repro import experiments

        runner = getattr(experiments, runner_name)
        result = runner(cache=_cache_for_args(args, progress=_progress_line))
        print(result.format())
        return 0

    return cmd


def _sweep_grid(args):
    """The RunSpecs a sweep invocation describes, conventional first."""
    benches = (args.workloads.split(",") if args.workloads
               else sorted(WORKLOADS))
    for bench in benches:
        if bench not in WORKLOADS:
            raise SystemExit(f"unknown workload {bench!r}; choose from "
                             f"{', '.join(sorted(WORKLOADS))}")
    try:
        nrrs = [int(x) for x in args.nrr.split(",")]
    except ValueError:
        raise SystemExit(f"invalid --nrr list {args.nrr!r}; expected "
                         "comma-separated integers like 1,8,32")
    columns = [("conventional", conventional_config())]
    for allocation in _ALLOCATIONS[args.allocation]:
        for nrr in nrrs:
            try:
                config = virtual_physical_config(nrr=nrr,
                                                 allocation=allocation)
            except ValueError as exc:
                raise SystemExit(f"invalid sweep point: {exc}")
            columns.append((f"{allocation.value}/nrr={nrr}", config))
    if getattr(args, "engine", None):
        columns = [(label, config.with_(engine=args.engine))
                   for label, config in columns]
    specs = [
        RunSpec(bench, config, label=label, instructions=args.instructions,
                skip=args.skip, seed=args.seed)
        for label, config in columns for bench in benches
    ]
    return benches, columns, specs


def cmd_sweep(args):
    """Run an NRR × allocation × workload grid through the batch engine."""
    from repro.analysis.reports import format_table, harmonic_mean

    benches, columns, specs = _sweep_grid(args)
    serial_elapsed = None
    if args.compare_serial:
        serial_cache = ResultCache(jobs=1, persistent=False)
        start = time.perf_counter()
        serial_results = serial_cache.run_specs(specs)
        serial_elapsed = time.perf_counter() - start
        print(f"serial reference : {len(specs)} runs "
              f"in {serial_elapsed:.2f}s (1 job, cache off)")
        # The compared run must also execute for real — a store-served
        # batch would time cache lookups, not the executor.
        cache = ResultCache(jobs=args.jobs, persistent=False,
                            progress=_progress_line,
                            executor=args.executor, workers=args.workers,
                            heartbeat=args.heartbeat, retries=args.retries,
                            connect_timeout=args.connect_timeout)
    else:
        cache = _cache_for_args(args, progress=_progress_line)
    trace = None
    if getattr(args, "trace", False):
        from repro.obs.tracing import new_trace_id

        trace = new_trace_id()
    start = time.perf_counter()
    results = cache.run_specs(specs, trace=trace)
    elapsed = time.perf_counter() - start
    if args.compare_serial:
        mismatches = sum(
            a.to_dict() != b.to_dict()
            for a, b in zip(serial_results, results)
        )
        print(f"determinism      : serial and parallel results "
              f"{'IDENTICAL' if not mismatches else f'DIFFER ({mismatches})'}")

    by_col = {}
    run_iter = iter(results)
    for label, _ in columns:
        by_col[label] = {b: next(run_iter).ipc for b in benches}
    base = by_col["conventional"]
    headers = ["workload", "conv IPC"] + [label for label, _ in columns[1:]]
    rows = []
    for bench in benches:
        rows.append([bench, f"{base[bench]:.2f}"] + [
            f"{by_col[label][bench] / base[bench]:.2f}x"
            for label, _ in columns[1:]
        ])
    if len(benches) > 1:
        base_hm = harmonic_mean(base[b] for b in benches)
        rows.append(["hmean", f"{base_hm:.2f}"] + [
            f"{harmonic_mean(by_col[label][b] for b in benches) / base_hm:.2f}x"
            for label, _ in columns[1:]
        ])
    print(format_table(
        headers, rows,
        title=(f"Sweep: {len(specs)} runs "
               f"({args.instructions} instrs each, seed {args.seed})"),
    ))

    batch = cache.last_batch
    jobs = cache.engine.executor.jobs
    print(f"wall clock       : {elapsed:.2f}s with {jobs} job(s) — "
          f"{batch.executed} simulated, {batch.store_hits} from disk cache, "
          f"{batch.memo_hits} in-memory")
    report = getattr(cache.engine.executor, "last_run_report", None)
    if report:
        print(f"remote           : {len(report['workers'])} worker(s), "
              f"{report['tasks']} chunk(s) of <= {report['chunk_size']} "
              f"spec(s), {report['retries']} retried, "
              f"{report['straggler_redispatches']} straggler "
              f"re-dispatch(es)")
        for worker, lat in sorted(report.get("worker_latency",
                                             {}).items()):
            p50 = ("-" if lat["p50"] is None else f"{lat['p50'] * 1e3:.0f}ms")
            p95 = ("-" if lat["p95"] is None else f"{lat['p95'] * 1e3:.0f}ms")
            print(f"  {worker}: chunk p50={p50} p95={p95} "
                  f"({lat['chunks']} chunk(s), {lat['retries']} "
                  f"retried, {lat['breaker_opens']} breaker open(s))")
        if report.get("quarantined"):
            print("quarantined      : "
                  + ", ".join(report["quarantined"])
                  + " (circuit breaker open; see --retries / "
                    "REPRO_QUARANTINE)")
    if batch.degraded:
        degraded = batch.degraded
        print(f"DEGRADED         : {degraded['points']} point(s) ran on "
              f"the local {degraded['fallback']} fallback — "
              f"{degraded['reason']}")
    if serial_elapsed is not None and elapsed > 0:
        print(f"speedup          : {serial_elapsed / elapsed:.2f}x "
              f"over serial execution")
    if trace is not None:
        print(f"trace            : {trace} (inspect with "
              f"`repro trace {trace}`)")
    return 0


def cmd_port_sweep(args):
    """Run the read-port sensitivity sweep (IPC vs. ports × policy)."""
    from repro.experiments.port_sensitivity import run_port_sensitivity

    policies = tuple(args.policies.split(","))
    for policy in policies:
        try:
            resolve_policy(policy)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    try:
        ports = [int(x) for x in args.read_ports.split(",")]
    except ValueError:
        raise SystemExit(f"invalid --read-ports list {args.read_ports!r}; "
                         "expected comma-separated integers like 16,8,4")
    if any(p < 2 for p in ports):
        # The model's structural floor: an instruction may read two
        # registers of one class (ProcessorConfig validates the same).
        raise SystemExit("--read-ports values must be >= 2 (an "
                         "instruction may read two registers of one "
                         "class; fewer ports deadlock)")
    benches = (args.workloads.split(",") if args.workloads
               else sorted(WORKLOADS))
    for bench in benches:
        if bench not in WORKLOADS:
            raise SystemExit(f"unknown workload {bench!r}; choose from "
                             f"{', '.join(sorted(WORKLOADS))}")
    cache = _cache_for_args(args, progress=_progress_line)
    result = run_port_sensitivity(
        read_ports=ports, policies=policies, benchmarks=benches,
        cache=cache, instructions=args.instructions, skip=args.skip,
        seed=args.seed)
    print(result.format())
    if args.check_monotone:
        from repro.experiments.port_sensitivity import MONOTONE_POLICIES

        # vp-writeback is documented as legitimately non-monotone
        # (throttled re-executions can locally raise IPC), so the gate
        # covers only the policies where monotonicity is guaranteed.
        gated = [p for p in policies if p in MONOTONE_POLICIES]
        skipped = [p for p in policies if p not in MONOTONE_POLICIES]
        if skipped:
            print("monotonicity: not gated for "
                  + ", ".join(skipped)
                  + " (squash-and-re-execute policies may legitimately "
                    "gain IPC from throttled re-executions)")
        if not gated:
            print("monotonicity: nothing gated — no swept policy "
                  "guarantees monotone IPC")
            return 0
        violations = [p for p in gated if not result.is_monotone(p)]
        if violations:
            print("monotonicity: FAIL — IPC rose as read ports shrank for "
                  + ", ".join(violations))
            return 1
        print("monotonicity: OK (IPC non-increasing as read ports shrink"
              + (f" for {', '.join(gated)})" if skipped else ")"))
    return 0


def cmd_bench(args):
    """Measure engine throughput and write the tracked BENCH file."""
    from repro import perf

    def progress(done, total, label):
        sys.stderr.write(f"\r  bench {done}/{total} ({label})        ")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    workloads = args.workloads.split(",") if args.workloads else None
    schemes = args.schemes.split(",") if args.schemes else None
    if args.engine in ("native", "all"):
        from repro.uarch import native

        if native.toolchain() is None:
            # Without a toolchain every native point would loudly fall
            # back and measure the interpreter — not what was asked.
            raise SystemExit(
                "repro bench: --engine {} needs a C toolchain and none "
                "was found (set REPRO_CC or install cc/gcc/clang; see "
                "`repro engines`)".format(args.engine))
    if args.engine == "all":
        report = perf.measure_engines(
            workloads=workloads, schemes=schemes,
            instructions=args.instructions, skip=args.skip, seed=args.seed,
            repeats=args.repeats,
            progress=progress if not args.quiet else None)
    else:
        report = perf.measure_kips(
            workloads=workloads, schemes=schemes,
            instructions=args.instructions, skip=args.skip, seed=args.seed,
            repeats=args.repeats,
            progress=progress if not args.quiet else None,
            engine=args.engine if args.engine != "auto" else None)
    print(perf.format_report(report))
    if args.out:
        perf.write_report(args.out, report)
        print(f"wrote {args.out}")
    # The committed baseline is an *interpreter-tier* report; an A/B
    # run gates (or updates) with its interp sub-report so the gate
    # never compares a faster tier against the pure-Python floor.
    gate_report = report.get("engines", {}).get("interp", report)
    if args.update_baseline:
        if not args.baseline:
            raise SystemExit("--update-baseline requires --baseline PATH")
        perf.write_report(args.baseline, gate_report)
        print(f"updated baseline {args.baseline}")
        return 0
    if args.baseline:
        try:
            baseline = perf.load_report(args.baseline)
        except OSError:
            print(f"no baseline at {args.baseline}; skipping the "
                  "regression gate")
            return 0
        ok, message = perf.compare_to_baseline(
            gate_report, baseline, max_regression=args.max_regression)
        print(("OK  " if ok else "FAIL ") + message)
        return 0 if ok else 1
    return 0


def cmd_engines(args):
    """Report cycle-engine tier availability on this host, or build the
    native artifact (``--prebuild``)."""
    if args.prebuild:
        from repro.uarch import native

        outcome, where = native.prebuild()
        if outcome is None:
            print(f"repro engines --prebuild: no native artifact ({where})",
                  file=sys.stderr)
            return 1
        print(f"{outcome} {where}")
        return 0
    from repro.obs.health import engine_tier_report

    report = engine_tier_report()
    auto = report["resolved_auto"]
    # A REPRO_ENGINE that names no tier fails every auto-engine run.
    rc = 1 if isinstance(auto, dict) else 0
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return rc
    print("interp: available (pure-Python reference interpreter)")
    nat = report["native"]
    if nat["available"]:
        art = nat["artifacts"]
        how = ("artifact on disk" if nat["artifact_on_disk"]
               else f"builds with {nat['toolchain']}")
        print(f"native: available ({how}, "
              f"template {nat['template_fingerprint']}, "
              f"{art['artifacts']} cached artifact(s) in {art['dir']})")
    else:
        why = ("no C toolchain — set REPRO_CC or install cc/gcc/clang"
               if nat["toolchain"] is None
               else f"artifact dir {nat['cache_dir']} not writable")
        print(f"native: UNAVAILABLE ({why}); engine=native falls back "
              "to interp, counted in SimStats.engine_fallbacks")
    if rc:
        print(f"auto resolves to nothing: REPRO_ENGINE: {auto['error']}")
    elif report["auto_reason"] == "REPRO_ENGINE":
        print(f"auto resolves to: {auto} (REPRO_ENGINE overrides)")
    else:
        print(f"auto resolves to: {auto} ({report['auto_reason']}; "
              "REPRO_ENGINE overrides)")
    return rc


def cmd_cache_compact(args):
    from repro.engine import ResultStore

    def total_bytes(store):
        size = 0
        for path in [store.path, *store.segment_paths()]:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return size

    store = ResultStore()
    before = total_bytes(store)
    segments = set(store.segment_paths())
    kept, dropped = store.compact(prune_stale=args.prune_stale)
    after = total_bytes(store)
    left = segments & set(store.segment_paths())
    print(f"{store.path}: merged {len(segments - left)} segment(s), "
          f"left {len(left)} busy for the next compaction, kept {kept} "
          f"records, dropped {dropped} ({before} -> {after} bytes)")
    from repro.uarch import native

    removed, freed = native.prune_stale()
    if removed:
        print(f"{native.artifact_dir()}: pruned {removed} stale native "
              f"artifact(s), freed {freed} bytes")
    return 0


def cmd_cache_stats(args):
    from repro.engine import ResultStore
    from repro.obs.tracing import telemetry_stats
    from repro.uarch import native

    stats = ResultStore().stats()
    stats["native"] = native.artifact_stats()
    stats["telemetry"] = telemetry_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{stats['directory']}: {stats['records']} record(s), "
          f"{stats['segments']} segment(s), {stats['bytes']} bytes "
          f"({stats['files']} file(s))")
    print(f"  lines: {stats['lines']} stored, {stats['superseded']} "
          f"superseded, {stats['corrupt']} corrupt "
          f"({stats['crc_failures']} CRC failure(s), "
          f"{stats['quarantined']} quarantined)")
    if stats["workloads"]:
        width = max(len(name) for name in stats["workloads"])
        for workload, count in stats["workloads"].items():
            print(f"  {workload:<{width}}  {count} record(s)")
    if stats["versions"]:
        print("  versions: " + ", ".join(
            f"{version} ({count})"
            for version, count in stats["versions"].items()))
    art = stats["native"]
    line = (f"{art['dir']}: {art['artifacts']} native artifact(s), "
            f"{art['bytes']} bytes")
    if art["stale_artifacts"]:
        line += (f" ({art['stale_artifacts']} stale, "
                 f"{art['stale_bytes']} bytes — "
                 "`repro cache compact` prunes them)")
    print(line)
    tel = stats["telemetry"]
    tel_line = (f"{tel['directory']}: {tel['spans']} telemetry span(s) "
                f"across {tel['segments']} segment(s), {tel['bytes']} "
                f"bytes")
    if tel["corrupt"]:
        tel_line += f" ({tel['corrupt']} corrupt line(s) skipped)"
    print(tel_line)
    return 0


def cmd_cache_verify(args):
    """Integrity-scan the store; optionally repair it (exit 1 on rot)."""
    from repro.engine import ResultStore

    report = ResultStore().verify(repair=args.repair)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if (args.repair or not report["corrupt"]) else 1
    print(f"{report['directory']}: {report['records']} good record(s) "
          f"across {report['files']} file(s) — {report['checked']} "
          f"CRC-checked, {report['legacy']} legacy (no crc field)")
    if report["corrupt"]:
        print(f"  corrupt: {report['corrupt']} line(s), "
              f"{report['crc_failures']} of them CRC mismatches")
        for location in report["bad"][:20]:
            print(f"    {location}")
        if len(report["bad"]) > 20:
            print(f"    ... and {len(report['bad']) - 20} more")
        if args.repair:
            print(f"  repaired: {report['repaired']} line(s) removed, "
                  f"quarantined to {report['quarantine']}")
            return 0
        print("  run `repro cache verify --repair` to quarantine them")
        return 1
    print("  no corruption found")
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_serve(args):
    """Run the simulation-as-a-service HTTP gateway (blocks).

    The gateway never waits on a compiler: the native build is deferred
    from start-up (in the pool workers it forks too) and runs in the
    background once the first round is answered; until the library
    loads, ``auto`` points run on the interpreter.  SIGINT and SIGTERM
    both stop it, killing and reaping any compiler still running.
    """
    import asyncio
    import signal

    from repro.engine import BatchEngine, ResultStore, make_executor
    from repro.service import DEFAULT_GATEWAY_PORT, Gateway, JobJournal
    from repro.uarch import native

    native.defer_builds()
    store = None if args.no_cache else ResultStore()
    executor = make_executor(args.jobs, kind=args.executor,
                             workers=args.workers,
                             heartbeat=args.heartbeat, retries=args.retries,
                             connect_timeout=args.connect_timeout,
                             run_timeout=args.run_timeout,
                             on_cluster_loss=args.on_cluster_loss)
    engine = BatchEngine(executor=executor, store=store)
    port = DEFAULT_GATEWAY_PORT if args.port is None else args.port
    journal = None if args.no_journal else JobJournal()
    gateway = Gateway(host=args.host, port=port, engine=engine,
                      max_inflight=args.max_inflight, journal=journal,
                      resume=args.resume and journal is not None)
    if args.resume and journal is None:
        raise SystemExit("repro serve: --resume needs the job journal "
                         "(drop --no-journal)")

    def on_ready(gw):
        host, bound_port = gw.address
        print(f"repro serve: listening on http://{host}:{bound_port} "
              f"(version {gw.version}, auth "
              f"{'on' if gw.token else 'off'}, executor "
              f"{type(executor).__name__}, max-inflight "
              f"{gw.max_inflight}, journal "
              f"{'off' if gw.journal is None else 'on'})", flush=True)
        print(f"repro serve: dashboard at "
              f"http://{host}:{bound_port}/v1/dashboard, metrics at "
              f"http://{host}:{bound_port}/v1/metrics", flush=True)
        if gw.resumed_jobs:
            print(f"repro serve: resumed {gw.resumed_jobs} unfinished "
                  f"job(s) from {gw.journal.directory}", flush=True)

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        asyncio.run(gateway.serve_forever(on_ready))
    except KeyboardInterrupt:
        pass
    finally:
        native.stop_builds()
    print(f"repro serve: stopped after {gateway.requests} request(s), "
          f"{gateway.points_executed} point(s) executed")
    return 0


def _gateway_client(args):
    from repro.service import GatewayClient

    return GatewayClient(args.url, client_id=getattr(args, "client", None))


def cmd_submit(args):
    """Submit a sweep grid to a gateway and stream results back."""
    from repro.service import GatewayError
    from repro.uarch.stats import SimResult

    benches, columns, specs = _sweep_grid(args)
    client = _gateway_client(args)
    try:
        job = client.submit(specs)
    except (ConnectionError, GatewayError) as exc:
        raise SystemExit(f"repro submit: {exc}")
    print(f"job {job['id']}: {job['points']} point(s) submitted "
          f"({len(benches)} workload(s) x {len(columns)} column(s))")
    if args.detach:
        url_flag = f" --url {args.url}" if args.url else ""
        print(f"  status : repro status {job['id']}{url_flag}")
        print(f"  fetch  : repro fetch {job['id']}{url_flag}")
        return 0
    state = "unknown"
    try:
        for event in client.stream(job["id"]):
            if event.get("event") == "point":
                result = SimResult.from_dict(event["result"])
                label = event.get("label") or "conventional"
                print(f"  {event['done']:3d}/{event['points']} "
                      f"{event['workload']:<10s} {label:<20s} "
                      f"IPC={result.ipc:.3f}")
            elif event.get("event") == "end":
                state = event.get("state")
                if event.get("error"):
                    print(f"  error: {event['error']}")
    except (ConnectionError, GatewayError) as exc:
        raise SystemExit(f"repro submit: stream failed: {exc}")
    print(f"job {job['id']}: {state}")
    return 0 if state == "done" else 1


def cmd_status(args):
    """Print one job's gateway-side snapshot."""
    from repro.service import GatewayError

    try:
        snapshot = _gateway_client(args).status(args.job)
    except (ConnectionError, GatewayError) as exc:
        raise SystemExit(f"repro status: {exc}")
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"job {snapshot['id']}: {snapshot['state']} "
          f"({snapshot['done']}/{snapshot['points']} point(s), "
          f"client {snapshot['client']})")
    if snapshot.get("error"):
        print(f"  error: {snapshot['error']}")
    return 0


def cmd_fetch(args):
    """Collect a job's results from a gateway."""
    from repro.service import GatewayError
    from repro.uarch.stats import SimResult

    client = _gateway_client(args)
    try:
        payload = client.results(args.job)
    except (ConnectionError, GatewayError) as exc:
        raise SystemExit(f"repro fetch: {exc}")
    if args.json:
        print(json.dumps(payload["results"], indent=2, sort_keys=True))
        return 0
    missing = 0
    for record in payload["results"]:
        if record is None:
            missing += 1
            continue
        print(SimResult.from_dict(record).summary())
    if missing:
        print(f"({missing} point(s) not finished; job state: "
              f"{payload['state']})")
    return 0 if payload["state"] == "done" else 1


def cmd_worker(args):
    """Run the remote-execution worker daemon (blocks until shutdown)."""
    from repro.engine import (
        ResultStore,
        WorkerServer,
        make_executor,
        remove_worker_descriptor,
        write_worker_descriptor,
    )
    from repro.engine.remote import default_port

    if not args.serve:
        raise SystemExit("repro worker: pass --serve to start the daemon "
                         "(guards against accidental foreground starts)")
    if args.port is None:
        args.port = default_port()
    store = None if args.no_cache else ResultStore()
    # Default the batch executor explicitly so a stray
    # REPRO_EXECUTOR=remote in the daemon's environment cannot make the
    # worker try to coordinate itself.
    kind = args.executor or ("pool" if args.jobs and args.jobs > 1
                             else "serial")
    executor = make_executor(args.jobs, kind=kind)
    server = WorkerServer(host=args.host, port=args.port, store=store,
                          executor=executor)
    host, port = server.address
    # The machine-readable record of this daemon: `repro cluster
    # status` (no --workers) discovers local daemons through it.
    descriptor = write_worker_descriptor(
        server.address, auth=server.token is not None)
    print(f"repro worker: serving on {host}:{port} "
          f"(version {server.version}, pid {server.status()['pid']}, "
          f"auth {'on' if server.token else 'off'})", flush=True)
    if descriptor is not None:
        print(f"repro worker: descriptor {descriptor}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        remove_worker_descriptor(descriptor)
    print(f"repro worker: stopped after serving {server.served} spec(s)")
    return 0


def _cluster_workers(args):
    import os

    from repro.engine import parse_workers, read_worker_descriptors

    workers = parse_workers(args.workers
                            or os.environ.get("REPRO_WORKERS"))
    if not workers:
        # Fall back to the worker-<host>-<pid>.json descriptors that
        # `repro worker --serve` leaves under the cache directory.
        descriptors = read_worker_descriptors()
        workers = [(record["host"], record["port"])
                   for _, record in descriptors]
        if workers:
            print(f"(discovered {len(workers)} worker(s) from "
                  "descriptors in the cache directory)")
    if not workers:
        raise SystemExit("repro cluster: --workers host[:port],... "
                         "(or REPRO_WORKERS) is required, and no "
                         "worker-*.json descriptors were found under "
                         "the cache directory")
    return workers


def cmd_cluster_status(args):
    """Ping every worker and report reachability and code version."""
    from repro.engine import code_version, ping_worker

    local = code_version()
    failures = 0
    for host, port in _cluster_workers(args):
        try:
            status = ping_worker((host, port), timeout=args.timeout)
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"{host}:{port}  UNREACHABLE  {exc}")
            failures += 1
            continue
        match = ("ok" if status.get("version") == local
                 else f"VERSION MISMATCH (local {local})")
        print(f"{host}:{port}  up  pid={status.get('pid')} "
              f"served={status.get('served')} "
              f"auth={'on' if status.get('auth') else 'off'} "
              f"version={status.get('version')} [{match}]")
        if status.get("version") != local:
            failures += 1
    return 1 if failures else 0


def cmd_cluster_stop(args):
    """Send a shutdown request to every worker."""
    from repro.engine import shutdown_worker

    failures = 0
    for host, port in _cluster_workers(args):
        try:
            status = shutdown_worker((host, port), timeout=args.timeout)
            print(f"{host}:{port}  stopped "
                  f"(served {status.get('served')} spec(s))")
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"{host}:{port}  UNREACHABLE  {exc}")
            failures += 1
    return 1 if failures else 0


def cmd_trace(args):
    """Render one trace's span timeline from the telemetry directory."""
    from repro.obs.tracing import read_spans, telemetry_dir

    spans = read_spans(trace=args.trace_id)
    if not spans:
        print(f"repro trace: no spans for trace {args.trace_id!r} under "
              f"{telemetry_dir()} (is REPRO_CACHE_DIR pointing at the "
              "right machine, and was the run traced?)")
        return 1
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    origin = min(span["start"] for span in spans)
    hosts = sorted({f"{span['host']}:{span['pid']}" for span in spans})
    print(f"trace {args.trace_id}: {len(spans)} span(s) across "
          f"{len(hosts)} process(es) ({', '.join(hosts)})")
    print(f"{'at':>9s}  {'dur':>9s}  {'phase':<8s} "
          f"{'name':<22s} {'where':<18s} outcome")
    for span in spans:
        at = span["start"] - origin
        where = f"{span['host']}:{span['pid']}"
        attrs = span.get("attrs") or {}
        detail = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        outcome = span.get("outcome", "ok")
        line = (f"{at:8.3f}s  {span['dur'] * 1e3:7.1f}ms  "
                f"{span['phase']:<8s} {span['name']:<22s} "
                f"{where:<18s} {outcome}")
        if detail:
            line += f"  [{detail}]"
        print(line)
    phases = {span["phase"] for span in spans}
    missing = [p for p in ("queue", "dispatch", "run", "store")
               if p not in phases]
    if missing:
        print(f"(no {'/'.join(missing)} span(s) — cache-served points "
              "skip execution phases)")
    return 0


def cmd_top(args):
    """Aggregate recorded spans: where is the cluster spending time."""
    from repro.obs.tracing import read_spans, telemetry_dir

    spans = read_spans()
    if args.trace:
        spans = [s for s in spans if s.get("trace") == args.trace]
    if not spans:
        print(f"repro top: no telemetry spans under {telemetry_dir()} "
              "(traced runs write them; see docs/observability.md)")
        return 0
    groups = {}
    for span in spans:
        entry = groups.setdefault((span["phase"], span["name"]), [])
        entry.append(span)
    print(f"{len(spans)} span(s), "
          f"{len({s['trace'] for s in spans})} trace(s), "
          f"{len({(s['host'], s['pid']) for s in spans})} process(es)")
    print(f"{'phase':<8s} {'name':<22s} {'count':>6s} {'errors':>6s} "
          f"{'total':>9s} {'p95':>9s}")
    order = {phase: i for i, phase in enumerate(
        ("queue", "dispatch", "chunk", "run", "store"))}
    for (phase, name), entries in sorted(
            groups.items(),
            key=lambda item: (order.get(item[0][0], 99), item[0][1])):
        durs = sorted(span["dur"] for span in entries)
        p95 = durs[min(len(durs) - 1, int(0.95 * len(durs)))]
        errors = sum(1 for span in entries
                     if span.get("outcome") != "ok")
        print(f"{phase:<8s} {name:<22s} {len(entries):>6d} "
              f"{errors:>6d} {sum(durs):>8.3f}s {p95 * 1e3:>7.1f}ms")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Virtual-Physical Registers' (HPCA 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload")
    _add_run_args(run)
    run.add_argument("--scheme", choices=policy_names(),
                     default="conventional")
    run.add_argument("--nrr", type=int, default=None)
    run.add_argument("--json", action="store_true",
                     help="emit the full result as JSON (the store format)")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="conventional vs virtual-physical")
    _add_run_args(compare)
    compare.add_argument("--nrr", type=int, default=None)
    compare.set_defaults(fn=cmd_compare)

    sweep = sub.add_parser(
        "sweep",
        help="run an NRR x allocation x workload grid on the batch engine")
    sweep.add_argument("--nrr", default="1,4,8,16,24,32",
                       help="comma-separated NRR values (default: the "
                            "paper's Figure 4 sweep)")
    sweep.add_argument("--allocation", choices=sorted(_ALLOCATIONS),
                       default="writeback")
    sweep.add_argument("--workloads", default=None,
                       help="comma-separated benchmark names (default: all)")
    sweep.add_argument("-n", "--instructions", type=int, default=30_000)
    sweep.add_argument("--skip", type=int, default=3_000)
    sweep.add_argument("--seed", type=int, default=1234)
    sweep.add_argument("--compare-serial", action="store_true",
                       help="also run the grid serially (cache off) and "
                            "report the wall-clock speedup")
    sweep.add_argument("--trace", action="store_true",
                       help="mint a trace id and record telemetry spans "
                            "for the whole grid (inspect with `repro "
                            "trace <id>`)")
    _add_engine_tier_arg(sweep)
    _add_engine_args(sweep)
    sweep.set_defaults(fn=cmd_sweep)

    port_sweep = sub.add_parser(
        "port-sweep",
        help="sweep register-file read ports per renaming policy "
             "(contention model on)")
    port_sweep.add_argument("--read-ports", default="16,8,4,2",
                            help="comma-separated per-class read-port "
                                 "counts (default: 16,8,4,2)")
    port_sweep.add_argument("--policies",
                            default="conventional,vp-issue,vp-writeback",
                            help="comma-separated policy names from the "
                                 f"registry: {', '.join(policy_names())}")
    port_sweep.add_argument("--workloads", default=None,
                            help="comma-separated benchmark names "
                                 "(default: all)")
    port_sweep.add_argument("-n", "--instructions", type=int, default=30_000)
    port_sweep.add_argument("--skip", type=int, default=3_000)
    port_sweep.add_argument("--seed", type=int, default=1234)
    port_sweep.add_argument("--check-monotone", action="store_true",
                            help="exit non-zero unless IPC is "
                                 "monotonically non-increasing as read "
                                 "ports shrink, for every swept policy "
                                 "(the CI smoke gate; vp-writeback can "
                                 "legitimately violate this — throttled "
                                 "re-executions — so gate the others)")
    _add_engine_args(port_sweep)
    port_sweep.set_defaults(fn=cmd_port_sweep)

    for name, runner in (
        ("table2", "run_table2"),
        ("figure4", "run_figure4"),
        ("figure5", "run_figure5"),
        ("figure6", "run_figure6"),
        ("figure7", "run_figure7"),
        ("ablation", "run_ablation"),
        ("window-scaling", "run_window_scaling"),
        ("branch-sensitivity", "run_branch_sensitivity"),
    ):
        p = sub.add_parser(name, help=f"regenerate {name} from the paper")
        _add_engine_args(p)
        p.set_defaults(fn=_experiment_command(runner))

    bench = sub.add_parser(
        "bench",
        help="measure engine throughput (KIPS) per workload x renamer")
    bench.add_argument("--workloads", default=None,
                       help="comma-separated benchmark names (default: all)")
    bench.add_argument("--schemes", default=None,
                       help="comma-separated renamer labels "
                            "(default: conventional,vp-writeback)")
    bench.add_argument("-n", "--instructions", type=int, default=30_000)
    bench.add_argument("--skip", type=int, default=3_000)
    bench.add_argument("--seed", type=int, default=1234)
    bench.add_argument("--repeats", type=int, default=3,
                       help="runs per point; the median is kept (default 3)")
    _add_engine_tier_arg(bench, all_tiers=True)
    bench.add_argument("--out", default="BENCH_engine.json",
                       help="report path (default: BENCH_engine.json; "
                            "'' disables)")
    bench.add_argument("--baseline", default=None,
                       help="baseline report to gate against "
                            "(e.g. benchmarks/perf/baseline.json)")
    bench.add_argument("--max-regression", type=float, default=0.30,
                       help="fail when median KIPS drops more than this "
                            "fraction below the baseline (default 0.30)")
    bench.add_argument("--update-baseline", action="store_true",
                       help="write the measured report to --baseline "
                            "instead of gating")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress the per-point progress line")
    bench.set_defaults(fn=cmd_bench, simulates=True)

    engines = sub.add_parser(
        "engines",
        help="report cycle-engine tier availability (toolchain probe, "
             "artifact cache) on this host")
    engines.add_argument("--json", action="store_true",
                         help="emit the raw availability report JSON")
    engines.add_argument("--prebuild", action="store_true",
                         help="build (or find) the one native artifact and "
                              "print the outcome (built, disk or memory) "
                              "and its path; exit 1 when there is none")
    engines.set_defaults(fn=cmd_engines)

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP gateway "
             "(POST /v1/jobs, NDJSON streaming; REPRO_TOKEN for auth)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use "
                            "0.0.0.0 to serve other hosts)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default 8750; 0 picks an "
                            "ephemeral port)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="points simulated concurrently per "
                            "scheduling round (default 8)")
    serve.add_argument("--resume", action="store_true",
                       help="reload unfinished journaled jobs from the "
                            "WAL under REPRO_CACHE_DIR/gateway before "
                            "serving (only points missing from the "
                            "result store re-run)")
    serve.add_argument("--no-journal", action="store_true",
                       help="disable the per-job write-ahead log "
                            "(jobs are lost on a crash)")
    _add_engine_args(serve)
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a sweep grid to a gateway over HTTP and stream "
             "results as they finish")
    submit.add_argument("--url", default=None,
                        help="gateway base URL (default: REPRO_GATEWAY "
                             "or http://127.0.0.1:8750)")
    submit.add_argument("--client", default=None,
                        help="fair-share client identity (default: the "
                             "gateway uses the peer address)")
    submit.add_argument("--detach", action="store_true",
                        help="print the job id and exit instead of "
                             "streaming")
    submit.add_argument("--nrr", default="1,4,8,16,24,32",
                        help="comma-separated NRR values (default: the "
                             "paper's Figure 4 sweep)")
    submit.add_argument("--allocation", choices=sorted(_ALLOCATIONS),
                        default="writeback")
    submit.add_argument("--workloads", default=None,
                        help="comma-separated benchmark names "
                             "(default: all)")
    submit.add_argument("-n", "--instructions", type=int, default=30_000)
    submit.add_argument("--skip", type=int, default=3_000)
    submit.add_argument("--seed", type=int, default=1234)
    submit.set_defaults(fn=cmd_submit)

    status = sub.add_parser(
        "status", help="show a gateway job's progress snapshot")
    status.add_argument("job", help="job id returned by `repro submit`")
    status.add_argument("--url", default=None,
                        help="gateway base URL (default: REPRO_GATEWAY "
                             "or http://127.0.0.1:8750)")
    status.add_argument("--json", action="store_true",
                        help="emit the raw snapshot JSON")
    status.set_defaults(fn=cmd_status)

    fetch = sub.add_parser(
        "fetch", help="collect a gateway job's results")
    fetch.add_argument("job", help="job id returned by `repro submit`")
    fetch.add_argument("--url", default=None,
                       help="gateway base URL (default: REPRO_GATEWAY "
                            "or http://127.0.0.1:8750)")
    fetch.add_argument("--json", action="store_true",
                       help="emit the result list as JSON (the store "
                            "format; unfinished points are null)")
    fetch.set_defaults(fn=cmd_fetch)

    worker = sub.add_parser(
        "worker",
        help="serve simulations to remote coordinators (--executor remote)")
    worker.add_argument("--serve", action="store_true",
                        help="start the daemon (required; blocks until "
                             "`repro cluster stop` or Ctrl-C)")
    worker.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1; use "
                             "0.0.0.0 to serve other hosts)")
    worker.add_argument("--port", type=int, default=None,
                        help="TCP port (default: REPRO_WORKER_PORT or "
                             "8642; 0 picks an ephemeral port)")
    worker.add_argument("--jobs", type=int, default=None,
                        help="local worker processes per batch (default "
                             "1: serial in-process execution)")
    worker.add_argument("--executor",
                        choices=("serial", "pool", "persistent"),
                        default=None,
                        help="local execution strategy for incoming "
                             "batches (default: serial, or pool when "
                             "--jobs > 1)")
    worker.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result store")
    worker.set_defaults(fn=cmd_worker, simulates=True)

    cluster = sub.add_parser(
        "cluster", help="inspect or stop a set of remote workers")
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)
    for name, fn, help_text in (
        ("status", cmd_cluster_status,
         "ping every worker and report version/liveness"),
        ("stop", cmd_cluster_stop, "shut every worker down"),
    ):
        p = cluster_sub.add_parser(name, help=help_text)
        p.add_argument("--workers", default=None,
                       help="comma-separated worker addresses host[:port] "
                            "(default: REPRO_WORKERS)")
        p.add_argument("--timeout", type=float, default=5.0,
                       help="per-worker connection timeout in seconds")
        p.set_defaults(fn=fn)

    cache = sub.add_parser("cache", help="manage the persistent result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    compact = cache_sub.add_parser(
        "compact",
        help="rewrite the store keeping only the newest record per key")
    compact.add_argument("--prune-stale", action="store_true",
                         help="also drop records from older code versions")
    compact.set_defaults(fn=cmd_cache_compact)
    cache_stats = cache_sub.add_parser(
        "stats",
        help="summarize the store: records, segments, bytes, and a "
             "per-workload breakdown")
    cache_stats.add_argument("--json", action="store_true",
                             help="emit the raw stats JSON")
    cache_stats.set_defaults(fn=cmd_cache_stats)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="integrity-scan every store record (CRC32); exits 1 if "
             "corruption is found and not repaired")
    cache_verify.add_argument("--repair", action="store_true",
                              help="quarantine corrupt lines to "
                                   "corrupt-<ts>.jsonl and rewrite the "
                                   "affected files (offline maintenance: "
                                   "stop writers first)")
    cache_verify.add_argument("--json", action="store_true",
                              help="emit the raw verify report JSON")
    cache_verify.set_defaults(fn=cmd_cache_verify)

    trace = sub.add_parser(
        "trace",
        help="render the telemetry span timeline for one trace id")
    trace.add_argument("trace_id",
                       help="trace id from `repro sweep --trace` or the "
                            "gateway submit response")
    trace.add_argument("--json", action="store_true",
                       help="emit the raw span records as JSON")
    trace.set_defaults(fn=cmd_trace)

    top = sub.add_parser(
        "top",
        help="aggregate recorded telemetry spans per phase/name "
             "(counts, errors, total and p95 duration)")
    top.add_argument("--trace", default=None,
                     help="restrict the aggregation to one trace id")
    top.set_defaults(fn=cmd_top)

    wl = sub.add_parser("workloads", help="list workload models")
    wl.set_defaults(fn=cmd_workloads)

    dump = sub.add_parser("dump-trace", help="serialize a synthetic trace")
    dump.add_argument("workload", choices=sorted(WORKLOADS))
    dump.add_argument("output")
    dump.add_argument("-n", "--instructions", type=int, default=10_000)
    dump.add_argument("--seed", type=int, default=1234)
    dump.set_defaults(fn=cmd_dump_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    requested = getattr(args, "engine", None)
    if getattr(args, "simulates", False) and requested != "all":
        # Resolved once, up front: --engine is checked by its choices,
        # but REPRO_ENGINE is not, and a result-store hit would hide a
        # bad value from the runs themselves.
        try:
            resolve_engine(requested)
        except ValueError as exc:
            parser.exit(2, f"repro: REPRO_ENGINE: {exc}\n")
    plan = getattr(args, "faults", None)
    if plan:
        import os

        from repro.engine.faults import FaultPlan, install

        try:
            install(FaultPlan.from_string(plan))
        except ValueError as exc:
            raise SystemExit(f"repro: bad --faults plan: {exc}")
        # Child processes (pool workers, spawned daemons) pick the plan
        # up from the environment; each process injects independently.
        os.environ["REPRO_FAULTS"] = plan
    if getattr(args, "profile", False):
        import os

        # Like --faults: exported so pool/remote worker processes
        # profile too; checked lazily per run by attach_profile().
        os.environ["REPRO_PROFILE"] = "1"
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
