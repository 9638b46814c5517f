"""One sweep pass, or the native-artifact fill, in a fresh process.

``run.py`` starts this file once per pass; by hand it runs as::

    PYTHONPATH=src:perfbench REPRO_CACHE_DIR=$(mktemp -d) \\
    REPRO_ENGINE=native REPRO_BENCH_SEED=7 python3 perfbench/sweep.py \\
        pass --out pass.json [--spans spans.jsonl]

``setup`` does only what a pass does before its first submit and
exits, so the benchmark can time set-up several times per run.
``pass`` runs the Figure 4 and Figure 5 grids through the batch engine
the way ``repro figure4`` and ``repro figure5`` submit them (one grid
each, serial executor, persistent store under ``REPRO_CACHE_DIR``),
streaming each grid so every point's time to result is seen (its
grid's submission and its result), and writes the timing, the peak RSS, the figure aggregates and every
point's statistics as JSON.  ``fill`` builds the native artifact of every
distinct configuration of the grids into ``REPRO_CACHE_DIR/native``.
Every time is ``time.monotonic``, the time base of ``run.py`` and of its
host-speed sampler.
The environment carries the rest: ``REPRO_ENGINE=native`` and the
``REPRO_BENCH_*`` run length and seed the figure grids resolve with.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

#: The paper harness default run length (``experiments.runner``).
INSTRUCTIONS = 30_000
SKIP = 3_000


def grids(seed):
    """``[(allocation, specs), ...]``: the Figure 4 grid, then the
    Figure 5 grid, built as ``experiments.figures.run_nrr_sweep`` builds
    them (126 specs, 117 distinct points: the baseline is shared)."""
    from repro.core.virtual_physical import AllocationStage
    from repro.engine import RunSpec
    from repro.experiments.figures import NRR_SWEEP
    from repro.experiments.runner import ALL_BENCHMARKS
    from repro.uarch.config import (conventional_config,
                                    virtual_physical_config)

    out = []
    for allocation in (AllocationStage.WRITEBACK, AllocationStage.ISSUE):
        configs = [conventional_config()] + [
            virtual_physical_config(nrr=nrr, allocation=allocation)
            for nrr in NRR_SWEEP]
        out.append((allocation, [
            RunSpec(bench, config).resolved(INSTRUCTIONS, SKIP, seed)
            for config in configs for bench in ALL_BENCHMARKS]))
    return out


def _artifacts(native):
    return len(list(native.artifact_dir().glob("engine-*.so")))


def _fill(native, report):
    from repro.experiments.runner import bench_seed
    from repro.uarch.processor import Processor

    configs = {spec.config.key(): spec.config
               for _, specs in grids(bench_seed()) for spec in specs}
    failures = []
    for config in configs.values():
        lib, reason = native.build_library(Processor(config))
        if lib is None:
            failures.append(reason)
    report.update(done=time.monotonic(), configs=len(configs),
                  artifacts=_artifacts(native), failures=failures)


def _figure(allocation, specs, results):
    """The figure object ``run_nrr_sweep`` would have returned."""
    from repro.experiments.figures import NRR_SWEEP, NrrSweepResult

    figure = NrrSweepResult(allocation=allocation)
    n = len(specs) // (1 + len(NRR_SWEEP))
    ipc = [{spec.workload: results[spec.key()].ipc
            for spec in specs[i:i + n]} for i in range(0, len(specs), n)]
    figure.baseline_ipc = ipc[0]
    figure.vp_ipc = dict(zip(NRR_SWEEP, ipc[1:]))
    return figure


def _prepare(report):
    """Everything before the first submit: the result cache (serial
    executor) and the two grids.  Stamps ``report["ready"]``."""
    from repro.experiments.runner import ResultCache, bench_seed

    cache = ResultCache(jobs=1)
    sweep = grids(bench_seed())
    report["ready"] = time.monotonic()
    return cache, sweep


def _pass(native, report, spans_path):
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    before = _artifacts(native)
    cache, sweep = _prepare(report)
    results, latencies = {}, []
    start = time.monotonic()
    # Each grid is one submission, as each figure command makes it; a
    # point's latency runs from its grid's submission to its result.
    for _, specs in sweep:
        submitted = time.monotonic()
        for _, spec, result in cache.run_specs_iter(specs):
            latencies.append((submitted, time.monotonic()))
            results[spec.key()] = result
    end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figure4, figure5 = (_figure(allocation, specs, results)
                        for allocation, specs in sweep)
    report.update(
        start=start, end=end, rss_mb=rss_mb, latencies=latencies,
        builds=_artifacts(native) - before,
        fig4_fp_speedup_32=figure4.mean_fp_speedup(32),
        fig5_best_improvement_pct=100.0 * (
            max(figure5.mean_speedup(n) for n in figure5.nrr_values) - 1),
        results={key: result.stats.to_dict()
                 for key, result in results.items()})
    if recorder is not None:
        recorder.dump(spans_path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "fill"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    from repro.engine.version import code_version
    from repro.uarch import native

    report = {"code_version": code_version(),
              "toolchain": native.toolchain()}
    status = 0
    try:
        if args.mode == "setup":
            _prepare(report)
        elif args.mode == "fill":
            _fill(native, report)
        else:
            _pass(native, report, args.spans)
    except Exception:  # noqa: BLE001 - reported to run.py as a failed pass
        report["error"] = traceback.format_exc()
        status = 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
