#!/usr/bin/env python3
"""Cross-engine differential sampler — the CI ``engine-matrix`` gate.

Samples the processor configuration space (policies × register files ×
window shapes × FU mixes × predictor/idle/retry toggles — see
:mod:`repro.uarch.enginediff`), runs every sampled config on every
workload under the interpreter and the native tier, and fails if any
point is not **bit-identical** or silently fell back to the
interpreter.  The native tier needs its artifact on disk or a C
toolchain to build it (see ``tools/native_probe.py``); without either
the tool exits 1.

Failing points are shrunk to a 1-minimal reproducer (every axis reset
to its default that still fails) and written to the ``--report`` JSON —
CI uploads it as an artifact, so a red run arrives with the smallest
config that reproduces the divergence, not just a stack of stats dumps.

Run with ``PYTHONPATH=src``::

    python tools/engine_diff.py --configs 24 --seed 2026 \\
        --report engine_diff.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.uarch.enginediff import DIFF_WORKLOADS, run_sample
from repro.uarch import native


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=24,
                        help="sampled configurations (first %(default)s "
                             "include one single-axis probe per axis)")
    parser.add_argument("--seed", type=int, default=2026,
                        help="sampler seed (change to explore new points)")
    parser.add_argument("--workloads", default=",".join(DIFF_WORKLOADS),
                        help="comma-separated workloads per config")
    parser.add_argument("--report", default="engine_diff.json",
                        help="JSON report path (the CI artifact)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report raw failing points without "
                             "minimizing them first")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-point progress line")
    args = parser.parse_args(argv)

    workloads = tuple(w.strip() for w in args.workloads.split(",")
                      if w.strip())
    if not native.probe()["available"]:
        print("engine-diff: no native artifact and no C toolchain — the "
              "native tier cannot be diffed on this host (set REPRO_CC "
              "or install cc/gcc/clang)", file=sys.stderr)
        return 1

    def progress(done, total):
        if not args.quiet:
            print(f"\r  {done}/{total} points checked", end="",
                  file=sys.stderr, flush=True)

    started = time.perf_counter()
    report = run_sample(args.configs, seed=args.seed, workloads=workloads,
                        shrink_failures=not args.no_shrink,
                        progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    report["seed"] = args.seed
    report["seconds"] = round(time.perf_counter() - started, 2)
    pathlib.Path(args.report).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")

    if report["ok"]:
        print(f"engine-diff: {report['points']} point(s) "
              f"({args.configs} config(s) x {len(workloads)} "
              f"workload(s)) bit-identical between interp and native "
              f"in {report['seconds']}s")
        return 0
    print(f"engine-diff: {len(report['failures'])} of {report['points']} "
          f"point(s) DIVERGED (shrunk reproducers in {args.report}):",
          file=sys.stderr)
    for failure in report["failures"]:
        print(f"  {failure['point']}: "
              f"engine_used={failure['engine_used']} "
              f"mismatched={sorted(failure['mismatches'])}",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
