#!/usr/bin/env python3
"""Paired A/B of two native C-loop templates on the Figure 4+5 points.

Compiles each template file into its own shared object with
``native.CFLAGS`` and the current rendered header, then times
``lib.repro_run`` alone (the call, no Python around it) on the 117
distinct points of the paper's Figure 4 and 5 grids: conventional
renaming plus virtual-physical renaming at every NRR of ``NRR_SWEEP``,
allocating at write-back and at issue, on all nine workloads, 30k
instructions after a 3k warm-up.  The variants alternate per point and
the order flips every round, so host drift hits both alike.  Every run
of B must leave the same counters, cache tags and branch predictor as
A's, or the tool stops with exit 1: a loop change that moves a
statistic is not a speed-up.

It prints, per policy group and in total, the sum over points of each
variant's per-point median time, and B's ratio to A.  Each point keeps
its own timings, labelled by group, NRR and workload (:func:`label`).
Both templates compile behind the current header, so they must read
the same parameter and counter slots.  Run with ``PYTHONPATH=src``,
pinned to one CPU for stable numbers::

    git show HEAD:src/repro/uarch/native/engine_template.c > /tmp/a.c
    python tools/loop_ab.py /tmp/a.c src/repro/uarch/native/engine_template.c \\
        --rounds 7 --cpu 0
"""

from __future__ import annotations

import argparse
import ctypes
import os
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

from repro.core.virtual_physical import AllocationStage
from repro.experiments.figures import NRR_SWEEP
from repro.experiments.runner import ALL_BENCHMARKS
from repro.trace.generator import trace_columns
from repro.trace.workloads import load_workload
from repro.uarch import native
from repro.uarch.config import conventional_config, virtual_physical_config
from repro.uarch.processor import Processor

#: The paper harness's run length (``experiments.runner``).
INSTRUCTIONS = 30_000
SKIP = 3_000


def points():
    """``[(group, config, workload), ...]``: the 117 distinct Figure 4+5
    points, in grid order."""
    configs = [("conventional", conventional_config())]
    for allocation, group in ((AllocationStage.WRITEBACK, "vp-writeback"),
                              (AllocationStage.ISSUE, "vp-issue")):
        configs += [(group, virtual_physical_config(nrr=nrr,
                                                    allocation=allocation))
                    for nrr in NRR_SWEEP]
    return [(group, config, workload) for group, config in configs
            for workload in ALL_BENCHMARKS]


def label(group, config, workload):
    """A point's name: its group, its NRR (VP groups only) and its
    workload, so the 117 points of :func:`points` have 117 names."""
    if group == "conventional":
        return f"{group}/{workload}"
    return f"{group}/nrr{config.nrr_int}/{workload}"


def build(template, directory, name):
    """Compile ``template`` behind the rendered header; the loaded
    library, its entry point declared."""
    cc = native.toolchain()
    if cc is None:
        raise SystemExit("loop-ab: no C toolchain (set REPRO_CC)")
    source = Path(directory) / f"{name}.c"
    source.write_text(native.render_header()
                      + Path(template).read_text(encoding="utf-8"),
                      encoding="utf-8")
    shared = Path(directory) / f"{name}.so"
    result = subprocess.run([cc, *native.CFLAGS, "-o", str(shared),
                             str(source)], capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"loop-ab: {template} does not compile:\n"
                         f"{result.stderr}")
    return native._declare(ctypes.PyDLL(str(shared)))


class Point:
    """One point's inputs, prepared once: the parameter block, the
    columns and the machine state every call starts from."""

    def __init__(self, group, config, workload, seed, instructions, skip):
        processor = Processor(config)
        flags, reason = native.native_features(processor)
        if flags is None:
            raise SystemExit(f"loop-ab: {config.policy} does not run "
                             f"natively ({reason})")
        self.group = group
        self.label = label(group, config, workload)
        self.params = native._param_block(processor, flags)
        self.columns = trace_columns(load_workload(workload), seed,
                                     skip + instructions)
        self.tags = array("q", processor.mem.cache._tags)
        self.bht = array("b", processor.bht._counters)
        self.skip, self.n = skip, instructions

    def run(self, lib):
        """``(seconds, (rc, counters, tags, bht))`` of one call."""
        tags, bht = array("q", self.tags), array("b", self.bht)
        counters = array("q", bytes(8 * native.N_COUNTERS))
        ptr = native._ptr
        args = (self.skip, self.n, ptr(self.params),
                *map(ptr, self.columns.arrays()), ptr(tags), ptr(bht),
                ptr(counters))
        start = time.perf_counter()
        rc = lib.repro_run(*args)
        seconds = time.perf_counter() - start
        return seconds, (rc, counters.tolist(), tags.tolist(), bht.tolist())


def compare(libs, grid, rounds):
    """Time both libraries on every point; ``{group: [a_s, b_s]}`` of
    summed per-point medians, or ``SystemExit`` on the first point
    whose results differ."""
    times = {point.label: ([], []) for point in grid}
    for rnd in range(rounds):
        for k, point in enumerate(grid):
            order = (0, 1) if (rnd + k) % 2 == 0 else (1, 0)
            results = [None, None]
            for variant in order:
                seconds, results[variant] = point.run(libs[variant])
                times[point.label][variant].append(seconds)
            if results[0] != results[1]:
                raise SystemExit(f"loop-ab: {point.label} differs between "
                                 "A and B (return code, counters, cache "
                                 "tags or predictor)")
            if results[0][0] not in (0, 1):
                raise SystemExit(f"loop-ab: {point.label} returned "
                                 f"rc {results[0][0]}")
        print(f"round {rnd + 1}/{rounds} done", flush=True)
    sums = {}
    for point in grid:
        group = sums.setdefault(point.group, [0.0, 0.0])
        for variant in (0, 1):
            group[variant] += statistics.median(
                times[point.label][variant])
    return sums


def report(sums):
    rows = list(sums.items())
    rows.append(("total", [sum(s[v] for s in sums.values())
                           for v in (0, 1)]))
    print(f"{'group':14s} {'A (s)':>9s} {'B (s)':>9s} {'B/A':>7s}")
    for group, (a, b) in rows:
        print(f"{group:14s} {a:9.4f} {b:9.4f} {b / a:7.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("template_a", help="the reference template (A)")
    parser.add_argument("template_b", help="the candidate template (B)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1234,
                        help="trace seed of every point")
    parser.add_argument("--points", type=int, default=0,
                        help="time only the first N points (0: all 117)")
    parser.add_argument("--instructions", type=int, default=INSTRUCTIONS)
    parser.add_argument("--skip", type=int, default=SKIP)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    grid = [Point(group, config, workload, args.seed, args.instructions,
                  args.skip)
            for group, config, workload in points()[:args.points or None]]
    with tempfile.TemporaryDirectory(prefix="loop-ab-") as tmp:
        libs = [build(args.template_a, tmp, "a"),
                build(args.template_b, tmp, "b")]
        sums = compare(libs, grid, args.rounds)
    report(sums)
    return 0


if __name__ == "__main__":
    sys.exit(main())
