#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload gateway-mix --seeds 1-10 \\
        [--trace 1] [--out perfbench/steadiness.json --set first]

Every run measures ``BENCHMARK.json``'s ``run_seconds``.  For each
metric it prints the median, the first and third quartiles and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  With a
single seed the quartiles equal the value.  With ``--out`` the set is
stored under ``--set`` in that JSON file, next to the sets already
there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", default="")
    parser.add_argument("--set", default="first")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    summary = {name: summarize([run[name] for run in runs])
               for name in runs[0]}
    for name, s in summary.items():
        print(f"{name:20s} median {s['median']:.4g} q1 {s['q1']:.4g} "
              f"q3 {s['q3']:.4g} spread {s['spread']:.3f} "
              f"(bound {bounds.get(name)})")
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored.setdefault(args.workload, {})[args.set] = {
            "seeds": args.seeds, "seconds": seconds, "trace": args.trace,
            "metrics": summary}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
