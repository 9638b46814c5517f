"""Smoke tests of the benchmark itself (about a minute).

    python3 -m pytest -q perfbench/test_perfbench.py

They run ``run.py`` with short windows; the numbers they print are not
measurements.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=170)
    return proc, out, err


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload,trace", [
    ("gateway-mix", 0), ("gateway-mix", 1), ("sweep-warm", 0),
])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc, out, err = invoke(workload, 1, 2, trace)
    assert proc.returncode == 0, out + err
    result = result_of(out)
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_a_different_seed_changes_inputs_not_the_metric_set():
    keys = [{s.key() for _, grid in sweep.grids(seed) for s in grid}
            for seed in (1, 2)]
    assert len(keys[0]) == len(keys[1]) == 117
    assert not keys[0] & keys[1]
    _, _, interactive = run.gateway_specs()
    jobs = [next(interactive(random.Random(seed), 5)) for seed in (1, 2)]
    assert [s.key() for s in jobs[0]] != [s.key() for s in jobs[1]]
    printed = []
    for seed in (3, 4):
        proc, out, err = invoke("gateway-mix", seed, 2, 0)
        assert proc.returncode == 0, out + err
        printed.append(set(result_of(out)["metrics"]))
    assert printed[0] == printed[1] == set(run.END_TO_END)


def test_host_factor_scales_each_interval_to_the_nominal_host():
    n = hostspeed.LEAST
    samples = hostspeed.Samples()
    for t in range(n):
        samples.add(t / n, 2 * hostspeed.NOMINAL_S)
    for t in range(n, 3 * n):
        samples.add(t / n, hostspeed.NOMINAL_S / 2)
    assert samples.factor(0, 1 - 1 / n) == 0.5
    assert samples.factor(1, 3) == 2.0
    # Too few samples inside: the ones that ended nearest count.
    assert samples.factor(2, 2) == 2.0
    # Each second is scaled by its own factor.
    assert samples.scaled(0, 1 - 1 / n) == pytest.approx(0.5 * (1 - 1 / n))
    assert samples.scaled(0, 3) == pytest.approx(0.5 + 2 * 2.0, rel=0.1)
    assert hostspeed.sample() > 0


def test_the_sampler_is_a_process_of_its_own():
    started = []

    def start(cmd, **kwargs):
        started.append(subprocess.Popen(cmd, **kwargs))
        return started[-1]

    sampler = hostspeed.Sampler(start)
    try:
        assert started[0].pid != os.getpid()
        assert sampler.ended and sampler.factor(0, float("inf")) > 0
    finally:
        sampler.stop()
    assert started[0].poll() is not None


def test_program_processes_get_a_cpu_of_their_own():
    children = run.Children()
    before = os.sched_getaffinity(0)
    try:
        proc = children.start(
            [sys.executable, "-c",
             "import os; print(sorted(os.sched_getaffinity(0)))"],
            dict(os.environ), stdout=subprocess.PIPE, text=True)
        assert json.loads(proc.communicate(timeout=30)[0]) == \
            sorted(children.program_cpus)
        assert os.sched_getaffinity(0) == children.load_cpus
        if len(before) > 1:
            assert not children.program_cpus & children.load_cpus
    finally:
        os.sched_setaffinity(0, before)


def test_a_failed_cancel_fails_the_teardown():
    window = {"bulk_id": "b1", "alive": [],
              "cancelled": {"state": "cancelled", "error": None}}
    assert run.teardown(window)[1]
    assert run.teardown(dict(window, bulk_id=None, cancelled=None))[1]
    for cancel in ({"error": "HTTP 500"}, {"id": "b1"}, None,
                   {"state": "failed", "error": "boom"}):
        assert not run.teardown(dict(window, cancelled=cancel))[1], cancel
    assert not run.teardown(dict(window, alive=["Thread-1"]))[1]


def test_the_gate_rejects_a_tampered_result():
    warmup, _, _ = run.gateway_specs()
    spec = warmup(11)[0]
    honest = run.replay(spec)
    tampered = dict(honest, cycles=honest["cycles"] + 1)
    rng = random.Random(0)
    assert run.gate_sample(rng, {spec.key(): (spec, honest)}) == []
    assert run.gate_sample(rng, {spec.key(): (spec, tampered)}) == \
        [spec.key()]


def test_gateway_teardown_cancels_bulk_and_leaves_no_process():
    proc, out, err = invoke("gateway-mix", 5, 2, 0)
    assert proc.returncode == 0, out + err
    teardown = [line for line in out.splitlines()
                if line.startswith("teardown:")]
    assert teardown and "cancelled" in teardown[0], out
    assert "threads alive: none" in teardown[0]
    work = f".perfbench_work/gateway-mix-5-{proc.pid}"
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        assert work not in cmdline, f"left running: {cmdline}"
    assert not (ROOT / work).exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
