"""Experiment-runner machinery tests (small instruction budgets via env)."""

import pytest

from repro.experiments.runner import (
    ALL_BENCHMARKS,
    ResultCache,
    RunSpec,
    bench_instructions,
    bench_seed,
    bench_skip,
    conventional_ipcs,
    virtual_physical_ipcs,
)
from repro.uarch.config import conventional_config


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_INSTRS", "400")
    monkeypatch.setenv("REPRO_BENCH_SKIP", "100")


class TestEnvKnobs:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRS", "123")
        monkeypatch.setenv("REPRO_BENCH_SKIP", "7")
        monkeypatch.setenv("REPRO_BENCH_SEED", "99")
        assert bench_instructions() == 123
        assert bench_skip() == 7
        assert bench_seed() == 99

    def test_benchmark_order_matches_paper(self):
        assert ALL_BENCHMARKS == (
            "go", "li", "compress", "vortex",
            "apsi", "swim", "mgrid", "hydro2d", "wave5",
        )


class TestResultCache:
    def test_identical_specs_run_once(self):
        cache = ResultCache()
        spec = RunSpec("go", conventional_config())
        a = cache.run(spec)
        b = cache.run(RunSpec("go", conventional_config()))
        # The store answers the repeat; no second simulation.
        assert cache.last_batch.executed == 0
        assert cache.last_batch.store_hits == 1
        assert a.to_dict() == b.to_dict()

    def test_identical_specs_run_once_without_a_store(self):
        cache = ResultCache(persistent=False)
        a = cache.run(RunSpec("go", conventional_config()))
        b = cache.run(RunSpec("go", conventional_config()))
        assert a is b

    def test_different_workloads_run_separately(self):
        cache = ResultCache()
        a = cache.run(RunSpec("go", conventional_config()))
        b = cache.run(RunSpec("li", conventional_config()))
        assert a is not b

    def test_different_configs_run_separately(self):
        cache = ResultCache()
        a = cache.run(RunSpec("go", conventional_config()))
        b = cache.run(RunSpec("go", conventional_config(int_phys=48)))
        assert a is not b


class TestSweepHelpers:
    def test_conventional_ipcs_covers_benchmarks(self):
        cache = ResultCache()
        ipcs = conventional_ipcs(cache, benchmarks=("go", "swim"))
        assert set(ipcs) == {"go", "swim"}
        assert all(v > 0 for v in ipcs.values())

    def test_vp_ipcs(self):
        cache = ResultCache()
        ipcs = virtual_physical_ipcs(8, cache=cache, benchmarks=("go",))
        assert ipcs["go"] > 0
