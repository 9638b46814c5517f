"""Batch engine: determinism, caching layers, executor parity."""

import pytest

from repro.engine import (
    BatchEngine,
    ProcessPoolExecutor,
    ResultStore,
    RunSpec,
    SerialExecutor,
    make_executor,
)
from repro.engine import core
from repro.experiments.runner import ResultCache
from repro.uarch.config import conventional_config, virtual_physical_config

INSTRS, SKIP, SEED = 400, 100, 1


def grid():
    """A small mixed grid with one duplicate spec."""
    conv = conventional_config()
    vp = virtual_physical_config(nrr=8)
    specs = [RunSpec(b, conv).resolved(INSTRS, SKIP, SEED)
             for b in ("go", "swim", "li")]
    specs += [RunSpec(b, vp).resolved(INSTRS, SKIP, SEED)
              for b in ("go", "swim")]
    specs.append(specs[0])  # duplicate: must dedupe, not re-run
    return specs


class TestDeterminism:
    def test_parallel_identical_to_serial(self):
        """The acceptance bar: byte-for-byte equal results."""
        serial = BatchEngine(executor=SerialExecutor()).run(grid())
        parallel = BatchEngine(executor=ProcessPoolExecutor(jobs=2)).run(grid())
        for a, b in zip(serial, parallel):
            assert a.to_dict() == b.to_dict()

    def test_results_come_back_in_spec_order(self):
        specs = grid()
        results = BatchEngine(executor=ProcessPoolExecutor(jobs=2)).run(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result.workload == spec.workload
            assert result.config == spec.config


class TestCaching:
    def test_memo_returns_same_object(self):
        engine = BatchEngine()
        first = engine.run_one(grid()[0])
        again = engine.run_one(grid()[0])
        assert first is again
        assert engine.last_batch.memo_hits == 1
        assert engine.last_batch.executed == 0

    def test_duplicates_in_one_batch_run_once(self):
        engine = BatchEngine()
        results = engine.run(grid())
        assert engine.last_batch.executed == 5  # 6 specs, 1 duplicate
        assert results[0] is results[-1]

    def test_store_hit_across_engine_instances(self, tmp_path):
        specs = grid()
        cold = BatchEngine(store=ResultStore(tmp_path))
        cold_results = cold.run(specs)
        assert cold.last_batch.executed == 5

        warm = BatchEngine(store=ResultStore(tmp_path))
        warm_results = warm.run(specs)
        assert warm.last_batch.executed == 0
        assert warm.last_batch.store_hits == 5
        for a, b in zip(cold_results, warm_results):
            assert a.to_dict() == b.to_dict()

    def test_config_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec("go", conventional_config()).resolved(INSTRS, SKIP, SEED)
        BatchEngine(store=store).run([spec])

        changed = RunSpec(
            "go", conventional_config(rob_size=64)
        ).resolved(INSTRS, SKIP, SEED)
        engine = BatchEngine(store=ResultStore(tmp_path))
        engine.run([changed])
        assert engine.last_batch.executed == 1
        assert engine.last_batch.store_hits == 0

    def test_run_length_change_misses(self, tmp_path):
        spec = RunSpec("go", conventional_config()).resolved(INSTRS, SKIP, SEED)
        BatchEngine(store=ResultStore(tmp_path)).run([spec])
        engine = BatchEngine(store=ResultStore(tmp_path))
        engine.run([RunSpec("go", conventional_config())
                    .resolved(INSTRS * 2, SKIP, SEED)])
        assert engine.last_batch.executed == 1

    def test_progress_callback_sees_every_execution(self):
        seen = []
        engine = BatchEngine(
            progress=lambda done, total, spec: seen.append((done, total)))
        engine.run(grid())
        assert seen == [(i + 1, 5) for i in range(5)]


class TestMemoBound:
    """The memo is one more copy of each result; it must stay bounded
    across batches (a long-lived gateway runs many)."""

    @staticmethod
    def spec(seed):
        return RunSpec("go", conventional_config()).resolved(
            INSTRS, SKIP, seed)

    def test_a_store_answers_earlier_batches_so_the_memo_holds_none(
            self, tmp_path):
        engine = BatchEngine(store=ResultStore(tmp_path))
        first = engine.run([self.spec(0), self.spec(0)])
        for seed in range(1, 4):
            engine.run_one(self.spec(seed))
        assert len(engine._memo) == 0
        again = engine.run_one(self.spec(0))
        assert engine.last_batch.store_hits == 1
        assert engine.last_batch.executed == 0
        assert again.to_dict() == first[0].to_dict()
        assert first[0] is first[1]  # one result per key in a batch

    def test_without_a_store_the_memo_keeps_the_newest_entries(
            self, monkeypatch):
        monkeypatch.setattr(core, "MEMO_ENTRIES", 3)
        engine = BatchEngine()
        for seed in range(6):
            engine.run_one(self.spec(seed))
        assert len(engine._memo) == 3
        engine.run_one(self.spec(5))
        assert engine.last_batch.memo_hits == 1
        engine.run_one(self.spec(0))
        assert engine.last_batch.executed == 1
        assert len(engine._memo) == 3


class TestEngineGuards:
    def test_unresolved_spec_rejected(self):
        with pytest.raises(ValueError):
            BatchEngine().run([RunSpec("go", conventional_config())])

    def test_make_executor_picks_by_jobs(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ProcessPoolExecutor)
        assert make_executor(3).jobs == 3


class TestResultCache:
    def test_env_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_INSTRS", str(INSTRS))
        monkeypatch.setenv("REPRO_BENCH_SKIP", str(SKIP))
        monkeypatch.setenv("REPRO_BENCH_SEED", str(SEED))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache()
        result = cache.run(RunSpec("go", conventional_config()))
        explicit = RunSpec("go", conventional_config()).resolved(
            INSTRS, SKIP, SEED)
        assert cache.engine.last_batch.keys == [explicit.key()]
        # A second, fresh cache is served from the persistent store.
        cache2 = ResultCache()
        again = cache2.run(RunSpec("go", conventional_config()))
        assert cache2.last_batch.store_hits == 1
        assert again.to_dict() == result.to_dict()

    def test_no_cache_env_disables_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache()
        assert cache.engine.store is None
