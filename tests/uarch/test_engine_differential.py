"""Cross-engine differential suite: compiled tier == interpreter, bit
for bit.

The compiled engine's only contract is that it is *undetectable* in the
results: for every configuration the full ``SimStats`` dump must equal
the interpreter's.  This suite checks the contract three ways:

* a deterministic sample of the configuration space (every axis of
  :data:`repro.uarch.enginediff.AXES` probed individually, plus random
  combinations),
* a randomized property run whose failures are *shrunk* to a minimal
  failing configuration before being reported,
* direct unit coverage of engine selection, fallback accounting, and
  specialization caching.
"""

import os

import pytest

from repro.core.virtual_physical import AllocationStage
from repro.experiments.figures import NRR_SWEEP
from repro.memory.cache import CacheConfig
from repro.obs.metrics import get_registry
from repro.uarch import compiled, enginediff, native
from repro.uarch.config import (
    ProcessorConfig,
    conventional_config,
    virtual_physical_config,
)
from repro.uarch.processor import Processor
from repro.trace.generator import materialized_trace
from repro.trace.workloads import load_workload


def _trace(workload="li", n=6_500, seed=1234):
    return iter(materialized_trace(load_workload(workload), seed, n))


def _run(config, engine, workload="li", n=6_000, skip=500, idle=True):
    processor = Processor(config, idle_skip=idle, engine=engine)
    result = processor.run(_trace(workload, skip + n),
                           max_instructions=n, skip=skip)
    return processor, result.stats.to_dict()


# ---- sampled config space ----------------------------------------------

SAMPLED = enginediff.sample_space(16, seed=2026)


@pytest.mark.parametrize("index", range(len(SAMPLED)))
@pytest.mark.parametrize("workload", ("li", "swim"))
def test_sampled_config_bit_identical(index, workload):
    choice = SAMPLED[index]
    outcome = enginediff.compare_point(choice, workload)
    assert outcome["ok"], (
        f"engines diverge at {enginediff.describe(choice, workload)} "
        f"(engine_used={outcome['engine_used']}): {outcome['mismatches']}")


def test_randomized_property_with_shrinking():
    """Random axis combinations; failures report a *minimal* config."""
    for i, choice in enumerate(enginediff.sample_space(12, seed=97)):
        workload = enginediff.DIFF_WORKLOADS[
            i % len(enginediff.DIFF_WORKLOADS)]
        outcome = enginediff.compare_point(choice, workload)
        if not outcome["ok"]:  # pragma: no cover - only on regression
            small_choice, small_workload = enginediff.shrink(
                dict(choice), workload)
            small = enginediff.compare_point(small_choice, small_workload)
            pytest.fail(
                "engines diverge; minimal failing config: "
                f"{enginediff.describe(small_choice, small_workload)} -> "
                f"{small['mismatches']}")


def test_shrinker_reaches_fixpoint_on_synthetic_failure(monkeypatch):
    """The shrinker strips irrelevant axes from a synthetic failure."""
    # Fail exactly when the scarce-FU axis is off-default; every other
    # axis must be shrunk away.
    real = enginediff.compare_point

    def fake(choice, workload, **kwargs):
        if choice["fus"] == "scarce":
            return {"ok": False, "engine_used": "compiled",
                    "mismatches": {"cycles": (1, 2)}}
        return {"ok": True, "engine_used": "compiled", "mismatches": {}}

    monkeypatch.setattr(enginediff, "compare_point", fake)
    try:
        noisy = enginediff.default_choice()
        noisy["fus"] = "scarce"
        noisy["idle_skip"] = False
        noisy["perfect_bp"] = True
        noisy["regs"] = (48, 16)
        small, workload = enginediff.shrink(dict(noisy), "swim")
    finally:
        monkeypatch.setattr(enginediff, "compare_point", real)
    defaults = enginediff.default_choice()
    assert small["fus"] == "scarce"
    assert workload == enginediff.DIFF_WORKLOADS[0]
    assert all(small[a] == defaults[a] for a in small if a != "fus")


# ---- engine selection and fallback -------------------------------------

def test_resolve_engine_names_and_env(monkeypatch):
    assert compiled.resolve_engine("interp") == "interp"
    assert compiled.resolve_engine("compiled") == "compiled"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert compiled.resolve_engine(None) == "interp"
    assert compiled.resolve_engine("auto") == "interp"
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert compiled.resolve_engine("auto") == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", " interp ")
    assert compiled.resolve_engine(None) == "interp"
    with pytest.raises(ValueError):
        compiled.resolve_engine("turbo")
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        compiled.resolve_engine("auto")


def test_env_selects_compiled_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    processor, stats = _run(ProcessorConfig(), engine=None, n=2_000)
    assert processor.engine_used == "compiled"
    assert stats["engine_fallbacks"] == 0


def test_config_engine_field_selects_tier(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    processor, _ = _run(ProcessorConfig(engine="compiled"), engine=None,
                        n=2_000)
    assert processor.engine_used == "compiled"
    processor, _ = _run(ProcessorConfig(engine="interp"), engine=None,
                        n=2_000)
    assert processor.engine_used == "interp"


def test_fallback_on_capability_mismatch_is_counted():
    """A renamer whose instance flags contradict its registered
    capabilities must fall back to the interpreter, counted once."""
    config = virtual_physical_config(nrr=8)
    processor = Processor(config, engine="compiled")
    processor.renamer.has_complete_hook = not processor.renamer.has_complete_hook
    # Restore coherence enough to run: flip back the behaviourally
    # meaningful flag after feature detection sees the mismatch.
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "interp"
    assert result.stats.engine_fallbacks == 1


def test_instrumented_step_disables_compiled_engine():
    """Per-instance _step instrumentation (tracers, tests) wins."""
    calls = []
    processor = Processor(ProcessorConfig(), engine="compiled")
    original = processor._step

    def counting_step():
        calls.append(1)
        return original()

    processor._step = counting_step
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "interp"
    assert calls, "instrumented _step was bypassed"
    # Not a codegen failure: nothing is counted as a fallback.
    assert result.stats.engine_fallbacks == 0


def test_method_override_on_renamer_disables_inline_specialization():
    """An instance-level renamer method override must still be honored
    (the inline fast path is disabled, not the compiled tier)."""
    config = ProcessorConfig()
    processor = Processor(config, engine="compiled")
    seen = []
    inner = processor.renamer.on_commit

    def spying_on_commit(instr):
        seen.append(instr.seq)
        return inner(instr)

    processor.renamer.on_commit = spying_on_commit
    flags, _ = compiled.engine_features(processor)
    assert not flags["CONV"] and not flags["INLINE_RENAME"]
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "compiled"
    assert len(seen) == result.stats.committed


# ---- specialization cache ----------------------------------------------

def test_specializations_shared_across_equal_configs():
    compiled.clear_cache()
    try:
        for _ in range(3):
            processor, _ = _run(ProcessorConfig(), "compiled", n=1_500)
            assert processor.engine_used == "compiled"
        info = compiled.cache_info()
        assert info["specializations"] == 1
        assert info["build_failures"] == {}
    finally:
        compiled.clear_cache()


def test_engine_key_stable_and_distinguishes_features():
    base = Processor(ProcessorConfig(), engine="compiled")
    again = Processor(ProcessorConfig(), engine="compiled")
    other = Processor(ProcessorConfig(rob_size=64), engine="compiled")
    assert compiled.engine_key(base) == compiled.engine_key(again)
    assert compiled.engine_key(base) != compiled.engine_key(other)


def test_specialized_source_drops_dead_branches():
    plain = compiled.specialized_source(Processor(ProcessorConfig()))
    ported = compiled.specialized_source(
        Processor(ProcessorConfig(rf_model=True)))
    assert "rf_claim_write" not in plain
    assert "rf_claim_write" in ported
    assert "#@" not in plain  # directives fully consumed
    assert str(ProcessorConfig().rob_size) in plain  # consts baked


def test_code_cache_lru_bound_and_counters(monkeypatch):
    """The in-process specialization cache is LRU-bounded: filling it
    past the cap evicts the oldest entry and counts the eviction."""
    compiled.clear_cache()
    monkeypatch.setattr(compiled, "_CACHE_CAP", 2)
    try:
        # Three distinct specializations (ROB size is a baked const).
        for rob in (128, 64, 32):
            _run(ProcessorConfig(rob_size=rob), "compiled", n=600, skip=0)
        info = compiled.cache_info()
        assert info["specializations"] == 2  # bounded, oldest evicted
        assert info["misses"] == 3 and info["evictions"] == 1
        # Re-running an evicted config is a miss; a cached one a hit.
        _run(ProcessorConfig(rob_size=128), "compiled", n=600, skip=0)
        _run(ProcessorConfig(rob_size=128), "compiled", n=600, skip=0)
        info = compiled.cache_info()
        assert info["misses"] == 4 and info["hits"] == 1
    finally:
        compiled.clear_cache()


# ---- native tier --------------------------------------------------------

needs_toolchain = pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")


def test_resolve_engine_accepts_native(monkeypatch):
    assert compiled.resolve_engine("native") == "native"
    monkeypatch.setenv("REPRO_ENGINE", "native")
    assert compiled.resolve_engine("auto") == "native"
    assert compiled.resolve_engine(None) == "native"


def test_native_expected_tier_for_early_release():
    choice = enginediff.default_choice()
    assert enginediff.expected_tier(choice, "native") == "native"
    choice["policy"] = "early-release"
    assert enginediff.expected_tier(choice, "native") == "compiled"
    assert enginediff.expected_tier(choice, "compiled") == "compiled"


def test_native_unavailable_falls_back_to_compiled(monkeypatch):
    """Without a toolchain the ladder lands on the compiled tier —
    loudly (one counted fallback), never a crash."""
    monkeypatch.setattr(native, "_toolchain", None)
    native.clear_cache()
    processor, stats = _run(ProcessorConfig(), "native", n=2_000)
    assert processor.engine_used == "compiled"
    assert stats["engine_fallbacks"] == 1
    assert native.build_failures.get("no-toolchain", 0) >= 1
    native.clear_cache()


@needs_toolchain
@pytest.mark.parametrize("index", range(8))
@pytest.mark.parametrize("workload", ("li", "swim"))
def test_native_sampled_config_bit_identical(index, workload):
    choice = SAMPLED[index]
    outcome = enginediff.compare_point(choice, workload, engine="native")
    assert outcome["ok"], (
        f"native diverges at {enginediff.describe(choice, workload)} "
        f"(engine_used={outcome['engine_used']}): {outcome['mismatches']}")


@needs_toolchain
def test_native_artifact_reused_across_processes_worth_of_state():
    """A second build of the same config must hit the in-process (or
    on-disk) artifact cache, not recompile from scratch."""
    config = virtual_physical_config(nrr=8)
    p1, s1 = _run(config, "native", n=2_000)
    loaded = native.cache_info()["loaded_libraries"]
    p2, s2 = _run(config, "native", n=2_000)
    assert p1.engine_used == p2.engine_used == "native"
    assert s1 == s2
    assert native.cache_info()["loaded_libraries"] == loaded
    assert s1["engine_fallbacks"] == 0


#: Two sizing points of one flag vector (vp-writeback, no port model, no
#: store-queue bound) that differ in every runtime-sized structure: NRR,
#: register counts, widths, ROB/IQ/fetch buffer, cache geometry and
#: MSHRs, FU counts and the BHT.
SIZING_A = virtual_physical_config(nrr=8)
SIZING_B = virtual_physical_config(
    nrr=24, int_phys=96, fp_phys=80, fetch_width=4, rename_width=4,
    issue_width=4, commit_width=4, rob_size=48, iq_size=24,
    fetch_buffer_size=6,
    cache=CacheConfig(size_bytes=4 * 1024, line_bytes=64, hit_latency=3,
                      miss_penalty=30, mshr_entries=2,
                      bus_cycles_per_line=6),
    cache_ports=1, fu_counts=dict(enginediff.SCARCE_FUS), bht_entries=256)


def _key(config):
    return native.native_key(Processor(config))


def test_native_key_ignores_sizing_but_not_flags():
    assert _key(SIZING_A) == _key(SIZING_B)
    assert _key(SIZING_A) == _key(virtual_physical_config(nrr=1))
    flag_changes = (
        conventional_config(),
        virtual_physical_config(nrr=8, allocation=AllocationStage.ISSUE),
        SIZING_A.with_(perfect_branch_prediction=True),
        SIZING_A.with_(store_queue_size=16),
        SIZING_A.with_(rf_model=True),
        SIZING_A.with_(rf_model=True, rf_banks=2, rf_bank_read_ports=2),
    )
    keys = [_key(config) for config in flag_changes]
    assert _key(SIZING_A) not in keys
    assert len(set(keys)) == len(keys)
    assert native.native_key(Processor(SIZING_A, idle_skip=False)) \
        != _key(SIZING_A)


def test_figure4_and_5_grids_need_three_artifacts():
    configs = [conventional_config()] + [
        virtual_physical_config(nrr=nrr, allocation=stage)
        for stage in (AllocationStage.WRITEBACK, AllocationStage.ISSUE)
        for nrr in NRR_SWEEP]
    assert len({config.key() for config in configs}) == 13
    assert len({_key(config) for config in configs}) == 3


@needs_toolchain
def test_native_one_library_serves_interleaved_sizing_points():
    """A -> B -> A through one loaded library, each bit-identical to the
    interpreter: any C-side state a run fails to reset (or a table sized
    by an earlier run) shows up as a divergence on the way back."""
    native.clear_cache()
    for config in (SIZING_A, SIZING_B, SIZING_A):
        processor, stats = _run(config, "native", n=3_000)
        _, reference = _run(config, "interp", n=3_000)
        assert processor.engine_used == "native"
        assert stats["engine_fallbacks"] == 0
        assert stats == reference
    assert native.cache_info()["loaded_libraries"] == 1


@needs_toolchain
def test_native_artifact_outcomes_are_counted(tmp_path, monkeypatch):
    """A second NRR of one flag vector is served from memory, not built;
    a fresh process finds it on disk; no toolchain counts a failure."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    native.clear_cache()
    outcomes = ("built", "disk", "memory", "failed")

    def counts():
        return {o: native._ARTIFACTS.value(outcome=o) for o in outcomes}

    before = counts()
    for nrr in (4, 16):
        _run(virtual_physical_config(nrr=nrr), "native", n=1_000)
    native.clear_cache()  # what a fresh process sees
    _run(virtual_physical_config(nrr=32), "native", n=1_000)
    monkeypatch.setattr(native, "_toolchain", None)
    native.clear_cache()
    _run(virtual_physical_config(nrr=32), "native", n=1_000)
    native.clear_cache()
    after = counts()
    assert {o: after[o] - before[o] for o in outcomes} == {
        "built": 1, "disk": 1, "memory": 1, "failed": 1}
    assert len(list((tmp_path / "native").glob("engine-*.so"))) == 1
    assert 'repro_native_artifacts_total{outcome="memory"}' \
        in get_registry().render()


@needs_toolchain
def test_native_probe_reports_available():
    report = native.probe()
    assert report["available"]
    assert report["toolchain"]
    assert report["cache_dir_writable"]
    assert report["template_fingerprint"] == native.template_fingerprint()
