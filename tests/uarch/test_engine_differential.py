"""Cross-engine differential suite: native tier == interpreter, bit
for bit.

The native engine's only contract is that it is *undetectable* in the
results: for every configuration the full ``SimStats`` dump must equal
the interpreter's.  This suite checks the contract three ways:

* a deterministic sample of the configuration space (every axis of
  :data:`repro.uarch.enginediff.AXES` probed individually, plus random
  combinations),
* a randomized property run whose failures are *shrunk* to a minimal
  failing configuration before being reported,
* direct unit coverage of engine selection, fallback accounting, the
  trace columns the native tier reads, and the artifact cache.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro import experiments
from repro.core.virtual_physical import AllocationStage
from repro.experiments.figures import NRR_SWEEP
from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import DEFAULT_FU_COUNTS, FUKind, OpClass
from repro.memory.cache import CacheConfig
from repro.obs.metrics import get_registry
from repro.uarch import enginediff, native
from repro.uarch.config import (
    ProcessorConfig,
    conventional_config,
    policy_config,
    resolve_engine,
    virtual_physical_config,
)
from repro.uarch.processor import Processor, simulate
from repro.trace import generator
from repro.trace.generator import materialized_trace
from repro.trace.workloads import load_workload

from tests.conftest import TraceBuilder, r

needs_toolchain = pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")


def _trace(workload="li", n=6_500, seed=1234):
    return iter(materialized_trace(load_workload(workload), seed, n))


def _run(config, engine, workload="li", n=6_000, skip=500):
    processor = Processor(config, engine=engine)
    result = processor.run(_trace(workload, skip + n),
                           max_instructions=n, skip=skip)
    return processor, result.stats.to_dict()


# ---- sampled config space ----------------------------------------------

SAMPLED = enginediff.sample_space(16, seed=2026)


@needs_toolchain
@pytest.mark.parametrize("index", range(len(SAMPLED)))
@pytest.mark.parametrize("workload", enginediff.DIFF_WORKLOADS)
def test_sampled_config_bit_identical(index, workload):
    choice = SAMPLED[index]
    outcome = enginediff.compare_point(choice, workload)
    assert outcome["ok"], (
        f"engines diverge at {enginediff.describe(choice, workload)} "
        f"(engine_used={outcome['engine_used']}): {outcome['mismatches']}")


@needs_toolchain
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
    def fake(choice, workload, **kwargs):
        if choice["fus"] == "scarce":
            return {"ok": False, "engine_used": "native",
                    "mismatches": {"cycles": (1, 2)}}
        return {"ok": True, "engine_used": "native", "mismatches": {}}

    monkeypatch.setattr(enginediff, "compare_point", fake)
    noisy = enginediff.default_choice()
    noisy["fus"] = "scarce"
    noisy["memory"] = (400, 16, 16)
    noisy["perfect_bp"] = True
    noisy["regs"] = (48, 16)
    small, workload = enginediff.shrink(dict(noisy), "swim")
    defaults = enginediff.default_choice()
    assert small["fus"] == "scarce"
    assert workload == enginediff.DIFF_WORKLOADS[0]
    assert all(small[a] == defaults[a] for a in small if a != "fus")


def test_run_sample_reports_every_point_and_shrunk_failures(monkeypatch):
    """The CI sweep counts every config x workload point and reports
    each failing one by its minimal reproducer."""
    def fake(choice, workload, **kwargs):
        ok = choice["fus"] != "scarce"
        return {"ok": ok, "engine_used": "native",
                "mismatches": {} if ok else {"cycles": (1, 2)}}

    monkeypatch.setattr(enginediff, "compare_point", fake)
    ticks = []
    report = enginediff.run_sample(24, seed=2026, workloads=("swim", "go"),
                                   progress=lambda *tick: ticks.append(tick))
    scarce = [c for c in enginediff.sample_space(24, 2026)
              if c["fus"] == "scarce"]
    assert scarce  # the single-axis probes include the FU axis
    assert (report["configs"], report["points"], report["ok"]) == (
        24, 48, False)
    assert ticks == [(i, 48) for i in range(1, 49)]
    assert [(f["point"], f["mismatches"]) for f in report["failures"]] == [
        ("li: fus='scarce'", {"cycles": [1, 2]})] * (2 * len(scarce))


@needs_toolchain
def test_engine_diff_tool_writes_a_passing_report(tmp_path, capsys):
    path = pathlib.Path(__file__).parents[2] / "tools" / "engine_diff.py"
    spec = importlib.util.spec_from_file_location("engine_diff", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "engine_diff.json"
    assert tool.main(["--configs", "2", "--workloads", "li", "--quiet",
                      "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["points"], report["failures"]) == (2, [])
    assert "bit-identical between interp and native" in \
        capsys.readouterr().out
    with pytest.raises(SystemExit):  # no tier to pick any more
        tool.main(["--engine", "native"])


# ---- engine selection and fallback -------------------------------------

def test_resolve_engine_names_and_env(monkeypatch):
    """Unset, ``REPRO_ENGINE`` leaves ``auto`` for each run to settle."""
    assert resolve_engine("interp") == "interp"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(None) == "auto"
    assert resolve_engine("auto") == "auto"
    monkeypatch.setenv("REPRO_ENGINE", "auto")
    assert resolve_engine(None) == "auto"
    monkeypatch.setenv("REPRO_ENGINE", " interp ")
    assert resolve_engine(None) == "interp"
    with pytest.raises(ValueError):
        resolve_engine("turbo")
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        resolve_engine("auto")


def test_resolve_engine_accepts_native(monkeypatch):
    assert resolve_engine("native") == "native"
    monkeypatch.setenv("REPRO_ENGINE", "native")
    assert resolve_engine("auto") == "native"
    assert resolve_engine(None) == "native"


def test_resolve_engine_rejects_removed_compiled_tier(monkeypatch):
    """``"compiled"`` is no tier: naming it is an error that points at
    native, whether it comes from the argument, the config field or
    ``REPRO_ENGINE``."""
    with pytest.raises(ValueError, match="native"):
        resolve_engine("compiled")
    with pytest.raises(ValueError, match="native"):
        ProcessorConfig(engine="compiled")
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    with pytest.raises(ValueError, match="native"):
        resolve_engine("auto")
    with pytest.raises(ValueError, match="native"):
        Processor(ProcessorConfig()).run(_trace(n=200),
                                         max_instructions=100)


@needs_toolchain
def test_env_selects_native_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "native")
    processor, stats = _run(ProcessorConfig(), engine=None, n=2_000)
    assert processor.engine_used == "native"
    assert stats["engine_fallbacks"] == 0


@needs_toolchain
def test_config_engine_field_selects_tier(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    processor, _ = _run(ProcessorConfig(engine="native"), engine=None,
                        n=2_000)
    assert processor.engine_used == "native"
    processor, _ = _run(ProcessorConfig(engine="interp"), engine=None,
                        n=2_000)
    assert processor.engine_used == "interp"


@needs_toolchain
def test_auto_takes_native_where_the_artifact_is_ready(monkeypatch):
    """Unset ``REPRO_ENGINE``: a run the C loop lowers goes native, and
    a policy it refuses (early-release) takes the interpreter without a
    counted fallback; the same run requested as native counts one."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    processor, stats = _run(ProcessorConfig(), engine=None, n=2_000)
    assert (processor.engine_used, stats["engine_fallbacks"]) == (
        "native", 0)
    early = policy_config("early-release")
    processor, auto = _run(early, engine=None, n=2_000)
    assert (processor.engine_used, auto["engine_fallbacks"]) == (
        "interp", 0)
    processor, pinned = _run(early, engine="native", n=2_000)
    assert (processor.engine_used, pinned["engine_fallbacks"]) == (
        "interp", 1)
    assert dict(auto, engine_fallbacks=1) == pinned


def test_auto_without_a_toolchain_is_a_quiet_interp_run(tmp_path,
                                                         monkeypatch):
    """No artifact to load and no compiler: ``auto`` runs interp and
    counts nothing; ``simulate`` then reads records, not columns."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_toolchain", None)
    native.clear_cache()
    columns = []
    monkeypatch.setattr(generator, "trace_columns",
                        lambda *args: columns.append(args))
    result = simulate(ProcessorConfig(), workload="li",
                      max_instructions=1_000, skip=100)
    assert (result.engine_used, result.stats.engine_fallbacks) == (
        "interp", 0)
    assert columns == [] and native.build_failures == {}
    native.clear_cache()


@needs_toolchain
def test_deferred_builds_run_auto_on_interp_until_the_library_loads(
        tmp_path, monkeypatch):
    """A process that defers its builds (``repro serve``) never
    compiles in a run: ``auto`` takes the interpreter with no fallback
    while the build is pending, an explicit native run falls back
    (``artifact-pending``), and once the background build has loaded
    the library ``auto`` runs native — bit-identical throughout."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_builds_deferred", False)
    monkeypatch.setattr(native, "_build_thread", None)
    monkeypatch.setattr(native, "_build_outcome", None)
    native.clear_cache()
    native.defer_builds()
    assert native.auto_status() == ("interp", "native build pending")
    processor, pending = _run(ProcessorConfig(), engine=None, n=2_000)
    assert (processor.engine_used, pending["engine_fallbacks"]) == (
        "interp", 0)
    processor, pinned = _run(ProcessorConfig(), engine="native", n=2_000)
    assert (processor.engine_used, pinned["engine_fallbacks"]) == (
        "interp", 1)
    assert native.build_failures == {"artifact-pending": 1}
    assert not list(tmp_path.glob("native/engine-*"))
    thread = native.start_deferred_build()
    assert native.start_deferred_build() is None  # one build per process
    thread.join(120)
    assert native.auto_status() == ("native", "artifact loaded")
    processor, loaded = _run(ProcessorConfig(), engine=None, n=2_000)
    assert (processor.engine_used, loaded["engine_fallbacks"]) == (
        "native", 0)
    assert loaded == pending
    native.clear_cache()


def test_fallback_on_capability_mismatch_is_counted():
    """A renamer whose instance flags contradict its registered
    capabilities must fall back to the interpreter, counted once."""
    config = virtual_physical_config(nrr=8)
    processor = Processor(config, engine="native")
    processor.renamer.has_complete_hook = not processor.renamer.has_complete_hook
    assert native.native_features(processor) == (None, "unsupported-policy")
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "interp"
    assert result.stats.engine_fallbacks == 1


def test_instrumented_step_disables_native_engine():
    """Per-instance _step instrumentation (tracers, tests) wins."""
    calls = []
    processor = Processor(ProcessorConfig(), engine="native")
    original = processor._step

    def counting_step():
        calls.append(1)
        return original()

    processor._step = counting_step
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "interp"
    assert calls, "instrumented _step was bypassed"
    # Not a native failure: the request is reinterpreted, not counted.
    assert result.stats.engine_fallbacks == 0


def test_method_override_on_renamer_falls_back_to_interp():
    """An instance-level renamer method override must still be honored:
    the C loop inlines the renamer, so the run lands on the
    interpreter (one counted fallback) and the override sees every
    commit."""
    processor = Processor(ProcessorConfig(), engine="native")
    seen = []
    inner = processor.renamer.on_commit

    def spying_on_commit(instr):
        seen.append(instr.seq)
        return inner(instr)

    processor.renamer.on_commit = spying_on_commit
    assert native.native_features(processor) == (None, "unsupported-policy")
    result = processor.run(_trace(n=2_500), max_instructions=2_000, skip=0)
    assert processor.engine_used == "interp"
    assert result.stats.engine_fallbacks == 1
    assert len(seen) == result.stats.committed


# ---- native tier --------------------------------------------------------

def test_native_expected_tier_for_early_release():
    choice = enginediff.default_choice()
    assert enginediff.expected_tier(choice) == "native"
    choice["policy"] = "early-release"
    assert enginediff.expected_tier(choice) == "interp"


def test_native_unavailable_falls_back_to_interp(tmp_path, monkeypatch):
    """Without a toolchain (and no artifact on disk to load) the run
    lands on the interpreter — loudly (one counted fallback), never a
    crash."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_toolchain", None)
    native.clear_cache()
    processor, stats = _run(ProcessorConfig(), "native", n=2_000)
    assert processor.engine_used == "interp"
    assert stats["engine_fallbacks"] == 1
    assert native.build_failures.get("no-toolchain", 0) >= 1
    native.clear_cache()


def _patched_param_block(**slots):
    """A ``_param_block`` that overwrites ``slots``; each block below is
    one the C side refuses with rc 2 before running anything."""
    def param_block(processor, flags, _real=native._param_block):
        block = _real(processor, flags)
        for name, value in slots.items():
            block[native._PARAM_NAMES.index(name)] = value
        return block
    return param_block


_unsizable_param_block = _patched_param_block(FU_N_0=-1)


#: More ways a native request misses: ``case -> (config, run overrides,
#: processor state, native module patch, recorded reason)``.  The
#: interpreted reference run gets the same overrides and state.
FALLBACKS = {
    "early-release": (policy_config("early-release"), {}, {}, {},
                      "unsupported-policy"),
    "non-pristine": (ProcessorConfig(), {}, {"now": 10}, {},
                     "non-pristine-state"),
    "unbounded-trace": (ProcessorConfig(), {"max_instructions": None}, {},
                        {}, "unbounded-trace"),
    "empty-trace": (ProcessorConfig(), {"max_instructions": 0}, {}, {},
                    "empty-trace"),
    "native-invariant": (virtual_physical_config(nrr=8), {}, {},
                         {"_param_block": _unsizable_param_block},
                         "native-invariant"),
    # Flag sets the loop cannot run: banks without the port model, a VP
    # hook or retry gating on the conventional renamer, a non-0/1 flag.
    "banks-without-port-model": (
        ProcessorConfig(rf_model=True, rf_banks=2, rf_bank_read_ports=2),
        {}, {},
        {"_param_block": _patched_param_block(F_RF=0)},
        "native-invariant"),
    "vp-hook-without-vp": (
        ProcessorConfig(), {}, {},
        {"_param_block": _patched_param_block(F_ISSUE=1)},
        "native-invariant"),
    "retry-without-vp": (
        ProcessorConfig(), {}, {},
        {"_param_block": _patched_param_block(F_RETRY=1)},
        "native-invariant"),
    "flag-not-boolean": (
        virtual_physical_config(nrr=8), {}, {},
        {"_param_block": _patched_param_block(F_PERFECT=2)},
        "native-invariant"),
    # An event past the wheel's span is refused, not filed in the bucket
    # of an earlier cycle: a 1-cycle span cannot hold a 2-cycle hit.
    "event-past-the-wheel": (
        virtual_physical_config(nrr=8), {}, {},
        {"_param_block": _patched_param_block(EV_HORIZON=1)},
        "native-invariant"),
    # The wheel has a largest span: a cache whose queued fills can land
    # past it (50 + 16,399 x 4 cycles) is refused before the C side
    # allocates anything, and the C side refuses such a span itself.
    "event-horizon-too-long": (
        ProcessorConfig(cache=CacheConfig(mshr_entries=16_400)), {}, {}, {},
        "event-horizon-too-long"),
    "span-past-the-largest-wheel": (
        ProcessorConfig(), {}, {},
        {"_param_block": _patched_param_block(
            EV_HORIZON=native.MAX_EVENT_HORIZON + 1)},
        "native-invariant"),
    # The tag index is a mask, so the line count must be a power of two
    # (CacheConfig guarantees it; the C side checks it).
    "lines-not-power-of-two": (
        virtual_physical_config(nrr=8), {}, {},
        {"_param_block": _patched_param_block(NUM_LINES=96)},
        "native-invariant"),
}


@needs_toolchain
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_each_fallback_lands_on_interp_counted_once(case, monkeypatch):
    """native -> interp is one step: whatever makes a native request
    miss, the run lands on the interpreter with exactly one counted
    fallback, one recorded reason, and the interpreter's stats."""
    config, overrides, state, patch, reason = FALLBACKS[case]
    for name, value in patch.items():
        monkeypatch.setattr(native, name, value)

    def run(engine):
        processor = Processor(config, engine=engine)
        vars(processor).update(state)
        result = processor.run(_trace(n=1_700), **{
            "max_instructions": 1_500, "skip": 200, **overrides})
        return processor, result.stats.to_dict()

    _, expected = run("interp")
    native.clear_cache()
    processor, stats = run("native")
    assert processor.engine_used == "interp"
    assert native.cache_info()["build_failures"] == {reason: 1}
    assert stats == dict(expected, engine_fallbacks=1)
    native.clear_cache()


@needs_toolchain
@pytest.mark.parametrize("case", sorted(FALLBACKS) + ["native-alloc"])
def test_every_fallback_warms_the_interpreter_once(case, monkeypatch):
    """The C loop warms only its own copies of the cache tags and the
    predictor, so whatever makes a native request miss — a refusal
    before the call, rc 2, or rc 3 (a table too large to allocate) —
    the interpreter warms its cache and predictor from records exactly
    once before it runs the point."""
    config, overrides, state, patch, reason = FALLBACKS.get(case) or (
        ProcessorConfig(), {}, {},
        {"_param_block": _patched_param_block(ROB_SIZE=1 << 58)},
        "native-alloc")
    for name, value in patch.items():
        monkeypatch.setattr(native, name, value)
    warmed = []
    warm_up = Processor._warm_up

    def counting_warm_up(self, stream, skip):
        warmed.append(skip)
        return warm_up(self, stream, skip)

    monkeypatch.setattr(Processor, "_warm_up", counting_warm_up)

    def run(engine):
        processor = Processor(config, engine=engine)
        vars(processor).update(state)
        result = processor.run(_trace(n=1_700), **{
            "max_instructions": 1_500, "skip": 200, **overrides})
        return processor, result.stats.to_dict()

    _, expected = run("interp")
    native.clear_cache()
    warmed.clear()
    processor, stats = run("native")
    assert processor.engine_used == "interp"
    assert native.cache_info()["build_failures"] == {reason: 1}
    assert warmed == [200]
    assert stats == dict(expected, engine_fallbacks=1)
    native.clear_cache()


@needs_toolchain
@pytest.mark.parametrize("workload", ["li", "swim"])
def test_native_warm_up_matches_the_interpreters(workload):
    """``repro_run`` warms the cache tags and the predictor over the
    first ``skip`` entries itself, skipping entries with address 0 as
    ``Cache.warm_address``'s caller does: after a run both equal the
    interpreter's, also when the run window is one instruction."""
    records = materialized_trace(load_workload(workload), 1234, 5_000)
    zeroed = [i for i, rec in enumerate(records[:3_000])
              if rec.op in (OpClass.LOAD_INT, OpClass.LOAD_FP)][::3]
    assert zeroed
    records = list(records)
    for i in zeroed:
        rec = records[i]
        records[i] = TraceRecord.trusted(rec.pc, rec.op, dest=rec.dest,
                                         src1=rec.src1, addr=0)
    for n, skip in ((1, 3_000), (2_000, 3_000)):
        states = []
        for engine in ("interp", "native"):
            processor = Processor(ProcessorConfig(), engine=engine)
            stats = processor.run(iter(records), max_instructions=n,
                                  skip=skip).stats.to_dict()
            assert processor.engine_used == engine
            states.append((list(processor.mem.cache._tags),
                           list(processor.bht._counters), stats))
        assert states[0] == states[1]


def test_a_negative_skip_is_refused_on_every_tier():
    for engine in ("interp", "native"):
        with pytest.raises(ValueError, match="skip must be non-negative"):
            Processor(engine=engine).run(_trace(n=100),
                                         max_instructions=50, skip=-1)


def _without_store_source(records, indices):
    """``records`` with the stores at ``indices`` missing their value
    source (a shape the C loop cannot model)."""
    records = list(records)
    for i in indices:
        rec = records[i]
        assert rec.op in (OpClass.STORE_INT, OpClass.STORE_FP)
        records[i] = TraceRecord.trusted(rec.pc, rec.op, src1=rec.src1,
                                         addr=rec.addr)
    return records


@needs_toolchain
@pytest.mark.parametrize("where", ["window", "prefix", "both"])
def test_store_missing_src_is_checked_per_run_window(where):
    """Only a bad store inside ``[skip, skip + n)`` sends the run to the
    interpreter (one counted fallback), which then crashes on it exactly
    as an interpreted run does; one in the warm-up prefix alone runs
    natively, and does not hide one in the window either."""
    skip, n = 300, 1_200
    records = materialized_trace(load_workload("swim"), 1234, skip + n)
    stores = [i for i, rec in enumerate(records)
              if rec.op in (OpClass.STORE_INT, OpClass.STORE_FP)]
    before = [i for i in stores if i < skip][-1]
    inside = [i for i in stores if i >= skip][0]
    bad = {"window": [inside], "prefix": [before],
           "both": [before, inside]}[where]
    trace = _without_store_source(records, bad)

    def run(engine):
        processor = Processor(ProcessorConfig(), engine=engine)
        try:
            processor.run(iter(trace), max_instructions=n, skip=skip)
        except IndexError:  # the interpreter's crash on such a store
            return processor, processor.stats.to_dict(), True
        return processor, processor.stats.to_dict(), False

    _, expected, crashed = run("interp")
    native.clear_cache()
    processor, stats, native_crashed = run("native")
    falls_back = where != "prefix"
    assert crashed == native_crashed == falls_back
    assert processor.engine_used == ("interp" if falls_back else "native")
    assert native.cache_info()["build_failures"] == (
        {"store-missing-src": 1} if falls_back else {})
    assert stats == dict(expected, engine_fallbacks=int(falls_back))
    native.clear_cache()


def test_column_overflow_falls_back_to_interp():
    """A value too wide for its column is a counted fallback, never a
    truncation: the interpreter runs the genuine records."""
    records = list(materialized_trace(load_workload("li"), 1234, 1_200))
    i = next(i for i, rec in enumerate(records[300:], 300)
             if rec.op is OpClass.LOAD_INT)
    rec = records[i]
    records[i] = TraceRecord.trusted(rec.pc, rec.op, dest=rec.dest,
                                     src1=rec.src1, addr=1 << 63)

    def run(engine):
        processor = Processor(ProcessorConfig(), engine=engine)
        result = processor.run(iter(records), max_instructions=900,
                               skip=300)
        return processor, result.stats.to_dict()

    _, expected = run("interp")
    native.clear_cache()
    processor, stats = run("native")
    assert processor.engine_used == "interp"
    assert native.cache_info()["build_failures"] == {"column-overflow": 1}
    assert stats == dict(expected, engine_fallbacks=1)
    native.clear_cache()


_NEGATIVE_ADDRESS_RUN = """
import json
from repro.trace import ArrayWalk, IntOp, Load, LoopKernel, Store, Workload
from repro.uarch import native
from repro.uarch.config import ProcessorConfig
from repro.uarch.processor import simulate

kernel = LoopKernel(
    name="k", body=[Load("v", "a"), IntOp("x", ("v", "x")),
                    Store("x", "a")],
    iterations=4, arrays={"a": ArrayWalk(base=-4096, length=4)})
stats = {}
for engine in ("interp", "native"):
    result = simulate(ProcessorConfig(engine=engine),
                      workload=Workload("neg", [kernel], category="int"),
                      max_instructions=1_500, skip=200)
    stats[engine] = result.stats.to_dict()
print(json.dumps({"stats": stats,
                  "failures": native.cache_info()["build_failures"]}))
"""


@needs_toolchain
def test_negative_addresses_fall_back_to_interp(tmp_path):
    """A negative address never reaches the C loop, whose cache index
    uses C's signed remainder (a write before the tag array, a crash):
    the run is a counted ``negative-address`` fallback and lands on the
    interpreter's statistics.  In a child process, so a crash shows as
    an exit status rather than taking the test run down."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_ADDRESS_RUN], capture_output=True,
        text=True, timeout=240, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == {"negative-address": 1}
    assert report["stats"]["native"] == dict(report["stats"]["interp"],
                                             engine_fallbacks=1)


@pytest.mark.parametrize("config", [
    policy_config("early-release"), virtual_physical_config(nrr=8)],
    ids=["unsupported-policy", "injected-rc2"])
def test_cached_columns_fall_back_with_genuine_records(config,
                                                       monkeypatch):
    """``simulate()`` hands the native tier cached columns; when the run
    falls back, the interpreter runs the registry records of the same
    (workload, seed) and lands on the interpreter's statistics."""
    monkeypatch.setattr(native, "_param_block", _unsizable_param_block)
    generator.clear_materialized_traces()
    expected = simulate(config.with_(engine="interp"), workload="li",
                        max_instructions=1_500, skip=200, seed=5)
    generator.clear_materialized_traces()
    result = simulate(config.with_(engine="native"), workload="li",
                      max_instructions=1_500, skip=200, seed=5)
    assert list(generator._COLUMN_CACHE) == [("li", 5)]
    assert result.stats.engine_fallbacks == 1
    assert result.stats.to_dict() == dict(expected.stats.to_dict(),
                                          engine_fallbacks=1)
    generator.clear_materialized_traces()
    native.clear_cache()


@needs_toolchain
def test_native_simulate_builds_no_record_list():
    """On the native tier a registry point reads the column cache only:
    the interpreter's record LRU stays empty."""
    generator.clear_materialized_traces()
    result = simulate(virtual_physical_config(nrr=8, engine="native"),
                      workload="swim", max_instructions=2_000, skip=300)
    assert result.stats.engine_fallbacks == 0
    assert list(generator._MATERIALIZED) == []
    assert list(generator._COLUMN_CACHE) == [("swim", 1234)]
    generator.clear_materialized_traces()


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


#: Two sizing points of one flag set (vp-writeback, no port model, no
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


@needs_toolchain
@pytest.mark.parametrize("line_bytes", [48, 64])
def test_every_line_size_matches_the_interpreter(line_bytes):
    """The C loop finds an address's line with a shift when the line
    size is a power of two and with a division otherwise (a branch
    fixed per run); either way the run is bit-identical to interp."""
    config = virtual_physical_config(
        nrr=8, cache=CacheConfig(size_bytes=128 * line_bytes,
                                 line_bytes=line_bytes))
    runs = [_run(config, engine, workload="swim", n=3_000)
            for engine in ("interp", "native")]
    assert runs[1][0].engine_used == "native"
    assert runs[1][1] == runs[0][1]
    assert runs[1][0].mem.cache._tags == runs[0][0].mem.cache._tags


# ---- window-sized state: the ring, the bitmaps and the wheel ------------


def _both_tiers(config, records, n, skip=0):
    """``[(processor, stats), ...]`` of interp then native on ``records``."""
    runs = []
    for engine in ("interp", "native"):
        processor = Processor(config, engine=engine)
        result = processor.run(iter(records), max_instructions=n, skip=skip)
        runs.append((processor, result.stats.to_dict()))
    return runs


@needs_toolchain
def test_a_window_spanning_several_bitmap_words():
    """ROB + fetch buffer is 163 slots: the ring rounds up to 256, four
    bitmap words, and the ready and memory walks start at the ROB head's
    slot anywhere in them and wrap across word boundaries."""
    config = virtual_physical_config(nrr=16, rob_size=150, iq_size=96,
                                     fetch_buffer_size=13)
    runs = [_run(config, engine, workload="swim", n=8_000)
            for engine in ("interp", "native")]
    assert runs[1][0].engine_used == "native"
    assert runs[1][1] == runs[0][1]
    assert runs[0][1]["peak_rob"] > 128


def _miss_burst(count):
    """``count`` independent loads of distinct cold lines, which issue
    and reach the cache in one cycle."""
    tb = TraceBuilder()
    for i in range(count):
        tb.load(r(1 + i), r(20), addr=0x10000 + 4096 * i)
    return tb.build()


@needs_toolchain
def test_the_wheel_holds_the_longest_fill(monkeypatch):
    """Four misses in one cycle queue four fills back to back on the
    bus, the last one event_horizon cycles out: the wheel holds it
    bit-identically, and a span one cycle shorter refuses it."""
    cache = CacheConfig(miss_penalty=400, bus_cycles_per_line=16,
                        mshr_entries=4)
    config = conventional_config(
        cache=cache, cache_ports=4,
        fu_counts={**DEFAULT_FU_COUNTS, FUKind.EFF_ADDR: 4})
    assert native.event_horizon(cache) == 400 + 3 * 16
    (_, expected), (processor, stats) = _both_tiers(config, _miss_burst(4),
                                                    4)
    assert processor.engine_used == "native"
    assert stats == expected
    assert processor.mem.cache.bus._free_at == 3 + native.event_horizon(cache)
    monkeypatch.setattr(native, "_param_block", _patched_param_block(
        EV_HORIZON=native.event_horizon(cache) - 1))
    native.clear_cache()
    (_, expected), (processor, stats) = _both_tiers(config, _miss_burst(4),
                                                    4)
    assert processor.engine_used == "interp"
    assert native.cache_info()["build_failures"] == {"native-invariant": 1}
    assert stats == dict(expected, engine_fallbacks=1)
    native.clear_cache()


def _store_heavy(count):
    """Two stores and a load per four instructions; every fourth store
    base comes from a multiply, so younger loads wait on unknown store
    addresses and others forward from known ones."""
    tb = TraceBuilder()
    for i in range(count):
        tb.alu(r(2), r(2), op=OpClass.INT_MUL if i % 4 == 0
               else OpClass.INT_ALU)
        tb.store(r(2), r(3), addr=0x2000 + 8 * (i % 32))
        tb.store(r(4), r(2), addr=0x3000 + 8 * (i % 16))
        tb.load(r(5), r(4), addr=0x3000 + 8 * (i % 16))
    return tb.build()


@needs_toolchain
@pytest.mark.parametrize("sq_size", [None, 6])
def test_a_store_heavy_trace_wraps_the_store_queue_ring(sq_size):
    """1,200 stores through a 64-slot window ring (ROB 32 + fetch buffer
    8): the store queue and its oldest-unknown pointer wrap nearly
    twenty times, with and without a store-queue bound."""
    config = conventional_config(rob_size=32, iq_size=32,
                                 fetch_buffer_size=8,
                                 store_queue_size=sq_size)
    (interp, expected), (processor, stats) = _both_tiers(
        config, _store_heavy(600), 2_400)
    assert processor.engine_used == "native"
    assert stats == expected
    assert stats["store_forwards"] > 0
    assert processor.mem.store_queue.waits == interp.mem.store_queue.waits
    assert interp.mem.store_queue.waits > 0
    assert (stats["stall_sq_full"] > 0) == bool(sq_size)


_GATED_LOADS_RUN = """
import json
from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.isa.registers import RegClass, make_reg
from repro.memory.cache import CacheConfig
from repro.uarch.config import conventional_config
from repro.uarch.processor import Processor

records = [TraceRecord(0x1000 + 4 * i, OpClass.LOAD_INT,
                       dest=make_reg(RegClass.INT, 1 + i % 8),
                       src1=make_reg(RegClass.INT, 20),
                       addr=0x10000 + 64 * i)
           for i in range(3_000)]
config = conventional_config(rob_size=16, iq_size=16, fetch_buffer_size=8,
                             cache=CacheConfig(mshr_entries=1))
stats = {}
for engine in ("interp", "native"):
    processor = Processor(config, engine=engine)
    result = processor.run(iter(records), max_instructions=3_000)
    stats[processor.engine_used] = result.stats.to_dict()
print(json.dumps(stats))
"""


@needs_toolchain
def test_loads_sleeping_on_mshrs_with_no_store_to_wake_them(tmp_path):
    """3,000 missing loads, one MSHR and no store: nearly every load
    sleeps on the MSHR file and no store commit empties the sleepers'
    list, which the interpreter lets grow past 2,900 committed loads.
    The C loop keeps at most a window of them and stays bit-identical.
    In a child process, so an overrun shows as an exit status."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _GATED_LOADS_RUN], capture_output=True,
        text=True, timeout=240, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["native"] == stats["interp"]
    assert stats["native"]["committed"] == 3_000


@needs_toolchain
def test_a_bank_count_that_is_not_a_power_of_two():
    """Three banks per class: the C loop's bank of a register matches the
    interpreter's ``ident % banks``."""
    config = virtual_physical_config(
        nrr=16, allocation=AllocationStage.ISSUE, rf_model=True, rf_banks=3,
        rf_bank_read_ports=2, rf_bank_write_ports=1)
    runs = [_run(config, engine, workload="li", n=4_000)
            for engine in ("interp", "native")]
    assert runs[1][0].engine_used == "native"
    assert runs[1][1] == runs[0][1]
    assert runs[0][1]["rf_bank_conflicts"] > 0


def _flags(processor):
    return tuple(native.native_features(processor)[0].items())


def test_native_key_ignores_sizing_and_flags():
    """Sizing and every feature flag travel in the parameter block, so
    every processor the loop accepts shares the one artifact."""
    assert _key(SIZING_A) == _key(SIZING_B)
    assert _key(SIZING_A) == _key(virtual_physical_config(nrr=1))
    processors = [Processor(config) for config in (
        SIZING_A,
        conventional_config(),
        virtual_physical_config(nrr=8, allocation=AllocationStage.ISSUE),
        SIZING_A.with_(perfect_branch_prediction=True),
        SIZING_A.with_(store_queue_size=16),
        SIZING_A.with_(rf_model=True),
        SIZING_A.with_(rf_model=True, rf_banks=2, rf_bank_read_ports=2),
        SIZING_A.with_(retry_gating=True),
    )]
    flag_sets = [_flags(processor) for processor in processors]
    assert len(set(flag_sets)) == len(flag_sets)
    assert {native.native_key(processor) for processor in processors} == {
        _key(SIZING_A)}
    assert _key(policy_config("early-release")) is None


def test_param_block_reads_sizing_from_the_config():
    """The C loop sizes every structure from the config at run time."""
    processor = Processor(SIZING_B)
    block = dict(zip(native._PARAM_NAMES, native._param_block(
        processor, native.native_features(processor)[0])))
    assert [block[name] for name in (
        "FETCH_W", "RENAME_W", "ISSUE_W", "COMMIT_W", "ROB_SIZE", "IQ_SIZE",
        "FB_SIZE", "NPR_INT", "NPR_FP", "NRR_INT", "CACHE_PORTS", "MSHR_N",
        "NUM_LINES", "FU_N_0", "FU_N_5", "EV_HORIZON")] == [
        4, 4, 4, 4, 48, 24, 6, 96, 80, 24, 1, 2, 64, 1, 1, 67]
    assert (block["HORIZON"], block["COMMIT_DELAY"]) == (
        SIZING_B.deadlock_horizon, 1 + processor._commit_extra)


class _GridRecorder:
    """A stand-in result cache: records every config an experiment
    submits and answers each point with a placeholder result."""

    def __init__(self):
        self.configs = {}

    def run_specs(self, specs, trace=None):
        specs = list(specs)
        for spec in specs:
            self.configs[spec.config.key()] = spec.config
        stats = SimpleNamespace(executions_per_commit=1.0, rf_read_stalls=0)
        return [SimpleNamespace(ipc=1.0, stats=stats)] * len(specs)


def test_every_experiment_grid_shares_one_artifact():
    """Every natively lowerable config of every ``repro.experiments``
    grid (37 of them, over 8 flag sets) needs the same one artifact;
    the Figure 4 and 5 grids' 13 configs are among them."""
    recorder = _GridRecorder()
    for run in (experiments.run_table2, experiments.run_figure4,
                experiments.run_figure5, experiments.run_figure6,
                experiments.run_figure7, experiments.run_ablation,
                experiments.run_port_sensitivity,
                experiments.run_window_scaling,
                experiments.run_branch_sensitivity):
        run(cache=recorder)
    figures45 = [conventional_config()] + [
        virtual_physical_config(nrr=nrr, allocation=stage)
        for stage in (AllocationStage.WRITEBACK, AllocationStage.ISSUE)
        for nrr in NRR_SWEEP]
    assert {config.key() for config in figures45} <= set(recorder.configs)
    processors = [Processor(config) for config in recorder.configs.values()]
    lowerable = [p for p in processors if native.native_key(p) is not None]
    assert len(lowerable) >= 37
    assert len({_flags(p) for p in lowerable}) >= 8
    assert {native.native_key(p) for p in lowerable} == {_key(SIZING_A)}


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
def test_native_one_library_serves_interleaved_flag_vectors():
    """conventional -> vp-writeback -> vp-issue with a banked port model
    -> conventional through one loaded library, each bit-identical to
    the interpreter: a statistic or table one flag set leaves behind
    shows up as a divergence on a later run."""
    native.clear_cache()
    for config in (
            conventional_config(),
            virtual_physical_config(nrr=8, read_ports=2),  # port stalls
            virtual_physical_config(
                nrr=16, allocation=AllocationStage.ISSUE, rf_model=True,
                rf_banks=2, rf_bank_read_ports=2, rf_bank_write_ports=1),
            conventional_config()):
        processor, stats = _run(config, "native", n=3_000)
        _, reference = _run(config, "interp", n=3_000)
        assert processor.engine_used == "native"
        assert stats["engine_fallbacks"] == 0
        assert stats == reference
    assert native.cache_info()["loaded_libraries"] == 1


@needs_toolchain
def test_native_artifact_outcomes_are_counted(tmp_path, monkeypatch):
    """A second config is served from memory, not built; a fresh
    process finds the artifact on disk, with or without a toolchain;
    no toolchain and no artifact counts a failure."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    native.clear_cache()
    outcomes = ("built", "disk", "memory", "failed")

    def counts():
        return {o: native._ARTIFACTS.value(outcome=o) for o in outcomes}

    before = counts()
    _run(virtual_physical_config(nrr=4), "native", n=1_000)
    _run(conventional_config(), "native", n=1_000)
    native.clear_cache()  # what a fresh process sees
    _run(virtual_physical_config(nrr=32), "native", n=1_000)
    monkeypatch.setattr(native, "_toolchain", None)
    native.clear_cache()
    processor, _ = _run(virtual_physical_config(nrr=32), "native", n=1_000)
    assert processor.engine_used == "native"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
    native.clear_cache()
    processor, _ = _run(virtual_physical_config(nrr=32), "native", n=1_000)
    assert processor.engine_used == "interp"
    native.clear_cache()
    after = counts()
    assert {o: after[o] - before[o] for o in outcomes} == {
        "built": 1, "disk": 2, "memory": 1, "failed": 1}
    assert len(list((tmp_path / "cache" / "native").glob("engine-*.so"))) \
        == 1


@needs_toolchain
def test_artifact_on_disk_needs_no_toolchain_probe(tmp_path, monkeypatch):
    """The ladder is memory -> disk -> probe and build: a process that
    finds the artifact on disk never runs the probe compile."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    native.clear_cache()
    _run(ProcessorConfig(), "native", n=500)  # builds the artifact
    probes = []
    monkeypatch.setattr(native, "_toolchain", native._TOOLCHAIN_UNSET)
    monkeypatch.setattr(native, "_try_compiler",
                        lambda cc: probes.append(cc) or True)
    native.clear_cache()
    processor, _ = _run(virtual_physical_config(nrr=8), "native", n=500)
    assert processor.engine_used == "native"
    assert probes == []
    native.clear_cache()
    assert 'repro_native_artifacts_total{outcome="memory"}' \
        in get_registry().render()


def test_compiler_flags_are_part_of_the_artifact_identity(tmp_path,
                                                          monkeypatch):
    """An artifact built with other flags has another name, so ``repro
    cache stats`` counts it stale and ``repro cache compact`` prunes
    it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    named = (native.template_fingerprint, native._artifact_key,
             native._artifact_name)
    current, flags = native._artifact_name(), native.CFLAGS
    native.CFLAGS = ("-O2", "-shared", "-fPIC")
    for cached in named:
        cached.cache_clear()
    try:
        other = native._artifact_name()
    finally:
        native.CFLAGS = flags
        for cached in named:
            cached.cache_clear()
    assert native._artifact_name() == current
    assert other.split("-")[1] != current.split("-")[1]
    directory = native.artifact_dir()
    directory.mkdir(parents=True)
    (directory / other).write_bytes(b"-O2")
    (directory / current).write_bytes(b"-O1")
    stats = native.artifact_stats()
    assert (stats["artifacts"], stats["stale_artifacts"]) == (2, 1)
    assert native.prune_stale() == (1, 3)
    assert [path.name for path in directory.glob("engine-*.so")] == [
        current]


@needs_toolchain
def test_builds_and_the_probe_compile_with_cflags(tmp_path, monkeypatch):
    """One flag tuple for the probe and the build, and the per-record
    helpers stay inline at it (``nm`` lists no symbol for them)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cc = native.toolchain()
    commands = []
    real_run, real_popen = subprocess.run, subprocess.Popen

    def recording_popen(argv, **kwargs):
        commands.append(argv)
        return real_popen(argv, **kwargs)

    monkeypatch.setattr(native.subprocess, "Popen", recording_popen)
    native.clear_cache()
    assert native._try_compiler(cc)
    lib, reason = native.build_library(Processor())
    assert reason is None
    native.clear_cache()
    assert [argv[1:1 + len(native.CFLAGS)] for argv in commands] == [
        list(native.CFLAGS)] * 2
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm not found")
    symbols = real_run([nm, str(native.artifact_dir()
                                / native._artifact_name())],
                       capture_output=True, text=True, check=True)
    names = {line.split()[-1] for line in symbols.stdout.splitlines()}
    assert "repro_run" in names
    assert not names & {"pool_alloc", "pool_release", "try_load",
                        "vp_try_alloc", "line_of", "ev_push", "bits_next",
                        "wl_append", "ctz64"}


@needs_toolchain
def test_native_probe_reports_available():
    report = native.probe()
    assert report["available"]
    assert report["toolchain"]
    assert report["cache_dir_writable"]
    assert report["template_fingerprint"] == native.template_fingerprint()
