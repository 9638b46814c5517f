"""Fault-layer differential for the native cycle-engine tier.

The chaos contract of PR 7 (seeded fault injection, retry, durable
store) must hold unchanged when the specs underneath are pinned to the
C-compiled native tier: every surviving result is bit-identical to a
serial *interpreted* reference, and simulator-level precise-exception
injection — which the native tier refuses by design — degrades loudly
onto the interpreter rather than diverging or crashing.

Everything here is in-process and quick; the cross-process version
(native-pinned specs through dying workers) is
``tools/chaos_smoke.py``'s native phase.
"""

import pytest

from repro.core.virtual_physical import AllocationStage
from repro.engine import ResultStore, RunSpec, SerialExecutor, execute_spec
from repro.engine.faults import ENV_VAR, FaultPlan, clear, install
from repro.trace.generator import materialized_trace
from repro.trace.workloads import load_workload
from repro.uarch import native
from repro.uarch.config import (
    conventional_config,
    policy_config,
    virtual_physical_config,
)
from repro.uarch.processor import Processor

pytestmark = pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")

INSTRUCTIONS = 1_500
SKIP = 200


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear()
    yield
    clear()


def _grid(engine):
    configs = [("conventional", conventional_config()),
               ("vp-issue", virtual_physical_config(
                   nrr=8, allocation=AllocationStage.ISSUE))]
    return [
        RunSpec(workload, config.with_(engine=engine), label=label)
        .resolved(INSTRUCTIONS, SKIP, seed=7)
        for workload in ("li", "swim")
        for label, config in configs
    ]


def _comparable(result):
    """``to_dict`` minus the config's engine pin (the field
    ``ProcessorConfig.key`` also excludes): an interpreted reference
    and a native run compare on substance, not on the tier requested."""
    d = result.to_dict()
    d["config"] = {k: v for k, v in d["config"].items() if k != "engine"}
    return d


def test_native_store_chaos_differential(tmp_path):
    """Native-pinned specs through seeded store chaos (torn and
    CRC-corrupt appends): after quarantine-and-rewrite recovery the
    store holds every point, bit-identical to the serial interpreted
    reference."""
    reference = SerialExecutor().run(_grid("interp"))
    specs = _grid("native")

    install(FaultPlan.from_string(
        "seed=11;store.torn_append:n=1;store.corrupt_append:n=1,after=1"))
    store = ResultStore(tmp_path)
    results = []
    for spec in specs:
        result = execute_spec(spec)
        results.append(result)
        store.put(spec.key(), result)
    clear()

    # The chaos actually fired: no silent green.
    report = ResultStore(tmp_path).verify()
    assert report["corrupt"] == 2

    # The computed results themselves are untouched by store chaos and
    # ran fallback-free on the native tier.
    for result, ref in zip(results, reference):
        assert result.stats.engine_fallbacks == 0
        assert _comparable(result) == _comparable(ref)

    # Recovery: quarantine the rot, re-put what was lost, read back.
    ResultStore(tmp_path).verify(repair=True)
    recovered = ResultStore(tmp_path)
    for spec, result in zip(specs, results):
        if recovered.get(spec.key()) is None:
            recovered.put(spec.key(), result)
    for spec, ref in zip(specs, reference):
        stored = ResultStore(tmp_path).get(spec.key())
        assert stored is not None
        assert _comparable(stored) == _comparable(ref)


@pytest.mark.parametrize("policy",
                         ["conventional", "vp-writeback", "vp-issue"])
def test_native_refuses_precise_exception_injection(policy):
    """Simulator-level fault injection (``inject_faults``) is outside
    the native tier's lowered subset: the run must land on the
    interpreter — one counted fallback, a recorded refusal reason — and
    stay bit-identical to an interpreted run with the same injection,
    for the conventional renamer and both VP allocation stages."""
    records = materialized_trace(load_workload("li"), 1234,
                                 SKIP + INSTRUCTIONS)
    nrr = {"nrr": 8} if policy.startswith("vp-") else {}

    def run(engine):
        processor = Processor(policy_config(policy, engine=engine, **nrr))
        processor.inject_faults([5, 300, 900])
        result = processor.run(iter(records),
                               max_instructions=INSTRUCTIONS, skip=SKIP)
        return processor, result.stats.to_dict()

    interp, expected = run("interp")
    assert interp.engine_used == "interp"
    assert expected["faults"] == 3  # every exception actually fired

    native.clear_cache()
    nat, stats = run("native")
    assert nat.engine_used == "interp"
    assert stats.pop("engine_fallbacks") == 1
    assert native.build_failures.get("fault-injection") == 1
    expected = dict(expected)
    expected.pop("engine_fallbacks")
    assert stats == expected
    native.clear_cache()
