"""Determinism under optimization, on every cycle-engine tier: the
engine rewrites changed *speed*, never *timing*.

``data/golden_stats.json`` holds complete ``SimStats.to_dict()`` dumps
captured from the pre-optimization engine (before the event wheel,
pre-decoded traces, inlined hot loop, and the idle-cycle skip that has
since been removed again).  Every renamer mode on two workloads must
still reproduce them bit-for-bit on the interpreted reference tier and
on the native tier.

The native tier lowers every pinned policy except early-release, whose
rename hooks stay out-of-line: that one lands on the interpreter with
exactly one counted fallback and identical stats otherwise.  The native
cases skip (with a visible reason) on hosts without a C toolchain;
``tools/native_probe.py --require-native`` keeps CI from taking that
skip silently.

If a deliberate timing-model change ever invalidates these, regenerate
the file with ``tools/regen_goldens.py`` — but know that doing so also
invalidates every persisted result and paper artifact.
"""

import json
import pathlib

import pytest

from repro.core.virtual_physical import AllocationStage
from repro.trace.generator import SyntheticTrace
from repro.trace.workloads import load_workload
from repro.uarch import native
from repro.uarch.config import (
    ProcessorConfig,
    RenamingScheme,
    conventional_config,
    virtual_physical_config,
)
from repro.uarch.processor import Processor

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

CONFIGS = {
    "conventional": lambda: conventional_config(),
    "early_release": lambda: ProcessorConfig(
        scheme=RenamingScheme.EARLY_RELEASE),
    "vp_issue_nrr8": lambda: virtual_physical_config(
        nrr=8, allocation=AllocationStage.ISSUE),
    "vp_wb_nrr8": lambda: virtual_physical_config(nrr=8),
    "vp_wb_nrr8_gated": lambda: virtual_physical_config(
        nrr=8, retry_gating=True),
}

TIERS = ("interp", pytest.param("native", marks=pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")))

#: Policies the native tier cannot lower (expected interp fallback).
OUT_OF_LINE = {"early_release"}


def _run(entry, engine):
    processor = Processor(CONFIGS[entry["label"]](), engine=engine)
    trace = SyntheticTrace(load_workload(entry["workload"]), entry["seed"])
    result = processor.run(trace, max_instructions=entry["instructions"],
                           skip=entry["skip"])
    return processor, result


def _expected_tier(entry, engine):
    """``(tier, engine_fallbacks)`` a pinned entry must run with."""
    if engine == "native" and entry["label"] in OUT_OF_LINE:
        return "interp", 1
    return engine, 0


@pytest.mark.parametrize("key", sorted(GOLDEN))
@pytest.mark.parametrize("engine", TIERS)
def test_stats_identical_to_pre_optimization_engine(engine, key):
    entry = GOLDEN[key]
    processor, result = _run(entry, engine)
    tier, fallbacks = _expected_tier(entry, engine)
    assert processor.engine_used == tier, (
        f"expected the run on {tier}: {native.cache_info()['build_failures']}")
    assert result.stats.to_dict() == dict(entry["stats"],
                                          engine_fallbacks=fallbacks)
