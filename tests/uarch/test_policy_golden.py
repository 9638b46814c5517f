"""Golden guard: with port modeling disabled, every registered policy
reproduces the pinned ``SimStats`` dumps bit for bit.

This is the refactor's safety net: the policy registry, the capability
flags, the shared base-class rename path, and the port-model plumbing
may change *how* the engine binds a renamer, but never *what* it
computes.  The configs here are built exclusively through the registry
(``policy_config``), unlike ``test_processor_golden_optimized``'s
direct constructors, so both resolution paths are pinned.
"""

import json
import pathlib

import pytest

from repro.core.policy import policy_names
from repro.trace.generator import SyntheticTrace
from repro.trace.workloads import load_workload
from repro.uarch.config import policy_config
from repro.uarch.processor import Processor

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: golden label -> the registry-resolved config it pins (ports off).
POLICY_CONFIGS = {
    "conventional": lambda: policy_config("conventional"),
    "early_release": lambda: policy_config("early-release"),
    "vp_issue_nrr8": lambda: policy_config("vp-issue", nrr=8),
    "vp_wb_nrr8": lambda: policy_config("vp-writeback", nrr=8),
    "vp_wb_nrr8_gated": lambda: policy_config("vp-writeback", nrr=8,
                                              retry_gating=True),
}


def test_every_registered_policy_is_golden_pinned():
    """A policy added to the registry must gain a golden entry."""
    pinned = {POLICY_CONFIGS[entry["label"]]().policy for entry in
              GOLDEN.values()}
    assert pinned == set(policy_names())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_registry_built_policies_match_golden_stats(key):
    entry = GOLDEN[key]
    config = POLICY_CONFIGS[entry["label"]]()
    assert config.rf_model is False  # the pinned dumps are port-free
    processor = Processor(config)
    trace = SyntheticTrace(load_workload(entry["workload"]), entry["seed"])
    result = processor.run(trace, max_instructions=entry["instructions"],
                           skip=entry["skip"])
    # engine_fallbacks records which cycle-engine tier served the run
    # (under REPRO_ENGINE=native a policy the native tier cannot lower
    # legitimately falls back to the interpreter), not what it
    # computed; tier residency is pinned by
    # test_processor_golden_optimized.py.
    timing = lambda d: {k: v for k, v in d.items()
                        if k != "engine_fallbacks"}
    assert timing(result.stats.to_dict()) == timing(entry["stats"])
