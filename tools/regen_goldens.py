#!/usr/bin/env python3
"""Regenerate (or verify) the golden SimStats dumps under tests/.

The golden files pin *complete* ``SimStats.to_dict()`` dumps — the
repo's timing contract.  Two situations touch them:

* a deliberate timing-model change (new stall taxonomy, different
  commit latency): regenerate, and expect every persisted result and
  paper artifact to be invalidated with them;
* a purely *additive* stats-schema change (a new counter): the dumps
  gain a key with no timing drift; regeneration is routine.

``--check`` recomputes every dump and fails (exit 1) on any drift
without writing — the CI guard that the committed goldens match the
engine that ships with them.  Regeneration always runs the
*interpreted* engine, the conservative reference tier; the native
tier is held to these same dumps by the differential suite and the
two-tier golden pins (``tests/uarch/test_processor_golden_optimized.py``).

Usage:
    python tools/regen_goldens.py          # rewrite drifted files
    python tools/regen_goldens.py --check  # verify only (CI)
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.policy import AllocationStage  # noqa: E402
from repro.trace.generator import SyntheticTrace  # noqa: E402
from repro.trace.workloads import load_workload  # noqa: E402
from repro.uarch.config import (  # noqa: E402
    ProcessorConfig,
    RenamingScheme,
    conventional_config,
    virtual_physical_config,
)
from repro.uarch.processor import Processor  # noqa: E402

GOLDEN_STATS = REPO / "tests" / "uarch" / "data" / "golden_stats.json"

# Mirrors CONFIGS in tests/uarch/test_processor_golden_optimized.py —
# the labels stored inside the golden file resolve through this table.
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


def recompute_entry(entry):
    """Fresh stats dump for one golden entry (interpreted engine)."""
    processor = Processor(CONFIGS[entry["label"]](), engine="interp")
    trace = SyntheticTrace(load_workload(entry["workload"]), entry["seed"])
    result = processor.run(trace, max_instructions=entry["instructions"],
                           skip=entry["skip"])
    return result.stats.to_dict()


def regen_golden_stats(check=False):
    """Regenerate/verify golden_stats.json.  Returns drifted keys."""
    golden = json.loads(GOLDEN_STATS.read_text())
    drifted = []
    for key in sorted(golden):
        entry = golden[key]
        fresh = recompute_entry(entry)
        if fresh != entry["stats"]:
            drifted.append(key)
            changed = sorted(k for k in set(fresh) | set(entry["stats"])
                             if fresh.get(k) != entry["stats"].get(k))
            print(f"  drift {key}: {', '.join(changed)}")
            entry["stats"] = fresh
    if drifted and not check:
        GOLDEN_STATS.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"rewrote {GOLDEN_STATS.relative_to(REPO)} "
              f"({len(drifted)} entries)")
    return drifted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify only; exit 1 on drift (CI mode)")
    args = parser.parse_args(argv)
    drifted = regen_golden_stats(check=args.check)
    if args.check:
        if drifted:
            print(f"FAIL: {len(drifted)} golden entries drifted; run "
                  f"python tools/regen_goldens.py to regenerate")
            return 1
        print("golden dumps match the engine")
        return 0
    if not drifted:
        print("golden dumps already current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
