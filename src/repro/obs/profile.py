"""Opt-in engine profiling: KIPS and per-stage stall composition.

``REPRO_PROFILE=1`` (or ``--profile`` on ``repro run``/``repro sweep``)
makes the executor attach a ``profile`` dict to each
:class:`SimResult`'s ``extra`` — wall-clock elapsed time, simulated
KIPS (thousand committed instructions per wall second), and the
rename-stall composition as absolute counts plus fractions of total
cycles, all derived from counters :class:`SimStats` already keeps.

Profiling is **off by default and bit-identical when off**: with
``REPRO_PROFILE`` unset nothing touches the result, and even when on,
only ``extra["profile"]`` changes — ``SimStats`` is never written to,
and the result store strips the ``profile`` key before persisting so
cached records are byte-identical either way.  The golden suite
enforces this on both the interpreted and the native tier.
"""

from __future__ import annotations

import os

__all__ = ["attach_profile", "build_profile", "profiling_enabled"]

#: SimStats counters folded into the stall-composition report.
STALL_FIELDS = ("stall_rob_full", "stall_iq_full", "stall_no_reg",
                "stall_sq_full", "fetch_stall_cycles",
                "rf_read_stalls", "rf_bank_conflicts")


def profiling_enabled():
    """Whether profile capture is on (``REPRO_PROFILE`` truthy)."""
    value = os.environ.get("REPRO_PROFILE", "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


def build_profile(result, elapsed):
    """Build the profile dict for one run.

    ``elapsed`` is host wall-clock seconds for the simulation call.
    Reads ``result.stats`` counters only; never mutates the result.
    """
    stats = result.stats
    cycles = stats.cycles or 0
    profile = {
        "elapsed": round(float(elapsed), 6),
        "kips": round(stats.committed / elapsed / 1e3, 3)
        if elapsed > 0 else 0.0,
        "cycles": cycles,
        "committed": stats.committed,
        "squashes": stats.squashes,
        "engine_fallbacks": stats.engine_fallbacks,
        "stalls": {},
    }
    for name in STALL_FIELDS:
        count = getattr(stats, name, 0)
        profile["stalls"][name] = {
            "count": count,
            "frac": round(count / cycles, 6) if cycles else 0.0,
        }
    return profile


def attach_profile(result, elapsed):
    """Attach a profile to ``result.extra`` when profiling is enabled.

    No-op (and no allocation) when ``REPRO_PROFILE`` is off, keeping
    the default path bit-identical.  Returns the result for chaining.
    """
    if profiling_enabled():
        result.extra["profile"] = build_profile(result, elapsed)
    return result
