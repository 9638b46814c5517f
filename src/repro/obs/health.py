"""Engine-tier health probing shared by the CLI and the gateway.

``repro engines`` and ``GET /v1/healthz`` answer the same question —
which cycle-engine tiers can this host run? — so both call
:func:`engine_tier_report` and render it their own way.  Load
balancers use the healthz form to route native-capable workers.
"""

from __future__ import annotations

__all__ = ["engine_tier_report"]


def engine_tier_report():
    """Probe cycle-engine tier availability on this host.

    Returns one entry per tier of :data:`repro.uarch.config.ENGINES`
    plus ``resolved_auto``: the interpreter is always available (pure
    Python), the native tier when its artifact is on disk or a C
    toolchain and a writable artifact dir can build it, and
    ``resolved_auto`` is the tier ``engine="auto"``
    picks here — or ``{"error": ...}`` when ``REPRO_ENGINE`` names no
    tier, a setup fault this report exists to show, not to crash on.
    """
    from repro.uarch import native
    from repro.uarch.config import resolve_engine

    try:
        resolved = resolve_engine("auto")
    except ValueError as exc:
        resolved = {"error": str(exc)}
    return {
        "interp": {"available": True},
        "native": dict(native.probe(),
                       artifacts=native.artifact_stats()),
        "resolved_auto": resolved,
    }
