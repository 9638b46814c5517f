"""Engine-tier health probing shared by the CLI and the gateway.

``repro engines`` and ``GET /v1/healthz`` answer the same question —
which cycle-engine tiers can this host run, and which one does
``engine="auto"`` take now? — so both call :func:`engine_tier_report`
and render it their own way.  Load balancers use the healthz form to
route native-capable workers.
"""

from __future__ import annotations

__all__ = ["auto_resolution", "engine_tier_report"]


def auto_resolution():
    """What ``engine="auto"`` resolves to in this process now.

    ``{"resolved_auto": tier, "auto_reason": why}``: ``REPRO_ENGINE``
    when it names a tier; else ``native`` when the artifact is loaded,
    on disk or buildable here, and ``interp`` while a gateway's deferred
    build is pending, after it failed, or for lack of a toolchain or a
    writable artifact directory (:func:`repro.uarch.native.auto_status`).
    A ``REPRO_ENGINE`` that names no tier gives ``resolved_auto``
    ``{"error": ...}``, a setup fault this report exists to show, not
    to crash on.  A policy the native tier cannot lower (early-release)
    runs on the interpreter under ``auto`` whatever this says.
    """
    from repro.uarch import native
    from repro.uarch.config import resolve_engine

    try:
        resolved = resolve_engine("auto")
    except ValueError as exc:
        return {"resolved_auto": {"error": str(exc)}, "auto_reason": None}
    if resolved != "auto":
        return {"resolved_auto": resolved, "auto_reason": "REPRO_ENGINE"}
    tier, why = native.auto_status()
    return {"resolved_auto": tier, "auto_reason": why}


def engine_tier_report():
    """Probe cycle-engine tier availability on this host.

    Returns one entry per tier of :data:`repro.uarch.config.ENGINES`
    plus :func:`auto_resolution`'s two keys: the interpreter is always
    available (pure Python), the native tier when its artifact is on
    disk or a C toolchain and a writable artifact dir can build it.
    """
    from repro.uarch import native

    return dict({
        "interp": {"available": True},
        "native": dict(native.probe(),
                       artifacts=native.artifact_stats()),
    }, **auto_resolution())
