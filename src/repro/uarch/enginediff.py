"""Cross-engine differential harness: native vs interpreted.

The native engine (:mod:`repro.uarch.native`) promises
**bit-identical** ``SimStats`` with the interpreter for every
configuration.  This module is the machinery
that checks the promise over the configuration space rather than at
hand-picked points:

* a deterministic **config-space sampler** over the axes that select
  different paths through the loop — renaming policy, register-file port
  model, memory latency, functional-unit mix, window geometry, physical
  register / NRR sizing;
* a **point comparator** running one (config, workload) point under
  the interpreter and the native engine and diffing the *complete*
  stats dumps;
* a **shrinker** that reduces a failing sampled point to a minimal
  failing configuration by resetting axes back to their defaults one
  at a time — so a property-suite failure reports the axis combination
  that matters, not forty irrelevant knobs.

Used by ``tests/uarch/test_engine_differential.py`` (the correctness
backbone of the native tier) and ``tools/engine_diff.py`` (the CI
differential-sample step).
"""

from __future__ import annotations

from random import Random

from repro.core.policy import resolve_policy
from repro.isa.opcodes import DEFAULT_FU_COUNTS, FUKind
from repro.memory.cache import CacheConfig
from repro.trace.workloads import load_workload
from repro.uarch.config import policy_config
from repro.uarch.processor import Processor, SimulationDeadlock

#: Workloads the sampler draws from: one per behaviour family (integer,
#: FP-heavy, memory-heavy, branchy) keeps runs short but representative.
DIFF_WORKLOADS = ("li", "swim", "compress", "go")

#: Scarce functional-unit mix: one unit per kind exercises structural
#: stalls and the issue-stage FU memoization.
SCARCE_FUS = {kind: 1 for kind in FUKind}

#: The sampled axes.  The *first* value of every axis is its default;
#: the shrinker walks failing points back toward it.  Axis values must
#: be hashable and JSON-representable (tuples of scalars).
AXES = {
    "policy": ("conventional", "vp-writeback", "vp-issue", "early-release"),
    # (rf_model, banks, bank_read_ports, bank_write_ports)
    "rf": ((False, 1, 1, 1), (True, 1, 16, 8), (True, 4, 2, 1),
           (True, 2, 4, 2), (True, 3, 2, 1)),
    # (miss_penalty, bus_cycles_per_line, mshr_entries): the default
    # against a slow memory whose queued fills reach the native event
    # wheel's longest span (repro.uarch.native.event_horizon).
    "memory": ((50, 4, 8), (400, 16, 16)),
    "fus": ("default", "scarce"),
    # (widths, rob, iq, fetch_buffer)
    "window": ((8, 128, 128, 16), (2, 32, 16, 4), (4, 64, 32, 8)),
    # (int_phys/fp_phys, nrr) — nrr only consumed by NRR policies;
    # every pair keeps 1 <= nrr <= phys - 32 valid.
    "regs": ((64, 8), (64, 32), (48, 4), (48, 16), (64, 1)),
    "retry_gating": (False, True),
    "perfect_bp": (False, True),
}

#: Per-point run length: small enough for a sampled CI sweep, long
#: enough to reach steady state past the warm-up skip.
DIFF_INSTRUCTIONS = 6_000
DIFF_SKIP = 500


def default_choice():
    """The all-defaults axis choice (first value of every axis)."""
    return {axis: values[0] for axis, values in AXES.items()}


def sample_space(count, seed=0):
    """``count`` deterministic axis choices drawn uniformly per axis.

    The first :data:`len(AXES)` samples are *single-axis* probes (one
    axis moved off its default at a time) so small sample budgets still
    touch every axis; the rest are uniform random combinations.
    """
    rng = Random(seed)
    choices = []
    axes = list(AXES)
    for i in range(count):
        choice = default_choice()
        if i < len(axes):
            axis = axes[i]
            values = AXES[axis]
            choice[axis] = values[1 + (i % (len(values) - 1))]
        else:
            for axis, values in AXES.items():
                choice[axis] = values[rng.randrange(len(values))]
        choices.append(choice)
    return choices


def build_config(choice):
    """The ``ProcessorConfig`` an axis choice describes."""
    rf_model, banks, brp, bwp = choice["rf"]
    width, rob, iq, fb = choice["window"]
    phys, nrr = choice["regs"]
    miss_penalty, bus_cycles, mshrs = choice["memory"]
    overrides = dict(
        fetch_width=width, rename_width=width, issue_width=width,
        commit_width=width, rob_size=rob, iq_size=iq,
        fetch_buffer_size=fb, int_phys=phys, fp_phys=phys,
        rf_model=rf_model, rf_banks=banks, rf_bank_read_ports=brp,
        rf_bank_write_ports=bwp,
        perfect_branch_prediction=choice["perfect_bp"],
        retry_gating=choice["retry_gating"],
        cache=CacheConfig(miss_penalty=miss_penalty,
                          bus_cycles_per_line=bus_cycles,
                          mshr_entries=mshrs),
    )
    if choice["fus"] == "scarce":
        overrides["fu_counts"] = dict(SCARCE_FUS)
    policy = choice["policy"]
    nrr_arg = nrr if resolve_policy(policy).uses_nrr else None
    return policy_config(policy, nrr=nrr_arg, **overrides)


def run_point(choice, workload, engine, instructions=DIFF_INSTRUCTIONS,
              skip=DIFF_SKIP, seed=1234):
    """One (choice, workload) point under one engine.

    Returns ``(stats_dict, engine_used)``.  A
    :class:`SimulationDeadlock` is folded into the result (both engines
    must deadlock identically), any other exception propagates.  Each
    tier reads the trace the way ``simulate()`` hands it over: native
    the cached columns, interp the cached record list.
    """
    from repro.trace.generator import materialized_trace, trace_columns

    materialize = trace_columns if engine == "native" else materialized_trace
    trace = materialize(load_workload(workload), seed, skip + instructions)
    processor = Processor(build_config(choice), engine=engine)
    try:
        result = processor.run(trace, max_instructions=instructions,
                               skip=skip)
        stats = result.stats.to_dict()
    except SimulationDeadlock as exc:
        stats = {"deadlock": str(exc).split(";")[0]}
    return stats, processor.engine_used


def expected_tier(choice):
    """The tier a point is *expected* to run on when native is
    requested.

    The native tier only lowers policies whose hooks it inlines; the
    early-release policy keeps its rename hooks out-of-line, so a
    native request lands on the interpreter by the documented
    fallback — expected, not a failure.
    """
    return "interp" if choice["policy"] == "early-release" else "native"


def compare_point(choice, workload, **kwargs):
    """Diff one point between the interpreter and the native engine.

    Returns a dict: ``ok`` (bit-identical and the point ran on
    :func:`expected_tier` — no silent fallback), ``engine_used``, and
    ``mismatches`` — the per-field ``{field: (interp, native)}`` map,
    empty when identical.
    """
    interp, _ = run_point(choice, workload, "interp", **kwargs)
    candidate, used = run_point(choice, workload, "native", **kwargs)
    expected = expected_tier(choice)
    if expected == "interp" and "engine_fallbacks" in interp:
        # An expected fallback is counted exactly once in the native
        # run's engine_fallbacks; the interpreter's own run counts zero.
        interp["engine_fallbacks"] = 1
    mismatches = {
        field: (interp.get(field), candidate.get(field))
        for field in sorted(set(interp) | set(candidate))
        if interp.get(field) != candidate.get(field)
    }
    return {
        "ok": not mismatches and used == expected,
        "engine_used": used,
        "mismatches": mismatches,
    }


def shrink(choice, workload, **kwargs):
    """Minimal failing configuration for a failing sampled point.

    Resets each non-default axis back to its default while the point
    still fails, iterating to a fixpoint; then tries to move the
    failure onto the first diff workload.  Returns ``(choice,
    workload)`` — every remaining non-default axis is necessary for
    the failure (1-minimal, the classic ddmin guarantee).
    """
    defaults = default_choice()
    changed = True
    while changed:
        changed = False
        for axis in AXES:
            if choice[axis] == defaults[axis]:
                continue
            trial = dict(choice)
            trial[axis] = defaults[axis]
            if not compare_point(trial, workload, **kwargs)["ok"]:
                choice = trial
                changed = True
    if workload != DIFF_WORKLOADS[0]:
        if not compare_point(choice, DIFF_WORKLOADS[0], **kwargs)["ok"]:
            workload = DIFF_WORKLOADS[0]
    return choice, workload


def describe(choice, workload):
    """One-line human-readable description of a sampled point."""
    defaults = default_choice()
    moved = [f"{axis}={choice[axis]!r}" for axis in AXES
             if choice[axis] != defaults[axis]]
    return f"{workload}: " + (", ".join(moved) if moved else "all-defaults")


def run_sample(count, seed=0, workloads=DIFF_WORKLOADS, shrink_failures=True,
               progress=None, **kwargs):
    """Run a sampled differential sweep; the CI entry point's core.

    Every sampled config is checked on every workload (``count`` ×
    ``len(workloads)`` points).  Returns a report dict with ``points``,
    ``failures`` (shrunk when requested), and ``ok``.
    """
    choices = sample_space(count, seed)
    failures = []
    points = 0
    for i, choice in enumerate(choices):
        for workload in workloads:
            outcome = compare_point(choice, workload, **kwargs)
            points += 1
            if not outcome["ok"]:
                failing_choice, failing_workload = choice, workload
                if shrink_failures:
                    failing_choice, failing_workload = shrink(
                        dict(choice), workload, **kwargs)
                    outcome = compare_point(failing_choice,
                                            failing_workload, **kwargs)
                failures.append({
                    "point": describe(failing_choice, failing_workload),
                    "choice": {k: list(v) if isinstance(v, tuple) else v
                               for k, v in failing_choice.items()},
                    "workload": failing_workload,
                    "engine_used": outcome["engine_used"],
                    "mismatches": {k: list(v) for k, v
                                   in outcome["mismatches"].items()},
                })
            if progress:
                progress(points, len(choices) * len(workloads))
    return {
        "configs": len(choices),
        "workloads": list(workloads),
        "points": points,
        "failures": failures,
        "ok": not failures,
    }
