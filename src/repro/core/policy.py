"""The renaming-policy interface and registry.

The HPCA'98 paper's central observation is that *when* physical
registers are allocated is a **policy choice**; the pipeline itself only
needs a fixed set of lifecycle hooks.  This module formalizes that seam:

* :class:`RenamingPolicy` — the abstract interface every renaming scheme
  implements.  The pipeline drives it through six lifecycle hooks, in
  pipeline order::

      can_rename(rec)          decode-stage structural check
      rename(instr)            bind operands to dependence tags
      on_dispatch(instr)       dispatch bookkeeping (reserve sets, ...)
      on_issue(instr, now)     issue veto (issue-stage allocation)
      on_complete(instr, now)  completion veto (write-back allocation;
                               False squashes back to the issue queue)
      on_commit(instr)         release the superseded resources
      rollback(instrs)         undo mappings, youngest first

* **Capability flags** — class attributes (``has_issue_hook``,
  ``holds_writers_in_iq``, ...) that declare which hooks a policy
  actually needs.  The cycle engine reads them once at construction and
  skips no-op hook calls entirely, so the per-cycle hot loop stays
  branch-free for policies that don't use a hook — no ``isinstance``
  checks against concrete renamer classes anywhere in ``uarch/``.

* **The policy registry** — a string-keyed table of every known policy
  (``conventional``, ``early-release``, ``vp-issue``, ``vp-writeback``).
  ``ProcessorConfig.build_renamer``, the CLI's ``--scheme`` choices,
  ``repro.perf``, and the experiment runners all resolve policies
  through :func:`resolve_policy`; adding a scheme means registering one
  entry here, not editing the pipeline.

:class:`AllocationStage` lives here (not in ``virtual_physical``) so the
registry can describe the two virtual-physical variants without
importing the implementation modules; they are imported lazily the
first time a policy is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.isa.registers import CLASS_SHIFT
from repro.core.tags import TAG_CLASS_SHIFT

_INDEX_MASK = (1 << CLASS_SHIFT) - 1


class AllocationStage(Enum):
    """Pipeline stage at which physical registers are allocated."""

    ISSUE = "issue"
    WRITEBACK = "writeback"


class RenamingPolicy:
    """Abstract renaming policy; concrete schemes override the hooks.

    The pipeline owns all *timing* (readiness, wakeup, scheduling); a
    policy owns all *naming* (map tables, free pools, allocation
    strategy).  Subclasses set the capability flags that are true for
    them; the engine binds only the declared hooks, so leaving a flag
    ``False`` keeps that hook entirely off the per-instruction hot path.
    """

    # -- capability flags (class-level defaults; instances may override
    # them in __init__ when the capability depends on construction
    # parameters, as the VP scheme's allocation stage does) -------------

    #: extra commit latency in cycles (the paper charges the VP scheme
    #: one cycle for the PMT lookup at commit).
    commit_extra_latency = 0
    #: the engine calls :meth:`on_dispatch` per dispatched instruction.
    has_dispatch_hook = False
    #: the engine calls :meth:`on_issue` per issue attempt; ``False``
    #: return vetoes the issue this cycle.
    has_issue_hook = False
    #: the engine calls :meth:`on_complete` per completion; ``False``
    #: return squashes the instruction back to the issue queue.
    has_complete_hook = False
    #: issued destination writers keep their issue-queue slot until
    #: their completion succeeds (they may be squashed and re-executed).
    holds_writers_in_iq = False
    #: the policy implements :meth:`may_allocate_now`, so the engine may
    #: honor ``ProcessorConfig.retry_gating`` by holding re-executions
    #: until the allocation precondition holds.
    supports_retry_gating = False

    #: per-class dependence-tag tables (``{RegClass: list}``, indexable
    #: by the raw class bit); set by subclasses that use the shared
    #: :meth:`_rename_sources` helper.
    _tag_tables = None
    #: per-class NRR reserve handles; policies backed by a
    #: :class:`~repro.core.reserve.ReservePolicy` set this and inherit
    #: the standard :meth:`on_dispatch` reserve dispatch.
    _reserve_by_cls = None
    #: physical registers per class; concrete policies fill this in.
    npr = {}

    # -- lifecycle hooks -------------------------------------------------

    def can_rename(self, rec):
        """Decode-stage structural check for ``rec``'s destination."""
        raise NotImplementedError

    def rename(self, instr):
        """Rewrite ``instr``'s operands into dependence tags: fill
        ``instr.src_tags`` and ``instr.dest_tag`` and record whatever
        undo/free information commit and rollback will need."""
        raise NotImplementedError

    def on_dispatch(self, instr):
        """Dispatch-time bookkeeping (called iff ``has_dispatch_hook``).

        The default implementation is the NRR reserve dispatch shared
        by every reserve-backed policy: destination writers enter the
        per-class reserve state (``_reserve_by_cls``).  Policies with
        different dispatch bookkeeping override this.
        """
        cls = instr.dest_cls
        if cls is not None:
            self._reserve_by_cls[cls].on_dispatch(instr)

    def on_issue(self, instr, now):
        """Issue-stage hook (called iff ``has_issue_hook``); returning
        ``False`` vetoes the issue this cycle."""
        return True

    def on_complete(self, instr, now):
        """Completion hook (called iff ``has_complete_hook``); returning
        ``False`` squashes the instruction back to the issue queue."""
        return True

    def on_commit(self, instr):
        """Release the resources the instruction's predecessor held."""
        raise NotImplementedError

    def rollback(self, instrs):
        """Undo mappings, youngest first (precise-state recovery)."""
        raise NotImplementedError

    def may_allocate_now(self, instr):
        """Whether the allocation rule could admit ``instr`` right now
        (advisory; used only when ``supports_retry_gating``)."""
        return True

    def initial_ready_tags(self):
        """Tags whose values exist at reset (the architectural state)."""
        raise NotImplementedError

    # -- introspection the engine and diagnostics use --------------------

    def free_physical(self, cls):
        """Number of free physical registers of ``cls`` (diagnostics)."""
        raise NotImplementedError

    def allocated_physical(self, cls):
        """Number of allocated physical registers of ``cls``."""
        raise NotImplementedError

    def phys_pools(self):
        """Per-class physical-register :class:`FreeList`s, or ``None``.

        When provided, the engine counts occupancy with a plain
        ``len()`` per cycle instead of calling
        :meth:`allocated_physical`; policies without the standard pool
        layout return ``None`` and take the slower path.
        """
        return None

    # -- shared helpers ---------------------------------------------------

    def _rename_sources(self, instr):
        """Fill ``instr.src_tags`` from the policy's ``_tag_tables``.

        The tuple-building fast path shared by every table-driven
        policy: class/index extraction and tag packing are inlined
        shifts (see ``repro.isa.registers`` / ``repro.core.tags`` for
        the encodings); the per-class tables are indexed with the raw
        class bit (``IntEnum`` dict keys accept it).
        """
        rec = instr.rec
        tables = self._tag_tables
        src1 = rec.src1
        src2 = rec.src2
        if src1 >= 0:
            cls = src1 >> CLASS_SHIFT
            tag1 = (cls << TAG_CLASS_SHIFT) | tables[cls][src1 & _INDEX_MASK]
            if src2 >= 0:
                cls = src2 >> CLASS_SHIFT
                instr.src_tags = (
                    tag1,
                    (cls << TAG_CLASS_SHIFT) | tables[cls][src2 & _INDEX_MASK],
                )
            else:
                instr.src_tags = (tag1,)
        elif src2 >= 0:
            cls = src2 >> CLASS_SHIFT
            instr.src_tags = (
                (cls << TAG_CLASS_SHIFT) | tables[cls][src2 & _INDEX_MASK],
            )
        else:
            instr.src_tags = ()


# -- the registry -----------------------------------------------------------


@dataclass(frozen=True)
class PolicyCapabilities:
    """A policy's capability flags as static registry metadata.

    The same six flags :class:`RenamingPolicy` carries as class/instance
    attributes, declared once per *registered policy name* so the engine
    can resolve them without building a renamer: processor construction
    and the native engine's feature gate both read them through
    the cached :func:`policy_capabilities` lookup instead of
    re-resolving per instantiation inside grid sweeps.

    ``tests/core/test_policy.py`` asserts every declaration matches the
    flags of a renamer actually built for that policy, so the static
    copy can never drift from the instance truth.
    """

    commit_extra_latency: int = 0
    has_dispatch_hook: bool = False
    has_issue_hook: bool = False
    has_complete_hook: bool = False
    holds_writers_in_iq: bool = False
    supports_retry_gating: bool = False

    @classmethod
    def of(cls, renamer):
        """The capabilities a built renamer instance declares."""
        return cls(
            commit_extra_latency=renamer.commit_extra_latency,
            has_dispatch_hook=renamer.has_dispatch_hook,
            has_issue_hook=renamer.has_issue_hook,
            has_complete_hook=renamer.has_complete_hook,
            holds_writers_in_iq=renamer.holds_writers_in_iq,
            supports_retry_gating=renamer.supports_retry_gating,
        )


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry: everything the entry layers need to know."""

    #: the registry key (``repro run --scheme <name>``).
    name: str
    #: the ``RenamingScheme`` enum *value* this policy maps to (kept as
    #: a string so the registry does not import ``uarch.config``).
    scheme: str
    #: the allocation stage, for policies that have one.
    allocation: AllocationStage | None
    #: whether the policy's configuration takes the NRR knob.
    uses_nrr: bool
    #: one-line description (``repro --help``, docs).
    description: str
    #: ``ProcessorConfig -> RenamingPolicy`` factory.
    build: object
    #: static capability flags (``None`` = unknown: the engine derives
    #: them from the built instance and the native tier declines to
    #: specialize for the policy).
    capabilities: PolicyCapabilities | None = None

    def __str__(self):
        return f"{self.name}: {self.description}"


_REGISTRY: dict[str, PolicyInfo] = {}


def register_policy(info):
    """Add ``info`` to the registry (last registration of a name wins).

    Returns ``info`` so external schemes can use it as a decorator
    helper; re-registering a built-in name deliberately replaces it.
    Cached name/capability lookups are invalidated.
    """
    _REGISTRY[info.name] = info
    policy_capabilities.cache_clear()
    _policy_name_cache.cache_clear()
    return info


@lru_cache(maxsize=None)
def policy_capabilities(name):
    """The :class:`PolicyCapabilities` registered under ``name`` (or
    ``None`` for policies registered without a declaration).

    Cached per name: a grid sweep constructing thousands of processors
    resolves each policy's flags once, not once per construction
    (:func:`register_policy` invalidates the cache).
    """
    return resolve_policy(name).capabilities


def resolve_policy(name):
    """The :class:`PolicyInfo` registered under ``name``.

    Raises ``KeyError`` with the full list of known policies — the one
    error message every entry layer (CLI, config, experiments) shows
    for a typo'd policy name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown renaming policy {name!r}; registered policies: {known}"
        ) from None


def policy_names():
    """All registered policy names, sorted (the CLI's --scheme choices)."""
    return tuple(sorted(_REGISTRY))


def policy_name_for(scheme, allocation=None):
    """The registry key a ``(scheme value, allocation)`` pair maps to.

    The inverse of the registry's metadata, used by
    ``ProcessorConfig.policy`` to name the policy its enum fields
    select.  Cached: the lookup runs on every processor construction
    and every config hash, so a sweep must not re-scan the registry
    each time (:func:`register_policy` invalidates the cache).
    """
    return _policy_name_cache(scheme, allocation)


@lru_cache(maxsize=None)
def _policy_name_cache(scheme, allocation):
    for info in _REGISTRY.values():
        if info.scheme != scheme:
            continue
        if info.allocation is None or info.allocation is allocation:
            return info.name
    raise KeyError(f"no registered policy for scheme {scheme!r} "
                   f"/ allocation {allocation!r}")


# -- built-in policies ------------------------------------------------------
#
# Builders import the implementation modules lazily so the registry can
# be consulted (names, help text, scheme mapping) without pulling in
# every scheme, and so the implementation modules may import this one.


def _build_conventional(config):
    from repro.core.conventional import ConventionalRenamer

    return ConventionalRenamer(
        config.int_phys, config.fp_phys,
        nlr_int=config.nlr_int, nlr_fp=config.nlr_fp,
    )


def _build_early_release(config):
    from repro.core.early_release import EarlyReleaseRenamer

    return EarlyReleaseRenamer(
        config.int_phys, config.fp_phys,
        nlr_int=config.nlr_int, nlr_fp=config.nlr_fp,
    )


def _build_virtual_physical(config):
    from repro.core.virtual_physical import VirtualPhysicalRenamer

    return VirtualPhysicalRenamer(
        config.int_phys, config.fp_phys, config.rob_size,
        config.nrr_int, config.nrr_fp,
        allocation=config.allocation,
        nlr_int=config.nlr_int, nlr_fp=config.nlr_fp,
    )


register_policy(PolicyInfo(
    name="conventional",
    scheme="conventional",
    allocation=None,
    uses_nrr=False,
    description="physical register at decode, freed at superseder commit "
                "(the paper's baseline)",
    build=_build_conventional,
    capabilities=PolicyCapabilities(),
))
register_policy(PolicyInfo(
    name="early-release",
    scheme="early-release",
    allocation=None,
    uses_nrr=False,
    description="conventional allocation plus counter-based early "
                "freeing (refs [8][10])",
    build=_build_early_release,
    capabilities=PolicyCapabilities(),
))
register_policy(PolicyInfo(
    name="vp-writeback",
    scheme="virtual-physical",
    allocation=AllocationStage.WRITEBACK,
    uses_nrr=True,
    description="virtual-physical tags at decode, physical register at "
                "write-back with NRR squash-and-re-execute (paper §3.2)",
    build=_build_virtual_physical,
    capabilities=PolicyCapabilities(
        commit_extra_latency=1,
        has_dispatch_hook=True,
        has_complete_hook=True,
        holds_writers_in_iq=True,
        supports_retry_gating=True,
    ),
))
register_policy(PolicyInfo(
    name="vp-issue",
    scheme="virtual-physical",
    allocation=AllocationStage.ISSUE,
    uses_nrr=True,
    description="virtual-physical tags at decode, physical register at "
                "issue (paper §3.4; allocation failure blocks the issue)",
    build=_build_virtual_physical,
    capabilities=PolicyCapabilities(
        commit_extra_latency=1,
        has_dispatch_hook=True,
        has_issue_hook=True,
    ),
))
