"""Processor configuration.

``ProcessorConfig()`` with no arguments is the paper's §4.1 machine:
8-wide fetch/commit, 128-entry reorder buffer, 64 physical registers per
file, the Table 1 functional units, a 2048-entry BHT, three cache ports,
and the 16 KB lockup-free L1 with a 50-cycle miss penalty.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from repro.core.policy import AllocationStage, policy_name_for, resolve_policy
from repro.isa.opcodes import DEFAULT_FU_COUNTS, FUKind
from repro.isa.registers import NUM_LOGICAL_FP, NUM_LOGICAL_INT
from repro.memory.cache import CacheConfig


#: The cycle-engine tiers: "interp" is the reference interpreter every
#: golden pin is captured on, "native" the C-compiled loop (uarch/native).
ENGINES = ("interp", "native")


def resolve_engine(requested):
    """The engine request a run settles: ``"interp"``, ``"native"`` or
    ``"auto"``.

    ``None`` and ``"auto"`` defer to the ``REPRO_ENGINE`` environment
    variable; with it unset (or ``auto``) the request stays ``"auto"``,
    which :meth:`Processor.run <repro.uarch.processor.Processor.run>`
    settles per processor: native wherever the one artifact is ready for
    it (:func:`repro.uarch.native.ready`), else the interpreter, without
    counting a fallback.  Raises ``ValueError`` on an unknown name
    (including an unknown ``REPRO_ENGINE`` value).
    """
    name = requested or "auto"
    if name == "auto":
        name = os.environ.get("REPRO_ENGINE", "").strip() or "auto"
    if name not in ("auto", *ENGINES):
        raise ValueError(
            f"unknown engine {name!r}; choose interp, native or auto")
    return name


class RenamingScheme(Enum):
    """Which renamer family drives the pipeline.

    The enum values double as the ``scheme`` strings of the policy
    registry (:mod:`repro.core.policy`); a ``(scheme, allocation)`` pair
    names exactly one registered policy (``ProcessorConfig.policy``).
    """

    CONVENTIONAL = "conventional"
    VIRTUAL_PHYSICAL = "virtual-physical"
    EARLY_RELEASE = "early-release"


@dataclass(frozen=True, slots=True)
class ProcessorConfig:
    """All knobs of the simulated machine (defaults = the paper's §4.1).

    Slotted: the cycle engine reads these fields in its per-cycle hot
    loop, and slot access skips the instance-dict lookup.
    """

    # Widths.
    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    # Window.
    rob_size: int = 128
    iq_size: int = 128
    fetch_buffer_size: int = 16
    # Register files.
    int_phys: int = 64
    fp_phys: int = 64
    nlr_int: int = NUM_LOGICAL_INT
    nlr_fp: int = NUM_LOGICAL_FP
    read_ports: int = 16
    write_ports: int = 8
    # Register-file port/bank contention model (uarch/regfile.py) — off
    # by default: the engine then runs the legacy fixed per-class port
    # checks and golden SimStats stay bit-identical.  With rf_model on,
    # issue and write-back arbitrate through RegisterFilePorts:
    # per-class budgets (rf_read_ports/rf_write_ports, None = reuse the
    # legacy budgets above) and, when rf_banks > 1, per-bank port limits
    # with conflict stalls.
    rf_model: bool = False
    rf_read_ports: int | None = None
    rf_write_ports: int | None = None
    rf_banks: int = 1
    rf_bank_read_ports: int = 1
    rf_bank_write_ports: int = 1
    # Renaming.
    scheme: RenamingScheme = RenamingScheme.CONVENTIONAL
    allocation: AllocationStage = AllocationStage.WRITEBACK
    nrr_int: int = 32
    nrr_fp: int = 32
    # Paper-faithful write-back allocation lets squashed instructions
    # re-execute freely ("re-executions usually spend resources that
    # otherwise would be unused", §4.2.1, 3.3 executions per commit).
    # Setting retry_gating=True holds a squashed instruction in the
    # issue queue until the NRR rule could admit its allocation — an
    # engineering improvement evaluated as an ablation, not the default.
    retry_gating: bool = False
    # Functional units (Table 1).
    fu_counts: dict = field(default_factory=lambda: dict(DEFAULT_FU_COUNTS))
    # Memory.
    cache: CacheConfig = field(default_factory=CacheConfig)
    cache_ports: int = 3
    store_queue_size: int | None = None
    # Branch prediction.
    bht_entries: int = 2048
    # Oracle prediction (isolates renaming effects from control flow in
    # ablations; the paper's machine always uses the BHT).
    perfect_branch_prediction: bool = False
    # Safety net: abort if nothing commits for this many cycles.
    deadlock_horizon: int = 200_000
    # Engine tier (execution strategy, not machine identity): "interp"
    # runs the interpreter hot loop, "native" the C-compiled loop
    # (uarch/native; falls back to interp on any build failure, loudly
    # via SimStats.engine_fallbacks), "auto" defers to REPRO_ENGINE and,
    # with it unset, runs native wherever the artifact is ready, else
    # interp (uncounted).  Both tiers are bit-identical by contract, so
    # the field is excluded from key() — results cache across tiers.
    engine: str = "auto"

    def __post_init__(self):
        if self.engine not in ("auto", *ENGINES):
            raise ValueError(
                f"engine={self.engine!r}; choose auto, interp or native")
        if min(self.fetch_width, self.rename_width, self.issue_width,
               self.commit_width) < 1:
            raise ValueError("pipeline widths must be at least 1")
        if self.rob_size < 1 or self.iq_size < 1:
            raise ValueError("window structures need at least one entry")
        if self.store_queue_size is not None and self.store_queue_size < 1:
            raise ValueError("store_queue_size must be >= 1 (None = "
                             "unbounded)")
        if self.rf_model:
            # An instruction reads at most two registers of one class
            # per issue, so two read ports (per class; per bank when
            # banked) is the narrowest deadlock-free file — below that
            # a two-source instruction can never issue and the machine
            # livelocks on the ROB head.
            effective_reads = (self.rf_read_ports
                               if self.rf_read_ports is not None
                               else self.read_ports)
            if effective_reads < 2:
                raise ValueError(
                    f"rf_read_ports={effective_reads} deadlocks: an "
                    "instruction may read two registers of one class, "
                    "so the model needs at least 2 read ports")
            if self.rf_write_ports is not None and self.rf_write_ports < 1:
                raise ValueError("rf_write_ports must be >= 1")
            if self.rf_banks < 1:
                raise ValueError("rf_banks must be >= 1")
            if self.rf_banks > 1 and self.rf_bank_read_ports < 2:
                raise ValueError(
                    "rf_bank_read_ports must be >= 2 when banked (two "
                    "sources of one instruction may map to one bank)")
            if self.rf_bank_write_ports < 1:
                raise ValueError("rf_bank_write_ports must be >= 1")
        if self.scheme is RenamingScheme.VIRTUAL_PHYSICAL:
            for nrr, npr, nlr, label in (
                (self.nrr_int, self.int_phys, self.nlr_int, "int"),
                (self.nrr_fp, self.fp_phys, self.nlr_fp, "fp"),
            ):
                if not 1 <= nrr <= npr - nlr:
                    raise ValueError(
                        f"NRR({label})={nrr} outside 1..{npr - nlr}"
                    )

    @property
    def policy(self):
        """The registry name of the policy this configuration selects
        (e.g. ``"conventional"``, ``"vp-writeback"``)."""
        return policy_name_for(self.scheme.value, self.allocation)

    def build_renamer(self):
        """Instantiate the renaming policy this configuration selects,
        resolved through the policy registry."""
        return resolve_policy(self.policy).build(self)

    def port_model(self):
        """The effective register-file port configuration, as a flat
        JSON-compatible dict — recorded per point by ``repro bench`` so
        port-enabled baselines can't be confused with port-free ones."""
        return {
            "model": self.rf_model,
            "read_ports": (self.rf_read_ports
                           if self.rf_read_ports is not None
                           else self.read_ports),
            "write_ports": (self.rf_write_ports
                            if self.rf_write_ports is not None
                            else self.write_ports),
            "banks": self.rf_banks,
            "bank_read_ports": self.rf_bank_read_ports,
            "bank_write_ports": self.rf_bank_write_ports,
        }

    def with_(self, **changes):
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def to_dict(self):
        """Canonical JSON-compatible form (enums by name, nested configs
        as dicts).  Round-trips through :meth:`from_dict`."""
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "fu_counts":
                value = {FUKind(k).name: v for k, v in value.items()}
            elif f.name == "cache":
                value = {cf.name: getattr(value, cf.name)
                         for cf in fields(CacheConfig)}
            elif isinstance(value, Enum):
                value = value.value
            d[f.name] = value
        # Derived, self-describing extra: the registry name the enum
        # fields resolve to (from_dict accepts it in place of them).
        d["policy"] = self.policy
        return d

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict` (ignores unknown keys).

        Accepts a ``"policy"`` registry name in place of the
        ``scheme``/``allocation`` pair, so hand-written configs can say
        ``{"policy": "vp-issue"}``; explicit ``scheme``/``allocation``
        keys win when both are present.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "policy" in data:
            info = resolve_policy(data["policy"])
            kwargs.setdefault("scheme", info.scheme)
            if info.allocation is not None:
                kwargs.setdefault("allocation", info.allocation.value)
        if "scheme" in kwargs:
            kwargs["scheme"] = RenamingScheme(kwargs["scheme"])
        if "allocation" in kwargs:
            kwargs["allocation"] = AllocationStage(kwargs["allocation"])
        if "fu_counts" in kwargs:
            kwargs["fu_counts"] = {
                FUKind[k]: v for k, v in kwargs["fu_counts"].items()
            }
        if "cache" in kwargs and isinstance(kwargs["cache"], dict):
            cache_known = {f.name for f in fields(CacheConfig)}
            kwargs["cache"] = CacheConfig(**{
                k: v for k, v in kwargs["cache"].items() if k in cache_known
            })
        return cls(**kwargs)

    def key(self):
        """Stable content-hash identity of this configuration.

        Unlike ``repr()``, the hash is insensitive to dict ordering and
        identical across processes and interpreter runs, so it can key a
        persistent result store.  The ``engine`` field is excluded: the
        tiers are bit-identical by contract, so the same machine run on
        either engine is the same result.
        """
        d = self.to_dict()
        d.pop("engine", None)
        canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def conventional_config(**changes):
    """The paper's baseline machine."""
    return ProcessorConfig(scheme=RenamingScheme.CONVENTIONAL).with_(**changes)


def virtual_physical_config(nrr=32, allocation=AllocationStage.WRITEBACK, **changes):
    """The paper's proposed machine (defaults: write-back allocation, NRR=32).

    ``changes`` are applied in the same construction (not afterwards), so
    a config like ``nrr=64, int_phys=96`` validates against the final
    register count rather than the default one.
    """
    fields = dict(
        scheme=RenamingScheme.VIRTUAL_PHYSICAL,
        allocation=allocation,
        nrr_int=nrr,
        nrr_fp=nrr,
    )
    fields.update(changes)
    return ProcessorConfig(**fields)


def policy_config(policy, *, nrr=None, **changes):
    """A :class:`ProcessorConfig` for a registry policy name.

    The one construction path every entry layer (CLI, experiments,
    benchmarks, examples) shares: ``policy_config("vp-issue", nrr=8)``
    is the registry-driven spelling of
    ``virtual_physical_config(nrr=8, allocation=AllocationStage.ISSUE)``.
    ``nrr`` applies only to policies that use the NRR knob (it is an
    error to pass it to one that doesn't); ``changes`` are arbitrary
    config-field overrides applied in the same construction.
    """
    info = resolve_policy(policy)
    if not info.uses_nrr:
        if nrr is not None:
            raise ValueError(f"policy {policy!r} does not take an NRR value")
        return ProcessorConfig(
            scheme=RenamingScheme(info.scheme)).with_(**changes)
    return virtual_physical_config(
        nrr=32 if nrr is None else nrr,
        allocation=info.allocation, **changes)
