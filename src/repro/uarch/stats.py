"""Simulation statistics.

``SimStats`` is filled in by the pipeline as it runs; ``SimResult`` is
what :func:`repro.uarch.processor.simulate` returns to callers (stats
plus the configuration and identity of the run).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields


@dataclass(slots=True)
class SimStats:
    """Raw counters accumulated during one simulation.

    Slotted: the pipeline bumps these counters many times per simulated
    cycle, and slot access skips the instance-dict lookup.
    """

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    executions: int = 0  # issue events, counting re-executions
    squashes: int = 0  # VP write-back allocation failures
    issue_alloc_blocks: int = 0  # VP issue allocation failures
    branches: int = 0
    mispredicts: int = 0
    faults: int = 0  # injected precise exceptions
    loads: int = 0
    load_misses: int = 0
    stores: int = 0
    store_forwards: int = 0
    # Rename-stage stall cycles by cause (a cycle is charged to the cause
    # blocking the *oldest* un-renamed instruction).
    stall_rob_full: int = 0
    stall_iq_full: int = 0
    stall_no_reg: int = 0
    stall_sq_full: int = 0
    fetch_stall_cycles: int = 0  # cycles fetch sat waiting on a mispredict
    wb_port_defers: int = 0
    # Register-file port/bank contention model (uarch/regfile.py; both
    # counters stay 0 with the model off — the default).
    rf_read_stalls: int = 0  # issues blocked by read ports or banks
    rf_bank_conflicts: int = 0  # blocks caused specifically by a bank
    # Register-pressure accounting: sum over cycles of allocated registers.
    int_reg_occupancy_sum: int = 0
    fp_reg_occupancy_sum: int = 0
    peak_rob: int = 0
    # Engine-tier provenance: 1 when a run requested the native engine
    # but fell back to the interpreter (no toolchain, a build failure,
    # a configuration or trace shape the C loop does not lower).
    # Always 0 on the interpreted tier, so a silent fallback can never
    # masquerade as a native run in a differential comparison.
    engine_fallbacks: int = 0

    @property
    def ipc(self):
        """Committed instructions per cycle (0.0 before any cycle)."""
        if self.cycles == 0:
            return 0.0
        return self.committed / self.cycles

    @property
    def executions_per_commit(self):
        """The paper reports 3.3 for write-back allocation (§4.2.1)."""
        if self.committed == 0:
            return 0.0
        return self.executions / self.committed

    @property
    def mispredict_rate(self):
        """Mispredicted fraction of executed branches."""
        if self.branches == 0:
            return 0.0
        return self.mispredicts / self.branches

    @property
    def load_miss_rate(self):
        """L1 miss fraction of committed loads."""
        if self.loads == 0:
            return 0.0
        return self.load_misses / self.loads

    def avg_reg_occupancy(self, cls_name):
        """Mean allocated physical registers per cycle ('int' or 'fp')."""
        if self.cycles == 0:
            return 0.0
        total = (
            self.int_reg_occupancy_sum
            if cls_name == "int"
            else self.fp_reg_occupancy_sum
        )
        return total / self.cycles

    def to_dict(self):
        """All raw counters as a flat, JSON-compatible dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` output (ignores unknown keys)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SimResult:
    """Everything a caller needs to interpret one simulation run."""

    stats: SimStats
    config: object
    workload: str = ""
    seed: int = 0
    extra: dict = field(default_factory=dict)
    #: The cycle-engine tier that ran (``Processor.engine_used``); kept
    #: out of :meth:`to_dict` and equality, so a stored or compared
    #: result is the same whichever tier produced it, and ``None`` for
    #: a result rebuilt by :meth:`from_dict`.
    engine_used: str | None = field(default=None, compare=False)

    @property
    def ipc(self):
        """Shortcut for ``stats.ipc``."""
        return self.stats.ipc

    def summary(self):
        """One-line human summary: IPC, rates, executions/commit."""
        s = self.stats
        return (
            f"{self.workload or 'trace'}: IPC={s.ipc:.3f} "
            f"({s.committed} instrs / {s.cycles} cycles), "
            f"mispredict={s.mispredict_rate:.1%}, "
            f"load-miss={s.load_miss_rate:.1%}, "
            f"exec/commit={s.executions_per_commit:.2f}"
        )

    def to_dict(self):
        """JSON-compatible form shared by the persistent result store and
        the CLI's JSON output.  Round-trips through :meth:`from_dict`."""
        config = self.config
        if config is not None and hasattr(config, "to_dict"):
            config = config.to_dict()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "stats": self.stats.to_dict(),
            "config": config,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        from repro.uarch.config import ProcessorConfig

        config = data.get("config")
        if isinstance(config, dict):
            config = ProcessorConfig.from_dict(config)
        return cls(
            stats=SimStats.from_dict(data.get("stats", {})),
            config=config,
            workload=data.get("workload", ""),
            seed=data.get("seed", 0),
            extra=dict(data.get("extra", {})),
        )
