"""repro — reproduction of "Virtual-Physical Registers" (HPCA 1998).

A from-scratch, trace-driven, cycle-level model of a dynamically
scheduled superscalar processor with two register-renaming schemes:

* conventional renaming (physical register allocated at decode), and
* the paper's **virtual-physical** renaming (allocation delayed to issue
  or write-back, with NRR deadlock avoidance).

Renaming schemes are **policies**: every scheme implements the
:class:`RenamingPolicy` lifecycle-hook interface and is resolved by
name through the policy registry (:func:`policy_names` /
:func:`resolve_policy`; ``policy_config("vp-issue", nrr=8)`` builds a
ready configuration).  The optional register-file port/bank contention
model (:class:`RegisterFilePorts`, ``ProcessorConfig.rf_model``) adds
read/write-port and bank-conflict stalls on top of any policy.

Quickstart::

    from repro import simulate, conventional_config, virtual_physical_config

    base = simulate(conventional_config(), workload="swim")
    late = simulate(virtual_physical_config(nrr=32), workload="swim")
    print(base.ipc, late.ipc)

Grids run through the batch engine (:class:`BatchEngine` /
:class:`RunSpec`), which layers an in-process memo, the persistent
sharded :class:`ResultStore`, and a pluggable executor — serial,
process pools, or a cluster of ``repro worker`` daemons via
:class:`RemoteExecutor`.  On top of the engine, the service layer
(:class:`Gateway` / :class:`GatewayClient`, ``repro serve``) exposes
simulations over HTTP: clients POST spec grids and stream results
back point by point, with shared-token auth (``REPRO_TOKEN``).

The whole stack is observable through :mod:`repro.obs`: a process-wide
metrics registry with Prometheus exposition (``GET /v1/metrics``),
trace spans threaded from submission through the queue, executor, and
remote workers (``repro trace <id>``), opt-in engine profiling
(``REPRO_PROFILE``), and a zero-dependency live dashboard at
``/v1/dashboard``.

See ``docs/architecture.md`` for the layer map, ``docs/engine.md`` for
the execution layer, ``docs/service.md`` for the HTTP gateway,
``docs/observability.md`` for metrics/traces/dashboard, and
``docs/reproducing-the-paper.md`` for the table-by-table reproduction
walkthrough.
"""

from repro.core import (
    AllocationStage,
    ConventionalRenamer,
    EarlyReleaseRenamer,
    PolicyInfo,
    RenamingPolicy,
    VirtualPhysicalRenamer,
    policy_names,
    register_policy,
    resolve_policy,
)
from repro.engine import (
    BatchEngine,
    RemoteExecutor,
    ResultStore,
    RunSpec,
    WorkerServer,
)
from repro.isa import OpClass, RegClass, TraceRecord
from repro.memory import CacheConfig
from repro.trace import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    WORKLOADS,
    SyntheticTrace,
    Workload,
    load_workload,
)
from repro.uarch import (
    Processor,
    ProcessorConfig,
    RegisterFilePorts,
    RenamingScheme,
    SimResult,
    SimStats,
    SimulationDeadlock,
    conventional_config,
    policy_config,
    simulate,
    virtual_physical_config,
)

__version__ = "1.8.0"

#: Exports loaded on first use (PEP 562): the service layer pulls in
#: asyncio and http.client, which simulation processes, pool workers and
#: worker daemons never need.
_LAZY = {"Gateway": "repro.service", "GatewayClient": "repro.service"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value

__all__ = [
    "AllocationStage",
    "BatchEngine",
    "ConventionalRenamer",
    "EarlyReleaseRenamer",
    "Gateway",
    "GatewayClient",
    "PolicyInfo",
    "RenamingPolicy",
    "RegisterFilePorts",
    "RemoteExecutor",
    "ResultStore",
    "RunSpec",
    "WorkerServer",
    "VirtualPhysicalRenamer",
    "policy_names",
    "policy_config",
    "register_policy",
    "resolve_policy",
    "OpClass",
    "RegClass",
    "TraceRecord",
    "CacheConfig",
    "FP_BENCHMARKS",
    "INT_BENCHMARKS",
    "WORKLOADS",
    "SyntheticTrace",
    "Workload",
    "load_workload",
    "Processor",
    "ProcessorConfig",
    "RenamingScheme",
    "SimResult",
    "SimStats",
    "SimulationDeadlock",
    "conventional_config",
    "simulate",
    "virtual_physical_config",
    "__version__",
]
