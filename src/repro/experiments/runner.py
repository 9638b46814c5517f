"""Shared machinery for the per-table/figure experiment runners.

Run lengths default to 30k timed instructions after a 3k functional
warm-up, and can be scaled through environment variables so the same
harness serves quick smoke runs and long reproduction runs::

    REPRO_BENCH_INSTRS=200000 REPRO_BENCH_SKIP=20000 pytest benchmarks/

Every experiment submits its whole grid to the batch engine
(:mod:`repro.engine`) through a :class:`ResultCache`, which layers the
persistent on-disk store (or, without one, a bounded in-process memo)
over a pluggable executor.  ``ResultCache(jobs=4)`` runs a grid on four worker
processes; results are identical to serial execution because each run
is fully seeded.
"""

from __future__ import annotations

import os

from repro.engine import BatchEngine, ResultStore, RunSpec, make_executor
from repro.trace.workloads import FP_BENCHMARKS, INT_BENCHMARKS
from repro.uarch.config import virtual_physical_config, conventional_config

ALL_BENCHMARKS = INT_BENCHMARKS + FP_BENCHMARKS


def bench_instructions():
    return int(os.environ.get("REPRO_BENCH_INSTRS", 30_000))


def bench_skip():
    return int(os.environ.get("REPRO_BENCH_SKIP", 3_000))


def bench_seed():
    return int(os.environ.get("REPRO_BENCH_SEED", 1234))


def resolve_spec(spec):
    """Fill a spec's ``None`` run-length fields from the environment."""
    return spec.resolved(bench_instructions(), bench_skip(), bench_seed())


class ResultCache:
    """Experiment-facing facade over the batch engine.

    Several figures share runs (every sweep needs the conventional
    baseline), so results are cached on the spec's stable key in the
    persistent store, which serves a repeat in this process and in any
    other, so repeated figure or sweep invocations are near-instant.
    Pass ``persistent=False`` (or set ``REPRO_NO_CACHE=1``) to skip the
    on-disk store (repeats are then served by the batch engine's
    in-process memo, bounded by ``engine.core.MEMO_ENTRIES``),
    ``jobs=N`` to execute cache misses on a worker pool, and
    ``executor="remote"`` with ``workers="host[:port],..."`` to fan
    them out across ``repro worker`` daemons instead.
    """

    def __init__(self, jobs=1, persistent=None, store=None, progress=None,
                 executor=None, workers=None, heartbeat=None, retries=None,
                 connect_timeout=None, run_timeout=None, on_cluster_loss=None):
        if persistent is None:
            persistent = not os.environ.get("REPRO_NO_CACHE")
        if store is None and persistent:
            store = ResultStore()
        self.engine = BatchEngine(
            executor=make_executor(jobs, kind=executor, workers=workers,
                                   heartbeat=heartbeat, retries=retries,
                                   connect_timeout=connect_timeout,
                                   run_timeout=run_timeout,
                                   on_cluster_loss=on_cluster_loss),
            store=store, progress=progress)

    @property
    def last_batch(self):
        """Hit/miss accounting for the most recent grid submission."""
        return self.engine.last_batch

    def compact(self, prune_stale=False):
        """Compact the persistent store (see :meth:`ResultStore.compact`).

        Returns ``(kept, dropped)``; ``(0, 0)`` when no store is attached.
        """
        store = self.engine.store
        if store is None:
            return 0, 0
        return store.compact(prune_stale=prune_stale)

    def run_specs(self, specs, trace=None):
        """Run a whole grid; results come back in spec order.

        ``trace`` is an optional trace id threaded through the engine
        (see :mod:`repro.obs.tracing`).
        """
        return self.engine.run((resolve_spec(spec) for spec in specs),
                               trace=trace)

    def run_specs_iter(self, specs, trace=None):
        """Stream ``(position, spec, result)`` as each result lands.

        The incremental variant of :meth:`run_specs` (see
        :meth:`BatchEngine.run_specs_iter`); specs are resolved through
        the same environment defaults.
        """
        return self.engine.run_specs_iter(
            [resolve_spec(spec) for spec in specs], trace=trace)

    def run(self, spec):
        """Run (or recall) a single spec."""
        return self.run_specs([spec])[0]


#: Module-level cache shared by all experiment entry points.
SHARED_CACHE = ResultCache()


def conventional_ipcs(cache=None, benchmarks=ALL_BENCHMARKS, **config_changes):
    """Baseline IPC per benchmark under conventional renaming."""
    cache = cache or SHARED_CACHE
    cfg = conventional_config(**config_changes)
    results = cache.run_specs(RunSpec(b, cfg) for b in benchmarks)
    return dict(zip(benchmarks, (r.ipc for r in results)))


def virtual_physical_ipcs(nrr, allocation=None, cache=None,
                          benchmarks=ALL_BENCHMARKS, **config_changes):
    """VP-scheme IPC per benchmark for one NRR / allocation stage."""
    from repro.core.virtual_physical import AllocationStage

    cache = cache or SHARED_CACHE
    allocation = allocation or AllocationStage.WRITEBACK
    cfg = virtual_physical_config(nrr=nrr, allocation=allocation,
                                  **config_changes)
    results = cache.run_specs(RunSpec(b, cfg) for b in benchmarks)
    return dict(zip(benchmarks, (r.ipc for r in results)))
