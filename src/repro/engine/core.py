"""The batch engine: grid in, results out, every cache layer between.

:class:`BatchEngine` accepts an iterable of resolved
:class:`~repro.engine.spec.RunSpec`\\ s and returns their results in
spec order.  For each spec it consults, in order:

1. the in-process memo (same object returned for repeated specs) of
   an engine without a store, bounded by :data:`MEMO_ENTRIES`,
2. the persistent :class:`~repro.engine.store.ResultStore` (if any),
   which answers every key an earlier batch produced, so an engine
   with a store holds a result only for the batch that produced it,
3. the executor, which simulates the remaining misses — deduplicated,
   so a grid that names the conventional baseline nine times runs it
   once.

The executor seam is where the engine scales: the same ``run()`` call
executes in-process, on local process pools, or across a cluster of
``repro worker`` daemons (:class:`~repro.engine.remote.RemoteExecutor`)
without the caller changing anything.

Execution counters (``memo_hits`` / ``store_hits`` / ``executed``) are
kept per ``run()`` call so callers can report cache effectiveness.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.executors import SerialExecutor, make_executor
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

_POINTS = _metrics.get_registry().counter(
    "repro_engine_points_total",
    "Batch-engine points served, by source (memo/store/executed).",
    labelnames=("source",))
_BATCH_SECONDS = _metrics.get_registry().histogram(
    "repro_engine_batch_seconds",
    "Wall-clock duration of BatchEngine executor windows.")
_RUNS = _metrics.get_registry().counter(
    "repro_engine_runs_total",
    "Points the batch engine executed, by the cycle-engine tier that "
    "ran them (interp/native).",
    labelnames=("tier",))

#: Results an engine without a store keeps across batches (the least
#: recently used go first).
MEMO_ENTRIES = 1024


@dataclass
class BatchStats:
    """Where each spec of one ``run()`` call was served from."""

    memo_hits: int = 0
    store_hits: int = 0
    executed: int = 0
    keys: list = field(default_factory=list)
    #: Set when the executor completed the batch in degraded mode (the
    #: remote backend lost its cluster and fell back to local
    #: execution); the executor's ``last_run_report["degraded"]`` dict.
    degraded: dict | None = None

    @property
    def total(self):
        return self.memo_hits + self.store_hits + self.executed


class BatchEngine:
    """Executes run-spec grids through memo, store, and executor."""

    def __init__(self, executor=None, store=None, progress=None):
        self.executor = executor or SerialExecutor()
        self.store = store
        self.progress = progress
        self._memo = OrderedDict()  # key -> SimResult, storeless only
        self.last_batch = BatchStats()

    @classmethod
    def with_jobs(cls, jobs=None, store=None, progress=None):
        """An engine whose executor matches a requested job count."""
        return cls(executor=make_executor(jobs), store=store,
                   progress=progress)

    @classmethod
    def with_workers(cls, workers, store=None, progress=None):
        """An engine that executes misses on a remote worker cluster.

        ``workers`` is a ``host[:port],...`` string or iterable naming
        ``repro worker --serve`` daemons (see
        :mod:`repro.engine.remote`).
        """
        return cls(executor=make_executor(kind="remote", workers=workers),
                   store=store, progress=progress)

    def run(self, specs, trace=None):
        """Simulate every spec, returning results in spec order."""
        specs = list(specs)
        results = [None] * len(specs)
        for position, _, result in self.run_specs_iter(specs,
                                                       trace=trace):
            results[position] = result
        return results

    def run_specs_iter(self, specs, trace=None):
        """Stream ``(position, spec, result)`` as each result lands.

        The incremental face of :meth:`run`, and the seam the service
        gateway streams from.  Memo and store hits are yielded
        immediately (before the executor is even invoked), then
        executed results follow in **completion order** — whatever the
        executor's ``run_iter`` yields first (serial: submission order;
        pools and the remote backend: whichever run finishes first).
        Every position of the input grid is yielded exactly once;
        duplicate specs are yielded as soon as their shared key
        resolves.  Cache layers, deduplication, and ``last_batch``
        accounting are identical to :meth:`run` — collecting this
        stream IS :meth:`run`.

        ``trace`` is an optional trace id (or per-position list of
        ids, the gateway-round form) threaded through the executor and
        recorded as queue/dispatch/run/store spans — see
        :mod:`repro.obs.tracing`.  ``None`` falls back to the thread's
        ambient trace, so an untraced call records nothing.
        """
        specs = list(specs)
        for spec in specs:
            if not spec.is_resolved:
                raise ValueError(f"unresolved spec submitted: {spec!r}")
        if isinstance(trace, (list, tuple)):
            traces = [t for t in trace] + [None] * (len(specs)
                                                    - len(trace))
        else:
            traces = [trace] * len(specs)
        ambient = _tracing.current_trace()
        traces = [t if t is not None else ambient for t in traces]
        distinct = {t for t in traces if t is not None}
        batch_trace = distinct.pop() if len(distinct) == 1 else None
        keys = [spec.key() for spec in specs]
        batch = BatchStats(keys=list(dict.fromkeys(keys)))
        scan_started = time.time()
        found = {}  # key -> this batch's result, served or executed
        pending = {}  # key -> spec, deduplicated, submission order
        for spec, key in zip(specs, keys):
            if key in pending or key in found:
                continue
            if key in self._memo:
                self._memo.move_to_end(key)
                found[key] = self._memo[key]
                continue
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    found[key] = stored
                    batch.store_hits += 1
                    continue
            pending[key] = spec
        batch.memo_hits = len(batch.keys) - batch.store_hits - len(pending)
        self.last_batch = batch
        if batch.memo_hits:
            _POINTS.inc(batch.memo_hits, source="memo")
        if batch.store_hits:
            _POINTS.inc(batch.store_hits, source="store")
        if batch_trace is not None:
            _tracing.record_span(
                "queue", "engine.cache-scan", scan_started,
                time.time() - scan_started, trace=batch_trace,
                attrs={"points": len(specs),
                       "memo_hits": batch.memo_hits,
                       "store_hits": batch.store_hits,
                       "pending": len(pending)})
        # Cache hits flush first: every position already servable.
        for position, key in enumerate(keys):
            if key not in pending:
                yield position, specs[position], found[key]
        if not pending:
            return
        positions = {}  # key -> positions awaiting the executed result
        for position, key in enumerate(keys):
            if key in pending:
                positions.setdefault(key, []).append(position)
        items = list(pending.items())
        # key -> trace of the first position awaiting it, for per-run
        # spans when a gateway round mixes jobs (no single batch trace).
        key_traces = {key: traces[poss[0]]
                      for key, poss in positions.items()}
        run_iter = getattr(self.executor, "run_iter", None)
        dispatch_started = time.time()
        outcome = "ok"
        # Bind the batch trace to this thread so trace-aware executors
        # (RemoteExecutor chunk dispatch) pick it up via
        # ``current_trace`` without an API change at the run_iter seam.
        with _tracing.trace_context(batch_trace):
            try:
                if run_iter is not None:
                    stream = run_iter([spec for _, spec in items],
                                      progress=self.progress)
                else:  # pre-streaming executor: barrier, then flush
                    stream = enumerate(self.executor.run(
                        [spec for _, spec in items],
                        progress=self.progress))
                for index, result in stream:
                    key, spec = items[index]
                    run_trace = key_traces.get(key)
                    found[key] = result
                    self._remember(key, result)
                    # The tier that ran; a remote worker's result does
                    # not say, so its span keeps the requested one.
                    tier = result.engine_used
                    if tier is not None:
                        _RUNS.inc(tier=tier)
                    if run_trace is not None:
                        _tracing.record_span(
                            "run", "engine.run", dispatch_started,
                            time.time() - dispatch_started,
                            trace=run_trace,
                            attrs={"key": key,
                                   "workload": spec.workload,
                                   "label": spec.label,
                                   "engine": tier or getattr(
                                       spec.config, "engine", ""),
                                   "engine_fallbacks":
                                       result.stats.engine_fallbacks})
                    if self.store is not None:
                        store_started = time.time()
                        self.store.put(key, result)
                        if run_trace is not None:
                            _tracing.record_span(
                                "store", "engine.store-put",
                                store_started,
                                time.time() - store_started,
                                trace=run_trace, attrs={"key": key})
                    # Counted as each result lands, so a failed or
                    # abandoned run reports only work that happened.
                    batch.executed += 1
                    _POINTS.inc(source="executed")
                    for position in positions[key]:
                        yield position, specs[position], result
            except BaseException:
                outcome = "error"
                raise
            finally:
                elapsed = time.time() - dispatch_started
                _BATCH_SECONDS.observe(elapsed)
                if batch_trace is not None:
                    _tracing.record_span(
                        "dispatch", "engine.dispatch",
                        dispatch_started, elapsed, trace=batch_trace,
                        outcome=outcome,
                        attrs={"pending": len(items),
                               "executed": batch.executed,
                               "executor":
                                   type(self.executor).__name__})
        # Surface executor degradation (remote cluster lost, local
        # fallback used) on the batch, where the CLI dispatch report
        # and the gateway's /v1/metrics can see it.
        report = getattr(self.executor, "last_run_report", None)
        if isinstance(report, dict) and report.get("degraded"):
            batch.degraded = report["degraded"]

    def _remember(self, key, result):
        """Keep an executed result for later batches: only without a
        store (a store answers them), at most :data:`MEMO_ENTRIES`."""
        if self.store is None:
            self._memo[key] = result
            if len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)

    def run_one(self, spec):
        """Convenience wrapper: a one-spec batch."""
        return self.run([spec])[0]
