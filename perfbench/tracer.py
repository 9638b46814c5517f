"""Layer spans recorded from outside the program.

``install(recorder)`` wraps the entry points of each ``repro`` layer so
that every call records a span (name, start, end, parent span, point
id) in memory.  Nothing inside ``src/repro`` changes: the wrappers are
set as module and class attributes, which the program looks up at call
time.  ``Recorder.dump`` writes the spans when the run ends, and
``layer_totals`` turns them into self times: a span's duration minus
the durations of its child spans.

Boundaries (``repro`` layer -> wrapped entry point):

* ``repro.trace``: ``trace.generator.materialized_trace``; a call is a
  hit when it ran no kernel visit (``SyntheticTrace._run_kernel``),
  that is, when it generated no records.
* ``repro.uarch``: ``Processor.run``.
* ``repro.uarch.native``: ``execute``, ``build_library`` and
  ``_marshal``, the one private seam; it reads 0 if it is removed.
* ``repro.engine``: ``BatchEngine.run_specs_iter`` (timed only while
  the generator runs, and its ``last_batch`` read after each yield to
  tell cache hits from executed points), ``ResultStore.put`` and
  ``ResultStore.get``.  ``executors.execute_spec`` is wrapped only to
  tag spans with the key of the point being simulated.
* ``repro.service``: ``JobJournal.record_end`` counts each job's WAL
  bytes before the journal drops the file.

Times come from ``time.monotonic``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so spans of the gateway process and the marks of
the load generator share one time base.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

clock = time.monotonic


class Recorder:
    """The spans of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs`` is stored with the span by reference, so the caller
        may fill it in after the call returns.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = clock()
            stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent,
                "point": getattr(self._local, "point", None),
                "attrs": attrs if attrs is not None else {}})

    def set_point(self, point):
        self._local.point = point

    def dump(self, path):
        """Write the spans, one JSON line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path):
    """The spans written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _timed(recorder, name, fn):
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def install(recorder):
    """Wrap every layer boundary listed in the module docstring."""
    from repro.engine import core, executors, store
    from repro.service import wal
    from repro.trace import generator
    from repro.uarch import native, processor

    kernel_visit = generator.SyntheticTrace._run_kernel
    local = recorder._local

    def run_kernel(self, *args):
        local.visits = getattr(local, "visits", 0) + 1
        return kernel_visit(self, *args)

    generator.SyntheticTrace._run_kernel = run_kernel

    materialize = generator.materialized_trace

    def materialized_trace(*args):
        before = getattr(local, "visits", 0)
        attrs = {}
        records = recorder.call("trace.materialize", materialize, args,
                                attrs=attrs)
        attrs["hit"] = getattr(local, "visits", 0) == before
        return records

    generator.materialized_trace = materialized_trace
    processor.Processor.run = _timed(recorder, "uarch.run",
                                     processor.Processor.run)
    native.execute = _timed(recorder, "native.execute", native.execute)
    native.build_library = _timed(recorder, "native.build",
                                  native.build_library)
    if hasattr(native, "_marshal"):
        native._marshal = _timed(recorder, "native.marshal",
                                 native._marshal)

    execute_spec = executors.execute_spec

    def tagged_execute_spec(spec):
        recorder.set_point(spec.key())
        try:
            return execute_spec(spec)
        finally:
            recorder.set_point(None)

    executors.execute_spec = tagged_execute_spec

    run_specs_iter = core.BatchEngine.run_specs_iter

    def batch_run_specs_iter(self, specs, trace=None):
        stream = run_specs_iter(self, specs, trace=trace)
        executed = 0
        try:
            while True:
                attrs = {}
                try:
                    item = recorder.call("engine.batch", next, (stream,),
                                         attrs=attrs)
                except StopIteration:
                    return
                # A yield that did not advance ``executed`` was served
                # from the memo or the store (the gateway's own rule).
                now = self.last_batch.executed
                attrs["label"] = item[1].label
                attrs["hit"] = now == executed
                executed = now
                yield item
        finally:
            stream.close()

    core.BatchEngine.run_specs_iter = batch_run_specs_iter
    store.ResultStore.put = _timed(recorder, "engine.store_put",
                                   store.ResultStore.put)
    store.ResultStore.get = _timed(recorder, "engine.store_get",
                                   store.ResultStore.get)

    record_end = wal.JobJournal.record_end

    def journal_record_end(self, job_id, state):
        try:
            size = os.path.getsize(self.path_for(job_id))
        except OSError:
            size = 0
        return recorder.call("service.journal_end", record_end,
                             (self, job_id, state),
                             attrs={"bytes": size})

    wal.JobJournal.record_end = journal_record_end


def layer_totals(spans, window):
    """``(spans, self_s, calls, top)`` for ``window=(start, end)``: the
    spans whose top-level ancestor starts inside the window, their self
    time and count per name, and the part of the window that top-level
    spans cover (their union: spans of different threads may overlap).
    """
    by_id = {span["id"]: span for span in spans}

    def root(span):
        while span["parent"] is not None and span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    lo, hi = window
    spans = [s for s in spans if lo <= root(s)["start"] < hi]
    child = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        duration = span["end"] - span["start"]
        self_s[span["name"]] += duration - child[span["id"]]
        calls[span["name"]] += 1
    top, reach = 0.0, lo
    for start, end in sorted((s["start"], s["end"]) for s in spans
                             if s["parent"] is None):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            top += end - start
            reach = end
    return spans, self_s, calls, top
