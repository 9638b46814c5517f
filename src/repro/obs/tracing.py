"""Trace spans for the distributed stack, persisted as JSONL.

A *trace id* is minted where work enters the system — ``POST
/v1/jobs`` or ``repro sweep --trace`` — and rides along through the
JobQueue, :meth:`BatchEngine.run_specs_iter`, RemoteExecutor chunk
dispatch, and the worker TCP protocol (an optional, version-tolerant
``trace`` wire field).  Each layer appends *span* records —
``queue`` / ``dispatch`` / ``chunk`` / ``run`` / ``store`` phases with
durations, outcome, and engine tier — to JSONL segments under
``REPRO_CACHE_DIR/telemetry/``.

Writes use the result store's append discipline: one ``os.write`` per
record to an ``O_APPEND`` descriptor, one segment per writer
(``spans-<host>-<pid>-<token>.jsonl``), so concurrent workers never
interleave partial lines.  Reads go through the store's line reader,
so a line still being written, torn by a crash or holding a byte that
is not UTF-8 is skipped on its own.

In-process propagation is a thread-local (:func:`trace_context` /
:func:`current_trace`); cross-process propagation is explicit via the
wire field.  ``REPRO_TELEMETRY=0`` disables span recording entirely.

Span record schema (one JSON object per line)::

    {"trace": "...", "span": "...", "parent": "..." | null,
     "phase": "queue|dispatch|chunk|run|store", "name": "...",
     "host": "...", "pid": 123, "start": <epoch s>, "dur": <s>,
     "outcome": "ok|error|...", "attrs": {...}}
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid

__all__ = [
    "SpanLog",
    "current_trace",
    "new_trace_id",
    "read_spans",
    "record_span",
    "telemetry_dir",
    "telemetry_enabled",
    "telemetry_stats",
    "trace_context",
]

SPAN_PHASES = ("queue", "dispatch", "chunk", "run", "store")

_local = threading.local()
_logs_lock = threading.Lock()
_logs = {}


def new_trace_id():
    """Mint a fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id():
    """Mint a fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


def current_trace():
    """The thread's active trace id, or ``None`` outside any trace."""
    return getattr(_local, "trace", None)


class trace_context:
    """Context manager binding a trace id to the current thread.

    ``with trace_context(trace_id): ...`` makes :func:`current_trace`
    return ``trace_id`` inside the block (restoring the previous value
    on exit).  A ``None`` id is a no-op passthrough so call sites can
    wrap unconditionally.
    """

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self._prev = None

    def __enter__(self):
        """Bind the trace id; returns it for convenience."""
        self._prev = getattr(_local, "trace", None)
        if self.trace_id is not None:
            _local.trace = self.trace_id
        return self.trace_id

    def __exit__(self, *exc):
        """Restore the previously bound trace id."""
        _local.trace = self._prev
        return False


def telemetry_enabled():
    """Whether span recording is on (``REPRO_TELEMETRY`` != 0/false/off)."""
    value = os.environ.get("REPRO_TELEMETRY", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


def telemetry_dir(directory=None):
    """The telemetry directory: ``<cache-dir>/telemetry``.

    ``directory`` overrides the base cache dir (tests point it at a
    tmpdir).  Imported lazily from the store module to keep
    ``repro.obs`` importable from anywhere in the engine without
    cycles.
    """
    if directory is None:
        from repro.engine.store import default_cache_dir
        directory = default_cache_dir()
    return os.path.join(str(directory), "telemetry")


class SpanLog:
    """Append-only JSONL span writer, one whole line per write.

    One segment per writer process (``spans-<host>-<pid>-<tok>.jsonl``)
    opened ``O_APPEND``; each span is serialised to one line and
    written with a single ``os.write``, so concurrent writers sharing
    a directory never interleave partial records.  I/O failures flip a
    best-effort ``broken`` flag and spans are dropped silently —
    telemetry must never take down the run it observes.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        self.broken = False
        self._fd = None
        self._lock = threading.Lock()
        self._host = socket.gethostname().split(".")[0]
        self._path = os.path.join(
            self.directory,
            "spans-%s-%d-%s.jsonl"
            % (self._host, os.getpid(), uuid.uuid4().hex[:6]))

    def _ensure_fd(self):
        if self._fd is None:
            os.makedirs(self.directory, exist_ok=True)
            self._fd = os.open(
                self._path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        return self._fd

    def append(self, record):
        """Append one span record; silently drops on I/O failure."""
        if self.broken:
            return
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        try:
            with self._lock:
                os.write(self._ensure_fd(), data)
        except OSError:
            self.broken = True

    def close(self):
        """Close the segment descriptor (reopened lazily if reused)."""
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


def _log_for(directory):
    with _logs_lock:
        log = _logs.get(directory)
        if log is None:
            log = _logs[directory] = SpanLog(directory)
        return log


def record_span(phase, name, start, duration, trace=None, parent=None,
                outcome="ok", attrs=None, directory=None):
    """Record one span to the telemetry directory.

    ``trace`` defaults to the thread's :func:`current_trace`; if both
    are ``None`` (or telemetry is disabled) the span is dropped — an
    untraced run writes nothing.  Returns the span id, or ``None``
    when dropped.  Span logs are cached per resolved directory so
    tests that repoint ``REPRO_CACHE_DIR`` get fresh segments.
    """
    if not telemetry_enabled():
        return None
    trace = trace if trace is not None else current_trace()
    if trace is None:
        return None
    span_id = new_span_id()
    record = {
        "trace": str(trace),
        "span": span_id,
        "parent": parent,
        "phase": str(phase),
        "name": str(name),
        "host": socket.gethostname().split(".")[0],
        "pid": os.getpid(),
        "start": round(float(start), 6),
        "dur": round(float(duration), 6),
        "outcome": str(outcome),
        "attrs": dict(attrs or {}),
    }
    _log_for(telemetry_dir(directory)).append(record)
    return span_id


def _parse_span(line):
    """One span line as a dict; raises on a malformed line."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise TypeError("a span record is a JSON object")
    return record


def _span_segments(directory):
    """The bytes of every readable span segment, in name order."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    segments = []
    for fname in names:
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            try:
                with open(os.path.join(directory, fname), "rb") as fh:
                    segments.append(fh.read())
            except OSError:
                continue
    return segments


def read_spans(directory=None, trace=None):
    """Read span records from every segment in the telemetry dir.

    Corrupt or torn lines are skipped (count them via
    :func:`telemetry_stats`); ``trace`` filters to one trace id.
    Records are returned sorted by start time.
    """
    from repro.engine.store import parse_lines

    spans = [record
             for data in _span_segments(telemetry_dir(directory))
             for _, _, _, record, error in parse_lines(data, _parse_span)
             if error is None
             and (trace is None or record.get("trace") == trace)]
    spans.sort(key=lambda r: (r.get("start", 0), r.get("span", "")))
    return spans


def telemetry_stats(directory=None):
    """On-disk footprint of the telemetry directory.

    Returns ``{"directory", "segments", "bytes", "spans", "corrupt"}``
    — the shape ``repro cache stats`` folds into its report.
    """
    from repro.engine.store import parse_lines

    directory = telemetry_dir(directory)
    stats = {"directory": directory, "segments": 0, "bytes": 0,
             "spans": 0, "corrupt": 0}
    for data in _span_segments(directory):
        stats["segments"] += 1
        stats["bytes"] += len(data)
        for *_, error in parse_lines(data, _parse_span):
            stats["spans" if error is None else "corrupt"] += 1
    return stats
