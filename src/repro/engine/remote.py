"""Distributed execution: worker daemons and the remote executor.

This module is the cluster seam of the batch engine.  It has two
halves that speak a one-line-JSON-per-connection TCP protocol:

* :class:`WorkerServer` — the daemon behind ``repro worker --serve``.
  It accepts serialized :class:`~repro.engine.spec.RunSpec` batches,
  simulates them (optionally through a local worker pool and a local
  :class:`~repro.engine.store.ResultStore`), and streams the serialized
  :class:`~repro.uarch.stats.SimResult`\\ s back.  Workers sharing a
  cache directory each append to their own store segment, so any number
  of daemons can serve the same grid concurrently.
* :class:`RemoteExecutor` — the coordinator.  It fans a spec grid out
  across registered workers in chunks, so large grids stream instead of
  blocking on one giant request, with per-task **retry** (a failed
  chunk is re-dispatched to another worker, with
  :class:`~repro.engine.resilience.RetryPolicy` backoff), **heartbeat**
  probing plus a per-worker **circuit breaker** (failing workers are
  quarantined and later probed back in), **straggler re-dispatch**
  (idle workers duplicate the oldest still-running chunk; the first
  finisher wins), and **graceful degradation** (a lost cluster falls
  back to local execution instead of failing the run — see
  ``on_cluster_loss``).  Both halves carry deterministic
  fault-injection hooks (:mod:`repro.engine.faults`) so all of this is
  exercised by seeded chaos tests.

Wire protocol (one JSON object per line, one request per connection)::

    -> {"op": "ping", "token": "<shared secret, when auth is on>"}
    <- {"ok": true, "version": "<code hash>", "pid": 123, "served": 42}
    -> {"op": "run_batch", "specs": [<RunSpec.to_dict()>, ...],
        "trace": "<optional trace id>"}
    <- {"ok": true, "results": [<SimResult.to_dict()>, ...],
        "version": "<code hash>"}
    -> {"op": "shutdown"}
    <- {"ok": true}

The ``trace`` field is optional and version-tolerant in both
directions: old coordinators omit it, old workers ignore it.  When
present the worker records its batch spans (:mod:`repro.obs.tracing`)
under that trace id, so a sweep's trace crosses the process boundary.

**Authentication**: when the ``REPRO_TOKEN`` environment variable is
set (or a ``token`` is passed explicitly), every request must carry the
matching shared secret or the worker refuses it with an
``unauthorized`` error — compared in constant time, so a cluster can
run on a non-trusted network.  Coordinator and workers read the same
variable, so ``REPRO_TOKEN=s3cret repro worker --serve`` pairs with
``REPRO_TOKEN=s3cret repro sweep --workers ...`` with no extra flags.

Every run is fully seeded and the worker executes the same
:func:`~repro.engine.executors.execute_spec` work unit as the local
executors, so remote results are bit-identical to serial ones.  The
coordinator refuses workers whose ``version`` fingerprint differs from
its own: results are keyed by code version, and silently mixing
simulator builds would poison the store.

Select the backend with ``--executor remote --workers host1,host2:port``
(or ``REPRO_EXECUTOR=remote`` + ``REPRO_WORKERS=...``) on any
simulating CLI command; the default port is :data:`DEFAULT_PORT`.
"""

from __future__ import annotations

import hmac
import json
import os
import pathlib
import queue
import socket
import socketserver
import threading
import time

from repro.engine.faults import fault, fault_delay
from repro.engine.resilience import CircuitBreaker, RetryPolicy
from repro.engine.spec import RunSpec
from repro.engine.version import code_version
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.uarch.stats import SimResult

_REGISTRY = _metrics.get_registry()
_CHUNK_SECONDS = _REGISTRY.histogram(
    "repro_remote_chunk_seconds",
    "Round-trip latency of remote chunk dispatches, per worker.",
    labelnames=("worker",))
_CHUNKS = _REGISTRY.counter(
    "repro_remote_chunks_total",
    "Remote chunk dispatches, per worker and outcome.",
    labelnames=("worker", "outcome"))
_RETRIES = _REGISTRY.counter(
    "repro_remote_retries_total",
    "Chunk re-queues after a failed dispatch, per worker.",
    labelnames=("worker",))
_BREAKER_OPENS = _REGISTRY.counter(
    "repro_remote_breaker_opens_total",
    "Circuit-breaker open transitions, per worker.",
    labelnames=("worker",))
_WORKER_SPECS = _REGISTRY.counter(
    "repro_worker_specs_total",
    "Specs served by this worker daemon, by source (cache/executed).",
    labelnames=("source",))
_WORKER_BATCHES = _REGISTRY.counter(
    "repro_worker_batches_total",
    "run_batch requests served by this worker daemon.")

#: Default TCP port for ``repro worker --serve`` (``REPRO_WORKER_PORT``).
DEFAULT_PORT = 8642

#: Hard cap on one request line (a grid chunk of serialized specs).
_MAX_LINE = 64 * 1024 * 1024

#: What to do when every worker is dead or quarantined mid-run
#: (``--on-cluster-loss`` / ``REPRO_ON_CLUSTER_LOSS``).
CLUSTER_LOSS_MODES = ("fallback", "fail")


class WorkerProtocolError(RuntimeError):
    """A worker answered, but wrongly: an ``ok: false`` reply, a
    non-JSON reply, or a response the coordinator must refuse (e.g. a
    mid-run code-version drift).

    Distinguished from transport errors (``ConnectionError``/``OSError``
    — the worker never answered) because the retry calculus differs:
    a transport error is worth retrying on the same worker, a protocol
    error is not — the same request will fail the same way, so the
    coordinator re-queues the chunk for *other* workers only.
    """

    def __init__(self, message, kind=None):
        super().__init__(message)
        self.kind = kind


def default_port():
    """The worker port: ``REPRO_WORKER_PORT`` or :data:`DEFAULT_PORT`."""
    env = os.environ.get("REPRO_WORKER_PORT")
    if env:
        return int(env)
    return DEFAULT_PORT


def _env_number(name, fallback, convert=float):
    """An optional numeric environment override (ignored when unset)."""
    env = os.environ.get(name)
    if env:
        try:
            return convert(env)
        except ValueError:
            raise ValueError(f"invalid {name}={env!r}: expected a number")
    return fallback


def service_token():
    """The cluster/service shared secret: ``REPRO_TOKEN``, or ``None``.

    ``None`` (unset or empty) means authentication is off — the
    pre-auth trusted-network behavior.  The same token protects the
    worker TCP protocol and the HTTP gateway
    (:mod:`repro.service`).
    """
    return os.environ.get("REPRO_TOKEN") or None


def token_matches(expected, presented):
    """Constant-time shared-secret check.

    ``expected is None`` means auth is off — everything passes.  A
    non-string ``presented`` (absent, or a JSON non-string) never
    matches.
    """
    if expected is None:
        return True
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(expected, presented)


def parse_workers(spec):
    """Parse a worker list: ``"host1,host2:7000"`` → ``[(host, port)]``.

    Accepts a comma-separated string or an iterable of ``host[:port]``
    strings / ``(host, port)`` pairs; the port defaults to
    :func:`default_port`.
    """
    if spec is None:
        return []
    if isinstance(spec, str):
        items = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        items = list(spec)
    workers = []
    for item in items:
        if isinstance(item, (tuple, list)):
            host, port = item
            workers.append((str(host), int(port)))
            continue
        host, _, port = str(item).partition(":")
        if not host:
            raise ValueError(f"empty worker host in {spec!r}")
        workers.append((host, int(port) if port else default_port()))
    return workers


def _request(address, payload, timeout, token=None):
    """One protocol round trip: connect, send a line, read a line.

    ``token`` (default: :func:`service_token`) is attached to the
    request when set, satisfying authenticated workers.
    """
    token = service_token() if token is None else token
    if token is not None:
        payload = dict(payload, token=token)
    if fault("remote.connect"):
        raise ConnectionError(f"injected fault: connect to "
                              f"{address[0]}:{address[1]} refused")
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as fh:
            line = fh.readline(_MAX_LINE)
    if not line:
        raise ConnectionError(f"worker {address[0]}:{address[1]} closed "
                              "the connection without replying")
    try:
        response = json.loads(line.decode("utf-8"))
    except ValueError:
        raise WorkerProtocolError(
            f"worker {address[0]}:{address[1]} sent a garbage reply "
            f"({line[:40]!r}...)") from None
    if not isinstance(response, dict):
        raise WorkerProtocolError(f"worker {address[0]}:{address[1]} sent "
                                  f"a non-object reply: {response!r}")
    if not response.get("ok"):
        raise WorkerProtocolError(
            f"worker {address[0]}:{address[1]} error: "
            f"{response.get('error', 'unknown')}",
            kind=response.get("kind"))
    return response


def ping_worker(address, timeout=5.0, token=None):
    """Probe one worker; returns its status dict or raises."""
    return _request(address, {"op": "ping"}, timeout, token=token)


def shutdown_worker(address, timeout=5.0, token=None):
    """Ask one worker daemon to exit; returns its final status dict."""
    return _request(address, {"op": "shutdown"}, timeout, token=token)


# -- worker descriptors ---------------------------------------------------
#
# ``repro worker --serve`` leaves a machine-readable record of its
# listen address under the cache directory, so operators (and ``repro
# cluster status`` with no --workers) can discover a machine's daemons
# without scraping stdout.

def worker_descriptor_path(pid=None, directory=None):
    """Where this host × pid's worker descriptor lives.

    ``worker-<host>-<pid>.json`` under ``directory`` (default:
    ``REPRO_CACHE_DIR``) — daemons sharing a cache directory each get
    their own file, exactly like store segments.
    """
    from repro.engine.store import default_cache_dir

    host = socket.gethostname().split(".")[0][:24] or "host"
    pid = os.getpid() if pid is None else pid
    return (pathlib.Path(directory or default_cache_dir())
            / f"worker-{host}-{pid}.json")


def write_worker_descriptor(address, directory=None, **fields):
    """Record a serving worker's address; returns the path (or ``None``).

    ``address`` is the daemon's bound ``(host, port)``; a wildcard bind
    (``0.0.0.0`` / ``::``) is advertised as the machine's hostname so
    the recorded address is connectable from elsewhere.  Extra keyword
    fields are stored verbatim.  Best-effort: an unwritable cache
    directory returns ``None`` instead of failing the daemon.
    """
    host, port = address
    if host in ("", "0.0.0.0", "::"):
        host = socket.gethostname()
    record = {"host": str(host), "port": int(port), "pid": os.getpid(),
              "version": code_version(), "started": time.time(),
              "auth": service_token() is not None}
    record.update(fields)
    path = worker_descriptor_path(directory=directory)
    tmp = path.with_suffix(".json.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(record, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        return None
    return path


def remove_worker_descriptor(path):
    """Delete a descriptor written by :func:`write_worker_descriptor`."""
    if path is None:
        return
    try:
        pathlib.Path(path).unlink()
    except OSError:
        pass  # already gone, or the directory became unreadable


def read_worker_descriptors(directory=None):
    """Every ``worker-*.json`` descriptor in a cache directory.

    Returns ``(path, record)`` pairs in name order; corrupt or
    unreadable files are skipped.  Liveness is NOT checked — a crashed
    daemon leaves its descriptor behind; ``repro cluster status`` pings
    each recorded address and reports the dead ones.
    """
    from repro.engine.store import default_cache_dir

    directory = pathlib.Path(directory or default_cache_dir())
    descriptors = []
    try:
        paths = sorted(directory.glob("worker-*.json"))
    except OSError:
        return []
    for path in paths:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            descriptors.append((path, {"host": str(record["host"]),
                                       "port": int(record["port"]),
                                       **{k: v for k, v in record.items()
                                          if k not in ("host", "port")}}))
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return descriptors


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One connection = one JSON request line = one JSON response line.

    Malformed, oversized, unauthorized and unknown-op requests all get a
    structured one-line JSON error with ``"kind": "protocol"`` instead
    of a silently dropped connection, so the coordinator can tell
    "this request is hopeless" (re-queue for other workers) apart from
    "this worker is unreachable" (retry here later).
    """

    def handle(self):
        server = self.server
        op = None
        max_line = getattr(server, "max_line", _MAX_LINE)
        try:
            line = self.rfile.readline(max_line + 1)
            if not line:
                return  # peer connected and said nothing
            if len(line) > max_line:
                response = {"ok": False, "kind": "protocol",
                            "error": f"request line exceeds the "
                                     f"{max_line} byte cap"}
                self._reply(response)
                return
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request is not a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                self._reply({"ok": False, "kind": "protocol",
                             "error": f"malformed request: {exc}"})
                return
            op = request.get("op")
            if not token_matches(server.token, request.get("token")):
                # Refused before any op dispatch: an unauthenticated
                # peer can neither run work nor shut the daemon down.
                response = {"ok": False, "kind": "protocol",
                            "error": "unauthorized: this worker requires "
                                     "the shared REPRO_TOKEN"}
            elif op == "ping":
                response = server.status()
            elif op == "run_batch":
                if fault("worker.exit"):
                    os._exit(1)  # a true mid-chunk kill of the daemon
                try:
                    response = server.run_batch(
                        request.get("specs") or [],
                        trace=request.get("trace"))
                except (ValueError, KeyError, TypeError) as exc:
                    # Undeserializable specs: hopeless to retry anywhere.
                    response = {"ok": False, "kind": "protocol",
                                "error": f"bad batch: "
                                         f"{type(exc).__name__}: {exc}"}
            elif op == "shutdown":
                response = server.status()
            else:
                response = {"ok": False, "kind": "protocol",
                            "error": f"unknown op {op!r}"}
        except Exception as exc:  # never kill the daemon on a bad request
            response = {"ok": False,
                        "error": f"{type(exc).__name__}: {exc}"}
        if op == "run_batch":
            # Chunk-level chaos sites (never triggered by pings, so a
            # probe can still tell a live worker from a dead one).
            if fault("worker.crash_before_reply"):
                return  # work done, connection dropped, reply lost
            if fault("worker.garbage_reply"):
                try:
                    self.wfile.write(b"!!! injected garbage !!!\n")
                except OSError:
                    pass
                return
            if fault("worker.slow_reply"):
                time.sleep(fault_delay("worker.slow_reply", 1.0))
        self._reply(response)
        if op == "shutdown" and response.get("ok"):
            # Only after the reply is written: once serve_forever()
            # returns, the daemon may exit and take this thread with
            # it.  shutdown() blocks until then, so it runs outside
            # this handler thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

    def _reply(self, response):
        try:
            self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
        except OSError:
            pass  # client went away; nothing to tell it


class WorkerServer(socketserver.ThreadingTCPServer):
    """The ``repro worker --serve`` daemon.

    Listens on ``host:port`` (port ``0`` picks an ephemeral port —
    handy for tests; read it back from :attr:`address`), executes
    incoming spec batches with ``executor`` (default: serial,
    in-process), and optionally consults/feeds a local ``store`` so
    repeated grids are served from cache.  Thread-per-connection, so
    several coordinators (or chunks) can be in flight at once.

    When ``token`` (default: the ``REPRO_TOKEN`` environment variable)
    is set, every request must present the matching shared secret; the
    worker refuses the rest, so it can listen on a non-trusted network.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host="127.0.0.1", port=0, store=None, executor=None,
                 token=None, max_line=_MAX_LINE):
        super().__init__((host, port), _WorkerHandler)
        from repro.engine.executors import SerialExecutor

        self.store = store
        self.executor = executor or SerialExecutor()
        self.max_line = max_line
        self.token = service_token() if token is None else (token or None)
        self.version = code_version()
        self.served = 0  # specs executed or served from cache
        self._lock = threading.Lock()

    @property
    def address(self):
        """The bound ``(host, port)`` — resolves an ephemeral port."""
        return self.server_address[:2]

    def status(self):
        """The ping/shutdown response body."""
        return {"ok": True, "version": self.version, "pid": os.getpid(),
                "served": self.served, "auth": self.token is not None}

    def run_batch(self, spec_dicts, trace=None):
        """Execute one serialized chunk; returns the response body.

        ``trace`` is the coordinator's optional trace id from the wire
        (``None`` from pre-trace coordinators): batch and store spans
        are recorded under it so the sweep's trace crosses into this
        daemon's process.
        """
        started = time.time()
        specs = [RunSpec.from_dict(d) for d in spec_dicts]
        results = [None] * len(specs)
        misses = []  # (position, spec)
        for pos, spec in enumerate(specs):
            stored = self.store.get(spec.key()) if self.store else None
            if stored is not None:
                results[pos] = stored
            else:
                misses.append((pos, spec))
        if misses:
            executed = self.executor.run([spec for _, spec in misses])
            store_started = time.time()
            for (pos, spec), result in zip(misses, executed):
                results[pos] = result
                if self.store is not None:
                    self.store.put(spec.key(), result)
            if self.store is not None and trace is not None:
                _tracing.record_span(
                    "store", "worker.store-put", store_started,
                    time.time() - store_started, trace=trace,
                    attrs={"records": len(misses)})
        with self._lock:
            self.served += len(specs)
        _WORKER_BATCHES.inc()
        if len(specs) > len(misses):
            _WORKER_SPECS.inc(len(specs) - len(misses), source="cache")
        if misses:
            _WORKER_SPECS.inc(len(misses), source="executed")
        if trace is not None:
            _tracing.record_span(
                "run", "worker.run-batch", started,
                time.time() - started, trace=trace,
                attrs={"specs": len(specs),
                       "cache_hits": len(specs) - len(misses),
                       "executed": len(misses)})
        return {"ok": True, "version": self.version,
                "results": [r.to_dict() for r in results]}

    def serve_in_thread(self):
        """Start serving on a daemon thread (tests / embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class _Task:
    """One dispatch unit: a contiguous chunk of the spec grid."""

    __slots__ = ("task_id", "indices", "specs", "attempts", "done",
                 "started_at", "in_flight", "refused_by")

    def __init__(self, task_id, indices, specs):
        self.task_id = task_id
        self.indices = indices
        self.specs = specs
        self.attempts = 0
        self.done = False
        self.started_at = None
        self.in_flight = 0
        self.refused_by = set()  # worker keys that protocol-failed it


class RemoteExecutor:
    """Fans spec grids out across ``repro worker`` daemons.

    Plugs into :class:`~repro.engine.core.BatchEngine` exactly like the
    local executors: ``run(specs, progress)`` returns results in spec
    order.  The grid is split into chunks of ``chunk_size`` specs
    (default: enough chunks for every worker to get several, so
    progress streams and load balances); each worker runs a coordinator
    thread that pulls chunks from a shared queue.

    Fault handling:

    * **heartbeat** — every worker is pinged before the run and, while
      idle, every ``heartbeat_interval`` seconds; unreachable or
      version-mismatched workers are dropped (including mid-run drift:
      every batch response's version is re-checked).
    * **retry** — a chunk whose dispatch fails is re-queued and picked
      up by another worker, up to ``max_task_attempts`` tries, with
      :class:`~repro.engine.resilience.RetryPolicy` exponential backoff
      (full jitter) between a worker's consecutive failures.  Protocol
      errors (:class:`WorkerProtocolError` — the worker answered, but
      refused or mangled the request) are never retried on the same
      worker: the chunk is re-queued for the others.
    * **circuit breaker** — a worker accumulating
      ``max_worker_failures`` consecutive failures is quarantined
      (:class:`~repro.engine.resilience.CircuitBreaker`), then probed
      once per ``quarantine_cooldown`` seconds and readmitted when a
      ping succeeds, instead of being abandoned for the whole run.
    * **straggler re-dispatch** — once the queue drains, idle workers
      duplicate the oldest chunk still in flight for more than
      ``straggler_after`` seconds; whichever copy finishes first wins
      (results are deterministic, so both copies agree).
    * **graceful degradation** — when no worker is reachable, or every
      worker ends up dead/quarantined with work remaining, the run
      **falls back to a local executor** for the missing specs instead
      of raising (``on_cluster_loss="fallback"``, the default; pass
      ``"fail"`` — or ``--on-cluster-loss fail`` /
      ``REPRO_ON_CLUSTER_LOSS=fail`` — to get the old hard
      :class:`RuntimeError`).  A degraded run is loudly reported in
      :attr:`last_run_report` under ``"degraded"``.

    The fault-handling knobs are configurable per invocation or per
    environment: ``heartbeat_interval`` (``REPRO_HEARTBEAT`` /
    ``--heartbeat``, seconds), ``max_task_attempts`` (``REPRO_RETRIES``
    / ``--retries``, tries per chunk), ``connect_timeout``
    (``REPRO_CONNECT_TIMEOUT`` / ``--connect-timeout``, seconds), and
    ``quarantine_cooldown`` (``REPRO_QUARANTINE``, seconds).
    ``token`` (default ``REPRO_TOKEN``) authenticates every request to
    token-protected workers.
    """

    def __init__(self, workers, chunk_size=None, connect_timeout=None,
                 run_timeout=900.0, max_task_attempts=None,
                 max_worker_failures=3, straggler_after=30.0,
                 heartbeat_interval=None, token=None, retry_policy=None,
                 breaker=None, quarantine_cooldown=None,
                 on_cluster_loss=None, fallback_executor=None):
        self.workers = parse_workers(workers)
        if not self.workers:
            raise ValueError(
                "RemoteExecutor needs at least one worker address "
                "(--workers host[:port],... or REPRO_WORKERS)")
        self.chunk_size = chunk_size
        # The fault-handling knobs fall back to environment overrides
        # (--connect-timeout / --retries / --heartbeat on the CLI), so
        # a slow or flaky network is tuned once, not per call site.
        self.connect_timeout = (connect_timeout if connect_timeout is not None
                                else _env_number("REPRO_CONNECT_TIMEOUT", 5.0))
        self.run_timeout = run_timeout
        self.max_task_attempts = max(1, (
            max_task_attempts if max_task_attempts is not None
            else _env_number("REPRO_RETRIES", 3, convert=int)))
        self.max_worker_failures = max_worker_failures
        self.straggler_after = straggler_after
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else _env_number("REPRO_HEARTBEAT", 5.0))
        self.quarantine_cooldown = (
            quarantine_cooldown if quarantine_cooldown is not None
            else _env_number("REPRO_QUARANTINE", 30.0))
        self.retry_policy = retry_policy or RetryPolicy(
            attempts=self.max_task_attempts,
            timeout=self.connect_timeout)
        self.breaker = breaker or CircuitBreaker(
            threshold=self.max_worker_failures,
            cooldown=self.quarantine_cooldown,
            on_open=lambda key: _BREAKER_OPENS.inc(worker=key))
        if on_cluster_loss is None:
            on_cluster_loss = (os.environ.get("REPRO_ON_CLUSTER_LOSS")
                               or "fallback")
        if on_cluster_loss not in CLUSTER_LOSS_MODES:
            raise ValueError(
                f"on_cluster_loss must be one of {CLUSTER_LOSS_MODES}, "
                f"not {on_cluster_loss!r}")
        self.on_cluster_loss = on_cluster_loss
        self.fallback_executor = fallback_executor
        self.token = service_token() if token is None else (token or None)
        self.version = code_version()
        #: Worker count, for the CLI's "N job(s)" accounting line.
        self.jobs = len(self.workers)
        self.last_run_report = {}

    # -- cluster probing ---------------------------------------------

    def probe(self):
        """Ping every registered worker.

        Returns ``(alive, rejected)``: reachable same-version workers,
        and ``(address, reason)`` pairs for the rest.
        """
        alive, rejected = [], []
        for address in self.workers:
            try:
                status = ping_worker(address, timeout=self.connect_timeout,
                                     token=self.token)
            except (OSError, ValueError, RuntimeError) as exc:
                rejected.append((address, f"unreachable: {exc}"))
                continue
            if status.get("version") != self.version:
                rejected.append((address,
                                 f"code version {status.get('version')!r} "
                                 f"!= local {self.version!r}"))
                continue
            alive.append(address)
        return alive, rejected

    # -- the run -----------------------------------------------------

    def _chunk(self, count, workers):
        if self.chunk_size:
            return max(1, int(self.chunk_size))
        # Aim for ~4 chunks per worker so the queue streams and slow
        # chunks don't serialize the tail, without per-spec round trips.
        return max(1, -(-count // (4 * workers)))

    def run(self, specs, progress=None):
        """Execute every spec on the cluster; results in spec order."""
        specs = list(specs)
        results = [None] * len(specs)
        for index, result in self.run_iter(specs, progress=progress):
            results[index] = result
        return results

    def _make_fallback(self):
        """The local executor a degraded run falls back to."""
        if self.fallback_executor is not None:
            return self.fallback_executor
        from repro.engine.executors import SerialExecutor

        return SerialExecutor()

    def _degrade(self, specs, missing, reason, progress, done_base):
        """Run the cluster-undeliverable specs locally and yield them.

        Work units are fully seeded, so the local results are
        bit-identical to what the lost workers would have produced; the
        degradation is recorded in :attr:`last_run_report` so nobody
        mistakes a limping run for a healthy cluster.
        """
        fallback = self._make_fallback()
        self.last_run_report["degraded"] = {
            "reason": reason,
            "fallback": type(fallback).__name__,
            "points": len(missing),
        }
        done = done_base
        sub = [specs[i] for i in missing]
        for j, result in fallback.run_iter(sub):
            done += 1
            yield missing[j], result
            if progress:
                progress(done, len(specs), sub[j])

    def run_iter(self, specs, progress=None):
        """Yield ``(index, result)`` pairs as chunks finish on workers.

        The streaming face of the cluster backend: every result is
        yielded the moment its chunk's response arrives, so a consumer
        (``BatchEngine.run_specs_iter``, the service gateway) forwards
        grid points while the rest of the grid is still in flight.
        Closing the generator early aborts the run: queued chunks stop
        dispatching and the coordinator threads wind down.
        """
        specs = list(specs)
        if not specs:
            return
        # Captured here, in the caller's thread: worker_loop threads
        # have their own (empty) thread-local, so the ambient trace id
        # must travel by closure to reach the wire.
        run_trace = _tracing.current_trace()
        alive, rejected = self.probe()
        if not alive:
            detail = "; ".join(f"{h}:{p} ({why})"
                               for (h, p), why in rejected)
            if self.on_cluster_loss == "fail":
                raise RuntimeError(f"no usable remote workers: {detail}")
            self.last_run_report = {
                "workers": [], "rejected": [f"{h}:{p}: {why}"
                                            for (h, p), why in rejected],
                "chunk_size": 0, "tasks": 0, "dispatched": 0,
                "retries": 0, "straggler_redispatches": 0, "errors": [],
                "quarantined": self.breaker.quarantined(),
                "worker_latency": {},
            }
            yield from self._degrade(
                specs, list(range(len(specs))),
                f"no usable remote workers: {detail}", progress, 0)
            return
        for host, port in alive:
            # A fresh successful probe overrides any quarantine left
            # over from a previous run on this executor.
            self.breaker.record_success(f"{host}:{port}")
        self.jobs = len(alive)

        chunk = self._chunk(len(specs), len(alive))
        tasks = [
            _Task(task_id, list(range(start, min(start + chunk, len(specs)))),
                  specs[start:min(start + chunk, len(specs))])
            for task_id, start in enumerate(range(0, len(specs), chunk))
        ]
        todo = queue.Queue()
        for task in tasks:
            todo.put(task)

        out = queue.Queue()  # finished (index, SimResult) pairs
        state = {
            "done": 0, "dispatched": 0, "retries": 0, "stolen": 0,
            "errors": [],  # (address, task_id, message)
        }
        lock = threading.Lock()
        all_done = threading.Event()

        def finish(task, batch):
            with lock:
                if task.done:
                    return
                task.done = True
                for index, rdict in zip(task.indices, batch):
                    out.put((index, SimResult.from_dict(rdict)))
                state["done"] += len(task.indices)
                done_now = state["done"]
                if done_now == len(specs):
                    all_done.set()
            if progress:
                progress(done_now, len(specs), task.specs[-1])

        def next_task(key):
            """A queued task, or a straggler to duplicate, or None.

            Tasks this worker already protocol-failed are left on the
            queue for the others.
            """
            skipped, picked = [], None
            while picked is None:
                try:
                    cand = todo.get_nowait()
                except queue.Empty:
                    break
                if cand.done:
                    continue
                if key in cand.refused_by:
                    skipped.append(cand)
                    continue
                picked = cand
            for cand in skipped:
                todo.put(cand)
            if picked is not None:
                return picked
            with lock:
                now = time.monotonic()
                candidates = [
                    t for t in tasks
                    if not t.done and t.in_flight > 0
                    and key not in t.refused_by
                    and t.started_at is not None
                    and now - t.started_at >= self.straggler_after
                ]
                if not candidates:
                    return None
                task = min(candidates, key=lambda t: t.started_at)
                state["stolen"] += 1
                return task

        def ping_once(address):
            if fault("remote.heartbeat"):
                raise ConnectionError(
                    f"injected fault: heartbeat to "
                    f"{address[0]}:{address[1]} dropped")
            ping_worker(address, timeout=self.connect_timeout,
                        token=self.token)

        def worker_loop(address):
            key = f"{address[0]}:{address[1]}"
            consecutive = 0
            last_ping = time.monotonic()
            while not all_done.is_set():
                if not self.breaker.allows(key):
                    # Quarantined: sit out the cooldown instead of
                    # hammering a dead daemon.
                    if all_done.wait(timeout=0.25):
                        return
                    continue
                if self.breaker.state(key) == CircuitBreaker.HALF_OPEN:
                    # Cooldown expired; one probe decides readmission.
                    try:
                        ping_once(address)
                        self.breaker.record_success(key)
                        consecutive = 0
                    except (OSError, ValueError, RuntimeError):
                        self.breaker.record_failure(key)
                    continue
                task = next_task(key)
                if task is None:
                    if all_done.wait(timeout=0.25):
                        return
                    # Idle heartbeat (rate-limited — no point hammering
                    # the daemon with connects while a straggler runs).
                    now = time.monotonic()
                    if now - last_ping < self.heartbeat_interval:
                        continue
                    last_ping = now
                    try:
                        ping_once(address)
                        consecutive = 0
                    except (OSError, ValueError, RuntimeError):
                        # Counts toward quarantine instead of abandoning
                        # the worker for the rest of the run.
                        self.breaker.record_failure(key)
                        consecutive += 1
                    continue
                with lock:
                    if task.done:
                        continue
                    task.attempts += 1
                    task.in_flight += 1
                    if task.started_at is None:
                        task.started_at = time.monotonic()
                    state["dispatched"] += 1
                chunk_started = time.time()
                try:
                    payload = {"op": "run_batch",
                               "specs": [s.to_dict()
                                         for s in task.specs]}
                    if run_trace is not None:
                        payload["trace"] = run_trace
                    response = _request(
                        address, payload,
                        timeout=self.run_timeout, token=self.token)
                    if response.get("version") != self.version:
                        # The daemon was restarted with different code
                        # between the probe and this batch: its results
                        # would poison the store under our version key.
                        raise WorkerProtocolError(
                            f"worker {address[0]}:{address[1]} now runs "
                            f"code version {response.get('version')!r} "
                            f"!= local {self.version!r}")
                    if fault("remote.chunk_reply"):
                        raise ConnectionError(
                            f"injected fault: chunk reply from "
                            f"{key} dropped")
                    finish(task, response["results"])
                    elapsed = time.time() - chunk_started
                    _CHUNK_SECONDS.observe(elapsed, worker=key)
                    _CHUNKS.inc(worker=key, outcome="ok")
                    _tracing.record_span(
                        "chunk", "remote.chunk", chunk_started,
                        elapsed, trace=run_trace,
                        attrs={"worker": key, "task": task.task_id,
                               "specs": len(task.specs)})
                    self.breaker.record_success(key)
                    consecutive = 0
                    last_ping = time.monotonic()
                except (OSError, ValueError, KeyError,
                        RuntimeError) as exc:
                    protocol = isinstance(exc, WorkerProtocolError)
                    elapsed = time.time() - chunk_started
                    _CHUNKS.inc(worker=key, outcome="error")
                    _tracing.record_span(
                        "chunk", "remote.chunk", chunk_started,
                        elapsed, trace=run_trace, outcome="error",
                        attrs={"worker": key, "task": task.task_id,
                               "specs": len(task.specs),
                               "error": f"{type(exc).__name__}: {exc}"})
                    with lock:
                        task.in_flight -= 1
                        state["errors"].append(
                            (address, task.task_id,
                             f"{type(exc).__name__}: {exc}"))
                        if protocol:
                            # The worker answered: re-sending the same
                            # chunk here would fail the same way.
                            task.refused_by.add(key)
                        if not task.done:
                            if task.attempts < self.max_task_attempts:
                                state["retries"] += 1
                                _RETRIES.inc(worker=key)
                                todo.put(task)
                            elif task.in_flight == 0:
                                # Exhausted everywhere: stop dispatching
                                # (degradation may still cover it).
                                all_done.set()
                    self.breaker.record_failure(key)
                    consecutive += 1
                    # Exponential backoff with full jitter before this
                    # worker's next try (interruptible by run end).
                    pause = self.retry_policy.backoff(consecutive - 1)
                    if pause > 0 and all_done.wait(timeout=pause):
                        return
                else:
                    with lock:
                        task.in_flight -= 1

        keys = [f"{h}:{p}" for h, p in alive]

        def no_progress():
            """True when the run can no longer advance on the cluster:
            nothing in flight, and every unfinished task's remaining
            candidates are quarantined or have protocol-refused it."""
            with lock:
                if any(t.in_flight > 0 and not t.done for t in tasks):
                    return False
                remaining = [(t.task_id, set(t.refused_by))
                             for t in tasks if not t.done]
            if not remaining:
                return False
            states = {k: self.breaker.state(k) for k in keys}
            if CircuitBreaker.HALF_OPEN in states.values():
                return False  # a probe may readmit a worker; wait
            # An OPEN worker that has not yet flunked a half-open
            # readmission probe may still come back: wait out its
            # cooldown instead of declaring the cluster lost.
            if any(s == CircuitBreaker.OPEN
                   and not self.breaker.probe_failed(k)
                   for k, s in states.items()):
                return False
            usable = {k for k, s in states.items()
                      if s == CircuitBreaker.CLOSED}
            return all(not (usable - refused)
                       for _, refused in remaining)

        threads = [threading.Thread(
            target=worker_loop, args=(address,), daemon=True,
            name=f"remote-{address[0]}:{address[1]}") for address in alive]
        for thread in threads:
            thread.start()
        # Stream results until completion OR every thread giving up —
        # but never wait for a thread wedged inside a request whose
        # results a straggler re-dispatch already delivered: once
        # all_done is set the run is over, and stuck daemon threads are
        # abandoned after a short grace period (they time out and exit
        # on their own).  The finally arm covers the consumer closing
        # the generator early: it stops dispatch so coordinator threads
        # drain instead of working for nobody.
        served = [False] * len(specs)
        try:
            yielded = 0
            while yielded < len(specs):
                try:
                    index, result = out.get(timeout=0.1)
                except queue.Empty:
                    if all_done.is_set() or not any(t.is_alive()
                                                    for t in threads):
                        while True:  # drain the last finished chunk(s)
                            try:
                                index, result = out.get_nowait()
                            except queue.Empty:
                                break
                            yielded += 1
                            served[index] = True
                            yield index, result
                        break
                    if no_progress():
                        # Stop dispatching; the degradation path below
                        # covers whatever the cluster never delivered.
                        all_done.set()
                    continue
                yielded += 1
                served[index] = True
                yield index, result
        finally:
            all_done.set()
        for thread in threads:
            thread.join(timeout=1.0)

        # Per-worker latency percentiles and failure counts come from
        # the process-wide metrics registry (cumulative across this
        # process's runs), replacing the ad-hoc dict math the dispatch
        # report used to carry.
        worker_latency = {}
        for key in keys:
            p50 = _CHUNK_SECONDS.percentile(50, worker=key)
            p95 = _CHUNK_SECONDS.percentile(95, worker=key)
            worker_latency[key] = {
                "p50": round(p50, 6) if p50 is not None else None,
                "p95": round(p95, 6) if p95 is not None else None,
                "chunks": _CHUNK_SECONDS.count(worker=key),
                "retries": _RETRIES.value(worker=key),
                "breaker_opens": _BREAKER_OPENS.value(worker=key),
            }
        with lock:  # abandoned threads may still touch state
            self.last_run_report = {
                "workers": [f"{h}:{p}" for h, p in alive],
                "rejected": [f"{h}:{p}: {why}"
                             for (h, p), why in rejected],
                "chunk_size": chunk, "tasks": len(tasks),
                "dispatched": state["dispatched"],
                "retries": state["retries"],
                "straggler_redispatches": state["stolen"],
                "errors": [f"{h}:{p} task {t}: {msg}"
                           for (h, p), t, msg in state["errors"]],
                "quarantined": self.breaker.quarantined(),
                "worker_latency": worker_latency,
            }
            completed = state["done"]
        if completed != len(specs):
            missing = [i for i, got in enumerate(served) if not got]
            pending = sorted({t.task_id for t in tasks if not t.done})
            detail = ("; ".join(self.last_run_report["errors"][-5:])
                      or "every worker was lost")
            if self.on_cluster_loss == "fallback" and missing:
                yield from self._degrade(
                    specs, missing,
                    f"chunks {pending} undeliverable on the cluster "
                    f"({detail})", progress, yielded)
                return
            raise RuntimeError(
                f"remote run incomplete: chunks {pending} failed after "
                f"{self.max_task_attempts} attempt(s) each ({detail})")
