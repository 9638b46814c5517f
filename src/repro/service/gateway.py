"""The asyncio HTTP gateway: simulations as a service.

:class:`Gateway` serves the batch engine over HTTP/1.1 — stdlib only,
one asyncio event loop, no framework.  The API (all JSON; auth per
:mod:`repro.service.auth`):

==========================  ============================================
``POST /v1/jobs``           submit a grid: ``{"specs": [RunSpec.to_dict()
                            , ...]}`` → ``201 {"id": ..., "points": N}``
``GET /v1/jobs/<id>``       status + progress snapshot
``GET /v1/jobs/<id>/stream``  NDJSON: every finished point streams the
                            moment its result lands (cache hits flush
                            immediately), then one terminal event;
                            ``?after=<n>`` skips the first *n* events
                            so a dropped client reconnects without
                            replay
``GET /v1/jobs/<id>/results``  collected results (nulls until done)
``DELETE /v1/jobs/<id>``    cancel: unscheduled points never run
``GET /v1/healthz``         liveness + version + engine-tier
                            availability (never needs auth)
``GET /v1/metrics``         Prometheus text exposition (JSON when the
                            ``Accept`` header asks for it)
``GET /v1/metrics.json``    the JSON metrics document, always
``GET /v1/dashboard``       the live cluster dashboard (static HTML,
                            never needs auth; its API calls do)
==========================  ============================================

Every job submission mints (or accepts, via ``X-Repro-Trace`` /
``"trace"`` in the body) a **trace id** that rides through the
scheduler into the engine, remote chunks, and worker daemons — see
:mod:`repro.obs.tracing`; ``repro trace <id>`` renders the result.
Per-tenant usage (jobs, points, cache hits, degraded rounds, queue
wait) is accounted in the process-wide metrics registry keyed by the
authenticated client name and exposed as Prometheus series.

Execution model: a single scheduler task repeatedly asks the
:class:`~repro.service.jobs.JobQueue` for a fair-share **round** of at
most ``max_inflight`` points (per-client round-robin — a huge grid
cannot starve a small one), then drives the round through
:meth:`BatchEngine.run_specs_iter
<repro.engine.core.BatchEngine.run_specs_iter>` on a worker thread.
Each yielded result is marshalled back onto the event loop and
published to the owning job's stream immediately — so with a pool or
remote executor behind the engine, points stream to clients while the
rest of the round is still simulating, and store/memo hits stream
before the executor even starts.  Identical specs across concurrent
jobs deduplicate within a round for free (engine semantics).  In a
process that defers its native build (``repro serve``), the first
delivered round starts it in the background
(:func:`repro.uarch.native.start_deferred_build`); ``auto`` points run
on the interpreter until the library loads.

One request per connection (``Connection: close``), bodies capped at
64 MB, streams chunk-encoded.  Start it from the CLI (``repro serve``),
embed it (``await Gateway(...).start()``), or spin it on a thread in
tests (:meth:`Gateway.serve_in_thread`).

Fault tolerance (see ``docs/resilience.md``): with a
:class:`~repro.service.wal.JobJournal` attached, accepted jobs and
delivered points are journaled so ``repro serve --resume`` reloads
unfinished jobs after a crash — completed points come back as
result-store hits (free and bit-identical), only missing points
re-simulate.  A scheduler round that dies whole (executor raised)
requeues its undelivered points instead of failing the jobs, up to
``max_round_failures`` attempts per job, and executor degradation
(remote cluster lost → local fallback) is surfaced in ``/v1/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse

from repro.engine import BatchEngine
from repro.engine.faults import fault
from repro.engine.spec import RunSpec
from repro.engine.version import code_version
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.health import auto_resolution, engine_tier_report
from repro.service.auth import authorized, service_token
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.jobs import JobQueue
from repro.trace.workloads import WORKLOADS

#: Hard cap on one request body (matches the worker protocol's line cap).
MAX_BODY = 64 * 1024 * 1024

#: Points one job may submit (a runaway client cannot OOM the queue).
MAX_POINTS_PER_JOB = 100_000

_JSON = "application/json"
_NDJSON = "application/x-ndjson"
_HTML = "text/html; charset=utf-8"
#: The Prometheus text exposition content type (format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REGISTRY = _metrics.get_registry()
_HTTP_REQUESTS = _REGISTRY.counter(
    "repro_gateway_requests_total",
    "HTTP requests served, by normalized route.",
    labelnames=("route",))
_TENANT_JOBS = _REGISTRY.counter(
    "repro_tenant_jobs_total",
    "Jobs submitted, per authenticated client.",
    labelnames=("client",))
_TENANT_POINTS = _REGISTRY.counter(
    "repro_tenant_points_total",
    "Points delivered, per client and source (executed/cached).",
    labelnames=("client", "source"))
_TENANT_DEGRADED = _REGISTRY.counter(
    "repro_tenant_degraded_rounds_total",
    "Scheduler rounds completed in degraded mode, per client.",
    labelnames=("client",))
_TENANT_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_tenant_queue_wait_seconds",
    "Submission-to-first-schedule wait, per client.",
    labelnames=("client",))
_UPTIME_GAUGE = _REGISTRY.gauge(
    "repro_gateway_uptime_seconds", "Gateway uptime at scrape time.")
_JOBS_GAUGE = _REGISTRY.gauge(
    "repro_gateway_jobs", "Known jobs by lifecycle state.",
    labelnames=("state",))
_PENDING_GAUGE = _REGISTRY.gauge(
    "repro_gateway_points_pending",
    "Unscheduled points across queued/running jobs.")
_ROUNDS = _REGISTRY.counter(
    "repro_gateway_rounds_total", "Scheduler rounds started.")
_POINTS = _REGISTRY.counter(
    "repro_gateway_points_total",
    "Points delivered by the gateway, by source.",
    labelnames=("source",))
_ROUND_FAILURES = _REGISTRY.counter(
    "repro_gateway_round_failures_total",
    "Scheduler rounds that died whole.")
_UNAUTHORIZED = _REGISTRY.counter(
    "repro_gateway_unauthorized_total", "Requests refused by auth.")
_BUILD_INFO = _REGISTRY.gauge(
    "repro_build_info",
    "Constant 1, labelled with the code-version fingerprint.",
    labelnames=("version",))


class _HttpError(Exception):
    """Route-level failure that maps straight to a status + JSON body."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


class Gateway:
    """The simulation-as-a-service HTTP front end.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    engine:
        The :class:`~repro.engine.core.BatchEngine` runs execute on
        (default: a fresh serial engine with no store).  Configure its
        executor/store for pools, clusters, and persistent caching —
        the gateway only ever touches the engine from its single
        scheduler thread.
    token:
        Shared secret (default: the ``REPRO_TOKEN`` environment
        variable); ``None``/empty disables authentication.
    max_inflight:
        Point budget per scheduling round — the bound on concurrently
        executing points (default 8).
    journal:
        Optional :class:`~repro.service.wal.JobJournal`.  When set,
        submissions and per-point completions are journaled to per-job
        WAL files so a crashed gateway can be resumed; ``None`` (the
        default) keeps the old forgetful behavior.
    resume:
        When true (``repro serve --resume``), :meth:`start` reloads
        every unfinished journaled job under its original id before
        accepting connections.
    max_round_failures:
        Whole scheduler rounds allowed to die (executor raised) per
        job before that job is failed rather than requeued (default 3).
    """

    def __init__(self, host="127.0.0.1", port=0, engine=None, token=None,
                 max_inflight=8, journal=None, resume=False,
                 max_round_failures=3):
        self.host = host
        self.port = port
        self.engine = engine or BatchEngine()
        self.queue = JobQueue()
        self.token = service_token() if token is None else (token or None)
        self.max_inflight = max(1, int(max_inflight))
        self.journal = journal
        self.resume = bool(resume)
        self.max_round_failures = max(0, int(max_round_failures))
        self.version = code_version()
        self.started_at = time.time()
        self.requests = 0
        self.rounds = 0
        self.points_executed = 0
        self.points_cached = 0
        self.unauthorized = 0
        self.round_failures = 0
        self.resumed_jobs = 0
        self.degraded = None  # last degraded-batch report (dict)
        self.last_round_error = None
        self._server = None
        self._scheduler = None
        self._work = None  # asyncio.Event, created on the loop in start()
        self._engines_report = None  # cached tier probe for /v1/healthz
        self._engines_probed_at = 0.0

    # -- lifecycle ---------------------------------------------------

    @property
    def address(self):
        """The bound ``(host, port)`` — resolves an ephemeral port."""
        if self._server is None:
            return (self.host, self.port)
        return self._server.sockets[0].getsockname()[:2]

    async def start(self):
        """Bind the listener and start the scheduler task.

        With ``resume`` set and a journal attached, unfinished jobs are
        reloaded from the WAL before the listener binds, so resumed ids
        are resolvable from the first request on.
        """
        self._work = asyncio.Event()
        if self.resume and self.journal is not None:
            self._resume_jobs()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self._scheduler = asyncio.create_task(self._scheduler_loop())
        return self

    def _resume_jobs(self):
        """Re-create every unfinished journaled job under its old id.

        Resumed points run through the engine like any others —
        completed ones return as result-store hits (no re-simulation,
        bit-identical), so only the genuinely missing points execute.
        """
        for record in self.journal.unfinished():
            if record["id"] in self.queue.jobs:
                continue
            try:
                specs = [RunSpec.from_dict(data).resolved()
                         for data in record["specs"]]
            except (KeyError, TypeError, ValueError, AttributeError):
                continue  # unreadable journal must never block a boot
            if not specs:
                self.journal.discard(record["id"])
                continue
            job = self.queue.submit(record["client"] or "resumed", specs,
                                    job_id=record["id"])
            job.journal = self.journal
            self.resumed_jobs += 1
        if self.resumed_jobs:
            self._signal_work()

    async def stop(self):
        """Stop accepting, cancel the scheduler, close the listener."""
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self, on_ready=None):
        """:meth:`start` then serve until cancelled (the CLI entry).

        ``on_ready(gateway)`` is called once the listener is bound —
        the CLI prints its "listening on" line from it.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    def serve_in_thread(self):
        """Run the gateway on a daemon thread; returns a stop handle.

        For tests and embedding: blocks until the listener is bound,
        then returns an object with ``address`` and ``stop()``.
        """
        loop = asyncio.new_event_loop()
        bound = threading.Event()

        async def boot():
            await self.start()
            bound.set()

        def main():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(boot())
            loop.run_forever()

        thread = threading.Thread(target=main, daemon=True,
                                  name="repro-gateway")
        thread.start()
        bound.wait(timeout=10)
        gateway = self

        class _Handle:
            """Thread-side remote control for a running gateway."""

            address = self.address

            @staticmethod
            def stop():
                """Stop the gateway and join its thread."""
                async def shutdown():
                    await gateway.stop()
                    loop.stop()
                asyncio.run_coroutine_threadsafe(shutdown(), loop)
                thread.join(timeout=10)
                if not loop.is_running():
                    loop.close()

        return _Handle()

    # -- scheduling --------------------------------------------------

    def _signal_work(self):
        if self._work is not None:
            self._work.set()

    async def _scheduler_loop(self):
        while True:
            await self._work.wait()
            round_ = self.queue.next_round(self.max_inflight)
            if not round_:
                self._work.clear()
                continue
            await self._run_round(round_)

    async def _run_round(self, round_):
        loop = asyncio.get_running_loop()
        now = time.time()
        for job, _ in round_:
            if job.state == "queued":
                job.state = "running"
                job.started = now
                # Queue-wait accounting at the queued→running edge:
                # one observation (and one span) per job lifetime.
                wait = max(0.0, now - job.created)
                _TENANT_QUEUE_WAIT.observe(wait, client=job.client)
                if job.trace is not None:
                    _tracing.record_span(
                        "queue", "gateway.queue-wait", job.created,
                        wait, trace=job.trace,
                        attrs={"job": job.job_id,
                               "client": job.client})
        specs = [job.specs[index] for job, index in round_]
        traces = [job.trace for job, _ in round_]
        base_executed, base_cached = self.points_executed, self.points_cached
        # Counted at round *start*: a client that has observed any of
        # this round's points (or the terminal event they trigger) must
        # never read a /v1/metrics snapshot that predates the round —
        # the engine can finish and deliver before to_thread returns.
        self.rounds += 1
        _ROUNDS.inc()

        def execute():
            # Worker thread: the only thread that touches the engine.
            if fault("gateway.round"):
                raise RuntimeError("injected fault: scheduler round died")
            last_executed = 0
            for position, _, result in self.engine.run_specs_iter(
                    specs, trace=traces):
                batch = self.engine.last_batch
                executed = base_executed + batch.executed
                cached = base_cached + batch.store_hits + batch.memo_hits
                # A yield that advanced batch.executed came off the
                # executor; anything else was served by memo/store (or
                # deduplicated onto an already-executed key).
                from_cache = batch.executed == last_executed
                last_executed = batch.executed
                job, index = round_[position]
                try:
                    # One loop callback updates the counters AND
                    # delivers — so a client that has seen a point (or
                    # the terminal event it triggers) can never read
                    # stale /v1/metrics afterwards.
                    loop.call_soon_threadsafe(self._land_point, executed,
                                              cached, job, index, result,
                                              from_cache)
                except RuntimeError:
                    # The loop closed mid-round (gateway shutdown with
                    # work in flight): stop simulating for nobody.
                    return

        failure = None
        try:
            await asyncio.to_thread(execute)
        except Exception as exc:  # noqa: BLE001 — jobs must not wedge
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            # Final sync: _land_point already counted the points that
            # streamed out mid-round.
            batch = self.engine.last_batch
            self._count_points(base_executed + batch.executed,
                               base_cached + batch.store_hits
                               + batch.memo_hits)
            if batch.degraded:
                self.degraded = dict(batch.degraded)
                for client in {job.client for job, _ in round_}:
                    _TENANT_DEGRADED.inc(client=client)
        else:
            # engine.last_batch may be stale (the round can die before
            # the engine starts), so no counter sync on this path.
            self.round_failures += 1
            _ROUND_FAILURES.inc()
            self.last_round_error = failure
            self._requeue_round(round_, failure)
        if self.rounds == 1:
            # A process that defers its native build (repro serve)
            # starts it once it has answered its first round, so
            # neither start-up nor that round waits on the compiler.
            from repro.uarch import native

            native.start_deferred_build()

    def _count_points(self, executed, cached):
        """Raise the delivered-point totals to at least these; each
        point is counted once however many syncs report it."""
        if executed > self.points_executed:
            _POINTS.inc(executed - self.points_executed, source="executed")
            self.points_executed = executed
        if cached > self.points_cached:
            _POINTS.inc(cached - self.points_cached, source="cached")
            self.points_cached = cached

    def _land_point(self, executed, cached, job, index, result,
                    from_cache=False):
        """Event-loop callback: publish one point with counters current."""
        self._count_points(executed, cached)
        _TENANT_POINTS.inc(client=job.client,
                           source="cached" if from_cache else "executed")
        job.deliver(index, result)

    def _requeue_round(self, round_, message):
        """Recover from a scheduler round that died whole.

        Undelivered points go back to the front of their jobs' queues
        and the jobs rejoin the rotation; a job whose rounds keep dying
        (more than ``max_round_failures``) is failed instead, so a
        deterministically crashing executor cannot retry forever.
        """
        by_job = {}
        for job, index in round_:
            if not job.is_finished and job.results[index] is None:
                by_job.setdefault(job.job_id, (job, []))[1].append(index)
        for job, indices in by_job.values():
            job.round_failures += 1
            if job.round_failures > self.max_round_failures:
                job.fail(message)
            else:
                job.requeue(indices)
                self.queue.restore(job)
        self._signal_work()

    # -- request handling --------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            try:
                method, target, headers = await self._read_head(reader)
            except _HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": exc.message})
                return
            except (asyncio.IncompleteReadError, ValueError, OSError):
                return  # peer hung up or spoke garbage mid-request
            self.requests += 1
            path, _, query = target.partition("?")
            try:
                await self._dispatch(reader, writer, method, path, query,
                                     headers)
            except _HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": exc.message})
            except (asyncio.IncompleteReadError, ValueError):
                return  # body shorter than declared / garbage mid-read
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to tell it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                # RuntimeError: the loop closed under us (gateway was
                # killed with this stream still open).
                pass

    async def _read_head(self, reader):
        """Parse the request line and headers — never the body.

        The body (bounded by :data:`MAX_BODY`) is read separately in
        :meth:`_read_body`, *after* authentication, so an
        unauthenticated client can never make the gateway buffer a
        64 MB payload.
        """
        try:
            request_line = (await reader.readline()).decode("latin-1")
        except ValueError:
            raise _HttpError(431, "request line too long")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        headers = {}
        for _ in range(200):  # header-count cap: no unbounded loops
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(431, "too many headers")
        return method.upper(), target, headers

    @staticmethod
    async def _read_body(reader, headers):
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _HttpError(400, "bad Content-Length header")
        if length > MAX_BODY:
            raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
        return await reader.readexactly(length) if length else b""

    async def _dispatch(self, reader, writer, method, path, query, headers):
        _HTTP_REQUESTS.inc(route=self._route_label(path))
        if path == "/v1/healthz" and method == "GET":
            await self._send_json(writer, 200, self._healthz())
            return
        if path == "/v1/dashboard" and method == "GET":
            # The page itself holds no data; every API call it makes is
            # authenticated, so serving the static HTML needs no token.
            await self._send_text(writer, 200, DASHBOARD_HTML, _HTML)
            return
        if not authorized(headers, self.token):
            self.unauthorized += 1
            _UNAUTHORIZED.inc()
            raise _HttpError(401, "unauthorized: set REPRO_TOKEN and "
                                  "send 'Authorization: Bearer <token>'")
        if path == "/v1/metrics" and method == "GET":
            # Content negotiation: Prometheus text by default, the JSON
            # document when the client asks for application/json (the
            # GatewayClient always does — existing callers see no
            # change).  /v1/metrics.json is the explicit JSON route.
            if _JSON in headers.get("accept", ""):
                await self._send_json(writer, 200, self.metrics())
            else:
                await self._send_text(writer, 200, self.prometheus(),
                                      PROMETHEUS_CONTENT_TYPE)
            return
        if path == "/v1/metrics.json" and method == "GET":
            await self._send_json(writer, 200, self.metrics())
            return
        if path == "/v1/jobs" and method == "POST":
            body = await self._read_body(reader, headers)
            await self._submit(writer, headers, body)
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.queue.get(parts[2])
            if job is None:
                raise _HttpError(404, f"unknown job {parts[2]!r}")
            tail = parts[3] if len(parts) == 4 else None
            if tail is None and method == "GET":
                await self._send_json(writer, 200, job.snapshot())
                return
            if tail is None and method == "DELETE":
                self.queue.cancel(job.job_id)
                await self._send_json(writer, 200, job.snapshot())
                return
            if tail == "results" and method == "GET":
                await self._send_json(writer, 200, {
                    "id": job.job_id,
                    "state": job.state,
                    "results": [r.to_dict() if r is not None else None
                                for r in job.results],
                })
                return
            if tail == "stream" and method == "GET":
                await self._stream(writer, job, self._after_cursor(query))
                return
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _after_cursor(query):
        """Parse the ``?after=<n>`` stream-reconnect cursor (default 0)."""
        values = urllib.parse.parse_qs(query,
                                       keep_blank_values=True).get("after")
        if not values:
            return 0
        try:
            after = int(values[-1])
        except ValueError:
            after = -1
        if after < 0:
            raise _HttpError(400, "'after' must be a non-negative integer")
        return after

    async def _submit(self, writer, headers, body):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "body is not valid JSON")
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        spec_dicts = payload.get("specs")
        if not isinstance(spec_dicts, list) or not spec_dicts:
            raise _HttpError(400, "'specs' must be a non-empty list of "
                                  "RunSpec objects")
        if len(spec_dicts) > MAX_POINTS_PER_JOB:
            raise _HttpError(413, f"grid exceeds {MAX_POINTS_PER_JOB} "
                                  "points")
        specs = []
        for n, data in enumerate(spec_dicts):
            try:
                spec = RunSpec.from_dict(data).resolved()
                if spec.config is None:
                    raise ValueError("missing config")
                spec.key()  # force full validation of the identity
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise _HttpError(400, f"specs[{n}] is not a valid "
                                      f"RunSpec: {exc}")
            if spec.workload not in WORKLOADS:
                raise _HttpError(400, f"specs[{n}]: unknown workload "
                                      f"{spec.workload!r}")
            specs.append(spec)
        client = (headers.get("x-repro-client")
                  or str(payload.get("client") or "")
                  or self._peer_name(writer))
        # Every job gets a trace id: the client's own (X-Repro-Trace
        # header or "trace" in the body — a sweep spanning several
        # submissions can share one) or a freshly minted one.
        trace = (headers.get("x-repro-trace")
                 or str(payload.get("trace") or "")
                 or _tracing.new_trace_id())
        job = self.queue.submit(client, specs, trace=trace)
        _TENANT_JOBS.inc(client=client)
        if self.journal is not None and not job.is_finished:
            # Submit record lands before the 201 acknowledgement, so an
            # acknowledged job is always recoverable.
            self.journal.record_submit(job)
            job.journal = self.journal
        self._signal_work()
        await self._send_json(writer, 201, {
            "id": job.job_id,
            "points": len(specs),
            "state": job.state,
            "client": client,
            "trace": job.trace,
            "links": {
                "status": f"/v1/jobs/{job.job_id}",
                "stream": f"/v1/jobs/{job.job_id}/stream",
                "results": f"/v1/jobs/{job.job_id}/results",
            },
        })

    async def _stream(self, writer, job, after=0):
        """NDJSON: replay the backlog from ``after``, then push live.

        ``after`` is the count of events the client already consumed
        (the reconnect cursor).  A cursor ahead of the backlog waits
        for the job to catch up — a resumed gateway re-delivers points
        the client saw before the restart, and clamping the cursor back
        would replay them as duplicates.  A finished job whose backlog
        the client has fully consumed gets an empty stream — never a
        hang (:meth:`Job.events_from` ends when the job does).
        """
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: " + _NDJSON.encode() + b"\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        async for event in job.events_from(after):
            line = (json.dumps(event, sort_keys=True).encode("utf-8")
                    + b"\n")
            writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- plumbing ----------------------------------------------------

    @staticmethod
    def _peer_name(writer):
        peer = writer.get_extra_info("peername")
        return peer[0] if peer else "unknown"

    @staticmethod
    def _route_label(path):
        """Collapse job ids out of a path for the per-route counter."""
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            tail = parts[3] if len(parts) >= 4 else None
            return "/v1/jobs/*" + (f"/{tail}" if tail else "")
        return path

    async def _send_text(self, writer, status, text, content_type):
        body = text.encode("utf-8")
        reason = {200: "OK"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + body)
        await writer.drain()

    async def _send_json(self, writer, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  401: "Unauthorized", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {_JSON}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + body)
        await writer.drain()

    def _engines(self):
        """The engine-tier report, probed at most once a minute, with
        what ``auto`` resolves to now.

        ``/v1/healthz`` is auth-exempt and load balancers poll it, so
        the probe behind :func:`engine_tier_report` must not run per
        request; the ``auto`` resolution is cheap and current, so it
        shows the moment a deferred native build loads.
        """
        now = time.time()
        if (self._engines_report is None
                or now - self._engines_probed_at > 60.0):
            self._engines_report = engine_tier_report()
            self._engines_probed_at = now
        return dict(self._engines_report, **auto_resolution())

    def _healthz(self):
        return {"ok": True, "version": self.version,
                "auth": self.token is not None,
                "uptime": time.time() - self.started_at,
                "jobs": self.queue.counters()["jobs"],
                "engines": self._engines()}

    def _refresh_gauges(self):
        """Point-in-time gauges, set at scrape time."""
        counters = self.queue.counters()
        _UPTIME_GAUGE.set(time.time() - self.started_at)
        for state, count in counters["jobs"].items():
            _JOBS_GAUGE.set(count, state=state)
        _PENDING_GAUGE.set(counters["points_pending"])
        _BUILD_INFO.set(1, version=self.version)

    def prometheus(self):
        """The Prometheus text exposition ``GET /v1/metrics`` serves."""
        # Imported for its registration, so the scrape lists the native
        # artifact counter before the first native run (lazily, like
        # engine_tier_report: a gateway nobody scrapes never loads it).
        from repro.uarch import native  # noqa: F401

        self._refresh_gauges()
        return _REGISTRY.render()

    def _tenants(self):
        """Per-tenant usage, read back from the metrics registry."""
        tenants = {}

        def entry(client):
            return tenants.setdefault(client, {
                "jobs": 0, "points_executed": 0, "points_cached": 0,
                "degraded_rounds": 0, "queue_wait_p50": None})

        for (client,), value in _TENANT_JOBS.series():
            entry(client)["jobs"] = int(value)
        for (client, source), value in _TENANT_POINTS.series():
            entry(client)[f"points_{source}"] = int(value)
        for (client,), value in _TENANT_DEGRADED.series():
            entry(client)["degraded_rounds"] = int(value)
        for (client,), _state in _TENANT_QUEUE_WAIT.series():
            p50 = _TENANT_QUEUE_WAIT.percentile(50, client=client)
            entry(client)["queue_wait_p50"] = (
                round(p50, 6) if p50 is not None else None)
        return tenants

    def _jobs_recent(self, limit=20):
        """Snapshots of the most recently created jobs (dashboard)."""
        jobs = sorted(self.queue.jobs.values(),
                      key=lambda job: job.created, reverse=True)
        return [job.snapshot() for job in jobs[:limit]]

    def metrics(self):
        """The JSON metrics document (``/v1/metrics.json``)."""
        executor = type(self.engine.executor).__name__
        return {
            "uptime": time.time() - self.started_at,
            "version": self.version,
            "requests": self.requests,
            "unauthorized": self.unauthorized,
            "rounds": self.rounds,
            "max_inflight": self.max_inflight,
            "points_executed": self.points_executed,
            "points_cached": self.points_cached,
            "round_failures": self.round_failures,
            "last_round_error": self.last_round_error,
            "degraded": self.degraded,
            "journal": self.journal is not None,
            "resumed_jobs": self.resumed_jobs,
            "executor": executor,
            "store": self.engine.store is not None,
            "queue": self.queue.counters(),
            "tenants": self._tenants(),
            "jobs_recent": self._jobs_recent(),
        }
