"""Jobs and the fair-share queue behind the simulation gateway.

A :class:`Job` is one client's submitted grid: an ordered list of
resolved :class:`~repro.engine.spec.RunSpec`\\ s, a result slot per
point, and an append-only **event log** that the NDJSON stream endpoint
replays — every finished point becomes one event the moment it lands,
and a terminal event closes the stream.

:class:`JobQueue` holds every job and decides what simulates next.
Scheduling is **fair-share**: clients take turns point-by-point
(per-client round-robin), so a tenant who submits a 10,000-point grid
cannot starve one who submits a single run a second later.  Within one
client, jobs run FIFO and points in submission order.  The queue only
*selects* work (``next_round``); executing it — through
:meth:`BatchEngine.run_specs_iter
<repro.engine.core.BatchEngine.run_specs_iter>` — is the gateway's
scheduler loop, which bounds in-flight points per round.

Everything here runs on the gateway's event-loop thread, so the
structures need no locks; the only asyncio objects are the per-job
wake-up events that stream handlers await.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import deque

#: The job lifecycle: queued → running → done | failed | cancelled.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Delivered points the finished jobs a :class:`JobQueue` keeps may hold
#: between them: each is a result plus its stream event, so a gateway
#: that serves many grids keeps a bounded number of them.
MAX_FINISHED_POINTS = 800


def new_job_id():
    """A fresh opaque job identifier (URL-safe, unguessable-enough)."""
    return uuid.uuid4().hex


class Job:
    """One submitted grid and everything observable about it."""

    def __init__(self, job_id, client, specs, trace=None):
        self.job_id = job_id
        self.client = client
        #: Trace id minted at submission (``None`` for untraced jobs);
        #: rides through the scheduler into engine/worker spans and is
        #: echoed in the submit response and the status snapshot.
        self.trace = trace
        self.specs = list(specs)
        self.results = [None] * len(self.specs)
        self.state = "queued"
        self.error = None
        self.created = time.time()
        self.started = None
        self.finished = None
        self.done_points = 0
        self.next_point = 0  # scheduling cursor into self.specs
        self.events = []  # replayable stream backlog (dicts)
        #: Optional :class:`~repro.service.wal.JobJournal`; when set,
        #: delivered points and the terminal state are journaled so the
        #: gateway can resume this job after a crash.
        self.journal = None
        #: Scheduler rounds containing this job that died whole (the
        #: executor raised); the gateway requeues the points a few
        #: times before giving up on the job.
        self.round_failures = 0
        self._returned = deque()  # requeued point indices (run first)
        self._wakeup = asyncio.Event()

    # -- scheduling --------------------------------------------------

    @property
    def pending_points(self):
        """Points not yet handed to the executor."""
        if self.state in TERMINAL_STATES:
            return 0
        return len(self._returned) + len(self.specs) - self.next_point

    def take_point(self):
        """Claim the next unscheduled point index (caller checks pending).

        Requeued points (from a failed scheduler round) are re-claimed
        before the cursor advances into untouched territory.
        """
        if self._returned:
            return self._returned.popleft()
        index = self.next_point
        self.next_point += 1
        return index

    def requeue(self, indices):
        """Return claimed-but-undelivered points to the schedulable set.

        Used by the gateway when an executor round dies whole: the
        points that never produced results go back to the front of the
        line instead of failing the job.  Delivered or duplicate
        indices are ignored.
        """
        for index in indices:
            if self.results[index] is None and index not in self._returned:
                self._returned.append(index)

    # -- results and events ------------------------------------------

    @property
    def is_finished(self):
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def deliver(self, index, result):
        """Record one finished point and publish its stream event.

        Called on the event-loop thread as the executor yields.  A
        point landing after cancellation is still recorded (the work is
        done and deterministic) but publishes no event — the stream
        already ended.
        """
        if self.results[index] is None:
            self.results[index] = result
            self.done_points += 1
            if self.journal is not None:
                # The engine's store already persisted the result, so a
                # crash after this record can serve the point for free.
                self.journal.record_point(self.job_id, index)
        if self.is_finished:
            return
        spec = self.specs[index]
        self._publish({
            "event": "point",
            "job": self.job_id,
            "index": index,
            "workload": spec.workload,
            "label": spec.label,
            "key": spec.key(),
            "done": self.done_points,
            "points": len(self.specs),
            "result": result.to_dict(),
        })
        if self.done_points == len(self.specs):
            self._finish("done")

    def fail(self, message):
        """Mark the job failed (executor error) and end its stream."""
        if not self.is_finished:
            self.error = str(message)
            self._finish("failed")

    def cancel(self):
        """Cancel the job; returns whether anything changed.

        Unscheduled points never run; points already in flight finish
        (their results are recorded) but publish no further events.
        """
        if self.is_finished:
            return False
        self._finish("cancelled")
        return True

    def _finish(self, state):
        self.state = state
        self.finished = time.time()
        if self.journal is not None:
            self.journal.record_end(self.job_id, state)
        self._publish({
            "event": "end",
            "job": self.job_id,
            "state": state,
            "done": self.done_points,
            "points": len(self.specs),
            "error": self.error,
        })

    def _publish(self, event):
        self.events.append(event)
        self._wakeup.set()
        self._wakeup = asyncio.Event()

    async def events_from(self, start=0):
        """Yield stream events from ``start``: backlog first, then live.

        Terminates after the terminal event.  A ``start`` beyond the
        current backlog waits for the job to catch up (a reconnecting
        client may hold a cursor from a previous gateway incarnation
        that has not re-delivered that far yet) — but never hangs: once
        the job is finished and the backlog is drained the stream ends.
        Safe without locks: the publisher runs on the same event loop,
        so the backlog cannot grow between the synchronous length check
        and the await.
        """
        index = start
        while True:
            while index < len(self.events):
                event = self.events[index]
                index += 1
                yield event
                if event.get("event") == "end":
                    return
            if self.is_finished:
                return  # cursor past the end of a finished job
            await self._wakeup.wait()

    # -- reporting ---------------------------------------------------

    def snapshot(self):
        """The status document ``GET /v1/jobs/<id>`` serves."""
        return {
            "id": self.job_id,
            "client": self.client,
            "trace": self.trace,
            "state": self.state,
            "points": len(self.specs),
            "done": self.done_points,
            "scheduled": self.next_point - len(self._returned),
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }


class JobQueue:
    """Every job the gateway knows, plus the fair-share selector.

    Finished jobs are kept for fetch/replay but only the most recent
    ``max_finished`` of them, and only as many as hold at most
    :data:`MAX_FINISHED_POINTS` delivered points between them — a
    long-running gateway must not retain every grid it ever served
    (results live on in the engine's persistent store regardless).
    """

    def __init__(self, max_finished=1000):
        self.jobs = {}  # job id -> Job (recent completed jobs kept)
        self.max_finished = max(0, int(max_finished))
        self._backlog = {}  # client -> deque of job ids with pending points
        self._turns = deque()  # round-robin order over clients

    def _evict_finished(self):
        """Drop the oldest terminal jobs beyond the retention caps: the
        job count, then the delivered points they hold."""
        terminal = [job for job in self.jobs.values() if job.is_finished]
        held = sum(job.done_points for job in terminal)
        for number, job in enumerate(terminal):
            if (len(terminal) - number <= self.max_finished
                    and held <= MAX_FINISHED_POINTS):
                break
            held -= job.done_points
            del self.jobs[job.job_id]

    def submit(self, client, specs, job_id=None, trace=None):
        """Register a new job for ``client``; returns the :class:`Job`.

        ``job_id`` lets WAL recovery re-create a job under its original
        id (so client handles survive a gateway restart); new
        submissions leave it unset and get a fresh id.  ``trace`` is
        the optional trace id minted at submission.
        """
        self._evict_finished()
        job = Job(job_id or new_job_id(), client, specs, trace=trace)
        self.jobs[job.job_id] = job
        if job.pending_points:
            if client not in self._backlog:
                self._backlog[client] = deque()
                self._turns.append(client)
            self._backlog[client].append(job.job_id)
        else:  # zero-point grid: born finished
            job._finish("done")
        return job

    def restore(self, job):
        """Put a job with requeued points back into the rotation.

        Round-failure recovery: after :meth:`Job.requeue` the job has
        schedulable points again but may have been dropped from its
        client's backlog; re-admit it (at the front — its points were
        claimed first) so the next round picks the work back up.
        """
        if job.is_finished or not job.pending_points:
            return
        if job.client not in self._backlog:
            self._backlog[job.client] = deque()
            self._turns.append(job.client)
        if job.job_id not in self._backlog[job.client]:
            self._backlog[job.client].appendleft(job.job_id)

    def get(self, job_id):
        """The job for an id, or ``None``."""
        return self.jobs.get(job_id)

    def cancel(self, job_id):
        """Cancel a job by id; returns the job (or ``None`` if unknown)."""
        job = self.jobs.get(job_id)
        if job is not None and job.cancel():
            backlog = self._backlog.get(job.client)
            if backlog is not None and job.job_id in backlog:
                backlog.remove(job.job_id)
        return job

    @property
    def pending_points(self):
        """Unscheduled points across every queued/running job."""
        return sum(self.jobs[j].pending_points
                   for q in self._backlog.values() for j in q)

    def next_round(self, limit):
        """Select up to ``limit`` points to execute next, fairly.

        Clients take turns contributing one point per turn (round-robin
        over clients, FIFO over each client's jobs, submission order
        within a job), so small tenants interleave with huge grids.
        Returns ``[(job, point_index), ...]``; the caller executes the
        round and delivers results.  Clients and jobs that run dry are
        dropped from the rotation as a side effect.
        """
        round_ = []
        # Every turn either claims a point or retires a drained client,
        # so the loop terminates even when limit exceeds the backlog.
        while len(round_) < limit and self._turns:
            client = self._turns[0]
            self._turns.rotate(-1)
            backlog = self._backlog.get(client)
            job = None
            while backlog:
                candidate = self.jobs.get(backlog[0])
                if candidate is not None and candidate.pending_points:
                    job = candidate
                    break
                backlog.popleft()  # finished, cancelled or evicted: drop
            if job is None:
                self._turns.remove(client)
                del self._backlog[client]
                continue
            round_.append((job, job.take_point()))
            if not job.pending_points:
                backlog.popleft()
        return round_

    def counters(self):
        """Aggregate queue numbers for ``/v1/metrics``."""
        by_state = dict.fromkeys(JOB_STATES, 0)
        points = done = 0
        for job in self.jobs.values():
            by_state[job.state] += 1
            points += len(job.specs)
            done += job.done_points
        return {
            "jobs": by_state,
            "clients_waiting": len(self._turns),
            "points_total": points,
            "points_done": done,
            "points_pending": self.pending_points,
        }
