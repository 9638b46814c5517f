"""The fair-share job queue: scheduling, cancellation, bookkeeping."""

import asyncio

import pytest

from repro.engine import RunSpec
from repro.service.jobs import (
    MAX_FINISHED_POINTS,
    Job,
    JobQueue,
    new_job_id,
)
from repro.uarch.config import conventional_config


def specs(count, workload="go"):
    return [RunSpec(workload, conventional_config(),
                    label=f"p{n}").resolved(600, 100, n)
            for n in range(count)]


def drain(queue, limit):
    """Collect (client, point) claims until the queue runs dry."""
    order = []
    while True:
        round_ = queue.next_round(limit)
        if not round_:
            return order
        order.extend((job.client, index) for job, index in round_)


class TestFairShare:
    def test_round_robin_interleaves_clients(self):
        queue = JobQueue()
        queue.submit("big", specs(4))
        queue.submit("small", specs(2))
        round_ = queue.next_round(4)
        clients = [job.client for job, _ in round_]
        # One point per client per turn: big cannot monopolize a round.
        assert clients == ["big", "small", "big", "small"]

    def test_small_client_finishes_inside_big_grid(self):
        queue = JobQueue()
        queue.submit("big", specs(6))
        queue.submit("small", specs(1))
        first = queue.next_round(3)
        assert ("small", 0) in [(j.client, i) for j, i in first]

    def test_single_client_jobs_run_fifo(self):
        queue = JobQueue()
        first = queue.submit("c", specs(2))
        second = queue.submit("c", specs(2))
        claims = drain(queue, 2)
        assert claims == [("c", 0), ("c", 1), ("c", 0), ("c", 1)]
        # FIFO: the first job's points were claimed first.
        assert first.next_point == 2
        assert second.next_point == 2

    def test_limit_bounds_inflight_points(self):
        queue = JobQueue()
        queue.submit("c", specs(10))
        assert len(queue.next_round(3)) == 3
        assert queue.pending_points == 7

    def test_every_point_scheduled_exactly_once(self):
        queue = JobQueue()
        queue.submit("a", specs(5))
        queue.submit("b", specs(3))
        claims = drain(queue, 4)
        assert sorted(c for c in claims if c[0] == "a") == [
            ("a", n) for n in range(5)]
        assert sorted(c for c in claims if c[0] == "b") == [
            ("b", n) for n in range(3)]

    def test_empty_grid_is_born_done(self):
        queue = JobQueue()
        job = queue.submit("c", [])
        assert job.state == "done"
        assert queue.next_round(4) == []


class TestCancellation:
    def test_cancel_stops_scheduling(self):
        queue = JobQueue()
        job = queue.submit("c", specs(4))
        queue.next_round(1)
        queue.cancel(job.job_id)
        assert job.state == "cancelled"
        assert queue.next_round(8) == []

    def test_cancel_unknown_job_returns_none(self):
        assert JobQueue().cancel("nope") is None

    def test_cancel_finished_job_is_noop(self):
        queue = JobQueue()
        job = queue.submit("c", [])
        assert job.state == "done"
        queue.cancel(job.job_id)
        assert job.state == "done"

    def test_delivery_after_cancel_records_without_event(self):
        job = Job(new_job_id(), "c", specs(2))
        job.take_point()
        job.cancel()
        events_before = len(job.events)

        class FakeResult:
            def to_dict(self):
                return {}

        job.deliver(0, FakeResult())
        assert job.results[0] is not None
        assert len(job.events) == events_before  # stream already ended


class TestJobEvents:
    def test_events_replay_then_terminate(self):
        async def scenario():
            job = Job(new_job_id(), "c", specs(1))
            job.take_point()

            class FakeResult:
                def to_dict(self):
                    return {"marker": 1}

            job.deliver(0, FakeResult())
            events = [event async for event in job.events_from(0)]
            return job, events

        job, events = asyncio.run(scenario())
        assert [e["event"] for e in events] == ["point", "end"]
        assert events[0]["index"] == 0
        assert events[0]["result"] == {"marker": 1}
        assert events[1]["state"] == "done"
        assert job.is_finished

    def test_live_subscriber_wakes_on_publish(self):
        async def scenario():
            job = Job(new_job_id(), "c", specs(1))
            job.take_point()
            received = []

            async def subscribe():
                async for event in job.events_from(0):
                    received.append(event["event"])

            task = asyncio.create_task(subscribe())
            await asyncio.sleep(0.01)  # subscriber parks on the wakeup
            assert received == []

            class FakeResult:
                def to_dict(self):
                    return {}

            job.deliver(0, FakeResult())
            await asyncio.wait_for(task, timeout=5)
            return received

        assert asyncio.run(scenario()) == ["point", "end"]

    def test_failure_publishes_terminal_event(self):
        job = Job(new_job_id(), "c", specs(2))
        job.fail("executor exploded")
        assert job.state == "failed"
        assert job.events[-1]["event"] == "end"
        assert "exploded" in job.events[-1]["error"]

    def test_snapshot_shape(self):
        job = Job(new_job_id(), "alice", specs(3))
        snap = job.snapshot()
        assert snap["points"] == 3
        assert snap["done"] == 0
        assert snap["state"] == "queued"
        assert snap["client"] == "alice"


class TestCounters:
    def test_counters_track_states_and_points(self):
        queue = JobQueue()
        queue.submit("a", specs(2))
        done = queue.submit("b", [])
        assert done.state == "done"
        counters = queue.counters()
        assert counters["jobs"]["queued"] == 1
        assert counters["jobs"]["done"] == 1
        assert counters["points_total"] == 2
        assert counters["points_pending"] == 2


def test_finished_jobs_evicted_beyond_retention_cap():
    queue = JobQueue(max_finished=2)
    finished = [queue.submit("c", []) for _ in range(6)]  # born done
    live = queue.submit("c", specs(1))  # queued: never evictable
    assert live.job_id in queue.jobs
    terminal_kept = [j for j in queue.jobs.values() if j.is_finished]
    assert len(terminal_kept) <= 3  # cap + the one added post-eviction
    assert queue.get(finished[0].job_id) is None  # oldest gone
    assert queue.get(finished[-1].job_id) is not None  # newest kept


@pytest.mark.parametrize("limit", [1, 2, 7, 100])
def test_drain_is_complete_for_any_limit(limit):
    queue = JobQueue()
    queue.submit("x", specs(5))
    queue.submit("y", specs(4))
    claims = drain(queue, limit)
    assert len(claims) == 9


class TestRetention:
    class _Result:
        """A delivered point's result: all a stream event reads of it."""

        def to_dict(self):
            return {"stats": {}}

    def test_finished_jobs_are_bounded_by_the_points_they_hold(self):
        """A gateway serving many 54-point grids keeps only as many
        finished jobs as hold ``MAX_FINISHED_POINTS`` delivered points
        between them, the newest; the scheduler skips evicted ones."""
        queue = JobQueue()
        grid = specs(54)
        done = []
        for _ in range(40):
            job = queue.submit("bulk", grid)
            for index in range(len(grid)):
                job.deliver(index, self._Result())
            done.append(job.job_id)
        queue.submit("bulk", grid[:1])  # the next submission evicts
        finished = [job for job in queue.jobs.values() if job.is_finished]
        held = sum(job.done_points for job in finished)
        assert 0 < held <= MAX_FINISHED_POINTS
        assert [job.job_id for job in finished] == done[-len(finished):]
        assert [(job.client, index) for job, index
                in queue.next_round(4)] == [("bulk", 0)]
