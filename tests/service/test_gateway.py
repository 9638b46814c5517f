"""End-to-end gateway tests over real HTTP connections.

Covers the PR's acceptance criteria: POST a grid and get a job id,
stream at least one point before the job completes, collected stats
bit-identical to a local serial run, and 401s without the shared
token.
"""

import http.client
import json
import socket

import pytest

from repro.engine import BatchEngine, ResultStore, RunSpec, SerialExecutor
from repro.engine.faults import FaultPlan, clear, install
from repro.service import Gateway, GatewayClient, GatewayError, JobJournal
from repro.uarch.config import conventional_config, virtual_physical_config


def grid():
    """The acceptance grid: conventional vs vp-issue, two workloads."""
    return [RunSpec(w, c, label=label).resolved(600, 100, 1)
            for w in ("go", "swim")
            for label, c in (("conventional", conventional_config()),
                             ("vp-issue",
                              virtual_physical_config(nrr=8)))]


@pytest.fixture
def gateway():
    gw = Gateway(max_inflight=2)
    handle = gw.serve_in_thread()
    yield gw, handle
    handle.stop()


@pytest.fixture
def client(gateway):
    _, handle = gateway
    return GatewayClient("http://%s:%s" % handle.address)


class TestEndToEnd:
    def test_submit_stream_fetch_bit_identical(self, client):
        specs = grid()
        job = client.submit(specs)
        assert job["points"] == len(specs)
        assert job["state"] in ("queued", "running")

        events = list(client.stream(job["id"]))
        points = [e for e in events if e["event"] == "point"]
        assert len(points) == len(specs)
        # Streaming is incremental: the first point event arrived
        # while the job was still short of complete.
        assert points[0]["done"] < points[0]["points"]
        assert events[-1] == {
            "event": "end", "job": job["id"], "state": "done",
            "done": len(specs), "points": len(specs), "error": None,
        }

        fetched = client.fetch(job["id"])
        serial = SerialExecutor().run(specs)
        assert ([r.to_dict() for r in fetched]
                == [r.to_dict() for r in serial])

    def test_status_snapshot_progresses_to_done(self, client):
        job = client.submit(grid()[:1])
        list(client.stream(job["id"]))  # wait for completion
        snapshot = client.status(job["id"])
        assert snapshot["state"] == "done"
        assert snapshot["done"] == snapshot["points"] == 1

    def test_store_backed_gateway_streams_cache_hits(self, tmp_path):
        specs = grid()[:2]
        seeded = BatchEngine(SerialExecutor(), store=ResultStore(tmp_path))
        expected = seeded.run(specs)
        gw = Gateway(engine=BatchEngine(SerialExecutor(),
                                        store=ResultStore(tmp_path)))
        handle = gw.serve_in_thread()
        try:
            client = GatewayClient("http://%s:%s" % handle.address)
            results = client.run(specs)
            assert ([r.to_dict() for r in results]
                    == [r.to_dict() for r in expected])
            assert gw.points_cached == len(specs)
            assert gw.points_executed == 0
        finally:
            handle.stop()

    def test_run_convenience_raises_on_bad_workload(self, client):
        spec_dict = grid()[0].to_dict()
        spec_dict["workload"] = "not-a-workload"
        with pytest.raises(GatewayError) as err:
            client.submit([spec_dict])
        assert err.value.status == 400

    def test_cancel_stops_remaining_points(self):
        # A dedicated slow gateway (one point per round, longer runs)
        # so the cancel reliably lands before the grid drains.
        gw = Gateway(max_inflight=1)
        handle = gw.serve_in_thread()
        try:
            client = GatewayClient("http://%s:%s" % handle.address)
            specs = [RunSpec("go", conventional_config()).resolved(
                20_000, 1_000, seed) for seed in range(6)]
            job = client.submit(specs)
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            events = list(client.stream(job["id"]))
            assert events[-1]["state"] == "cancelled"
            snapshot = client.status(job["id"])
            assert snapshot["done"] < snapshot["points"]
        finally:
            handle.stop()


class TestValidation:
    def test_empty_specs_rejected(self, client):
        with pytest.raises(GatewayError) as err:
            client.submit([])
        assert err.value.status == 400

    def test_malformed_spec_rejected(self, client):
        with pytest.raises(GatewayError) as err:
            client.submit([{"bogus": True}])
        assert err.value.status == 400

    def test_empty_store_queue_rejected(self, client):
        spec_dict = grid()[0].to_dict()
        spec_dict["config"]["store_queue_size"] = 0
        with pytest.raises(GatewayError) as err:
            client.submit([spec_dict])
        assert err.value.status == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(GatewayError) as err:
            client.status("does-not-exist")
        assert err.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(GatewayError) as err:
            client._request("GET", "/v2/nope")
        assert err.value.status == 404

    def test_garbage_body_400(self, gateway):
        _, handle = gateway
        host, port = handle.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        connection.request("POST", "/v1/jobs", body=b"{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        connection.close()


class TestAuth:
    @pytest.fixture
    def secured(self):
        gw = Gateway(token="hunter2")
        handle = gw.serve_in_thread()
        yield gw, handle
        handle.stop()

    def test_request_without_token_is_401(self, secured):
        gw, handle = secured
        client = GatewayClient("http://%s:%s" % handle.address, token="")
        with pytest.raises(GatewayError) as err:
            client.submit(grid()[:1])
        assert err.value.status == 401
        assert gw.unauthorized == 1

    def test_wrong_token_is_401(self, secured):
        _, handle = secured
        client = GatewayClient("http://%s:%s" % handle.address,
                               token="wrong")
        with pytest.raises(GatewayError) as err:
            client.metrics()
        assert err.value.status == 401

    def test_healthz_is_exempt(self, secured):
        _, handle = secured
        client = GatewayClient("http://%s:%s" % handle.address, token="")
        health = client.healthz()
        assert health["ok"] and health["auth"]

    def test_bearer_token_accepted_end_to_end(self, secured):
        _, handle = secured
        client = GatewayClient("http://%s:%s" % handle.address,
                               token="hunter2")
        results = client.run(grid()[:1])
        assert results[0].ipc > 0

    def test_401_sent_before_the_body_is_read(self, secured):
        """An unauthenticated client must not be able to make the
        gateway buffer a large body: the 401 arrives while the declared
        body remains unsent."""
        _, handle = secured
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 67108864\r\n\r\n")
            response = sock.recv(65536)  # no body ever sent
        assert b" 401 " in response.split(b"\r\n", 1)[0]

    def test_x_repro_token_header_accepted(self, secured):
        _, handle = secured
        host, port = handle.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        connection.request("GET", "/v1/metrics",
                           headers={"X-Repro-Token": "hunter2",
                                    "Accept": "application/json"})
        response = connection.getresponse()
        assert response.status == 200
        body = json.loads(response.read())
        assert body["requests"] >= 1
        connection.close()


class TestMetrics:
    def test_metrics_counts_work(self, client, gateway):
        gw, _ = gateway
        client.run(grid()[:2])
        metrics = client.metrics()
        assert metrics["points_executed"] + metrics["points_cached"] == 2
        assert metrics["rounds"] >= 1
        assert metrics["queue"]["jobs"]["done"] == 1
        assert metrics["executor"] == "SerialExecutor"

    def test_metrics_report_resilience_fields(self, client):
        metrics = client.metrics()
        assert metrics["round_failures"] == 0
        assert metrics["last_round_error"] is None
        assert metrics["degraded"] is None
        assert metrics["journal"] is False
        assert metrics["resumed_jobs"] == 0

    def test_fair_share_interleaves_two_clients(self, gateway):
        gw, handle = gateway
        url = "http://%s:%s" % handle.address
        alice = GatewayClient(url, client_id="alice")
        bob = GatewayClient(url, client_id="bob")
        specs = grid()
        job_a = alice.submit(specs)
        job_b = bob.submit(specs[:2])
        done_a = [e for e in alice.stream(job_a["id"])
                  if e["event"] == "end"]
        done_b = [e for e in bob.stream(job_b["id"])
                  if e["event"] == "end"]
        assert done_a[0]["state"] == done_b[0]["state"] == "done"
        # Both clients' jobs completed even though alice queued first
        # and submitted more points.
        assert gw.queue.counters()["jobs"]["done"] == 2


class TestStreamCursor:
    def test_after_skips_consumed_events(self, client):
        job = client.submit(grid()[:2])
        full = list(client.stream(job["id"]))
        again = list(client.stream(job["id"], after=1, reconnect=False))
        assert again == full[1:]

    def test_after_past_the_end_is_an_empty_stream(self, client):
        job = client.submit(grid()[:1])
        full = list(client.stream(job["id"]))
        late = list(client.stream(job["id"], after=len(full) + 5,
                                  reconnect=False))
        assert late == []

    def test_negative_after_is_400(self, client):
        job = client.submit(grid()[:1])
        list(client.stream(job["id"]))
        with pytest.raises(GatewayError) as err:
            list(client._stream_once(job["id"], -1, None))
        assert err.value.status == 400


class TestRoundFailureRecovery:
    @pytest.fixture(autouse=True)
    def _fresh_faults(self):
        clear()
        yield
        clear()

    def test_round_death_requeues_and_the_job_completes(self):
        install(FaultPlan.from_string("gateway.round:n=1"))
        gw = Gateway(max_inflight=2)
        handle = gw.serve_in_thread()
        try:
            client = GatewayClient("http://%s:%s" % handle.address)
            specs = grid()[:2]
            results = client.run(specs)
            serial = SerialExecutor().run(specs)
            assert ([r.to_dict() for r in results]
                    == [r.to_dict() for r in serial])
            metrics = client.metrics()
            assert metrics["round_failures"] == 1
            assert "injected fault" in metrics["last_round_error"]
        finally:
            handle.stop()

    def test_repeatedly_dying_rounds_fail_the_job(self):
        install(FaultPlan.from_string("gateway.round"))  # every round
        gw = Gateway(max_inflight=2, max_round_failures=1)
        handle = gw.serve_in_thread()
        try:
            client = GatewayClient("http://%s:%s" % handle.address)
            job = client.submit(grid()[:2])
            events = list(client.stream(job["id"]))
            assert events[-1]["event"] == "end"
            assert events[-1]["state"] == "failed"
            assert "injected fault" in events[-1]["error"]
        finally:
            handle.stop()


class TestDurableResume:
    """Gateway crash-and-resume: the ISSUE's kill-and-resume e2e."""

    @staticmethod
    def slow_grid(points):
        return [RunSpec("go", conventional_config()).resolved(
            20_000, 1_000, seed) for seed in range(points)]

    @staticmethod
    def make_gateway(tmp_path, resume, port=0):
        engine = BatchEngine(SerialExecutor(),
                             store=ResultStore(tmp_path / "store"))
        return Gateway(port=port, engine=engine, max_inflight=1,
                       journal=JobJournal(tmp_path / "wal"), resume=resume)

    def test_kill_and_resume_delivers_each_point_exactly_once(
            self, tmp_path):
        specs = self.slow_grid(6)
        gw1 = self.make_gateway(tmp_path, resume=False)
        handle1 = gw1.serve_in_thread()
        client1 = GatewayClient("http://%s:%s" % handle1.address)
        job = client1.submit(specs)
        first = []
        for event in client1.stream(job["id"], reconnect=False):
            first.append(event)
            if len(first) >= 2:
                break  # at least one point streamed; now "crash"
        handle1.stop()
        assert gw1.journal.path_for(job["id"]).exists()

        gw2 = self.make_gateway(tmp_path, resume=True)
        handle2 = gw2.serve_in_thread()
        try:
            assert gw2.resumed_jobs == 1
            client2 = GatewayClient("http://%s:%s" % handle2.address)
            rest = list(client2.stream(job["id"], after=len(first)))
            assert rest[-1]["event"] == "end"
            assert rest[-1]["state"] == "done"
            indices = ([e["index"] for e in first if e["event"] == "point"]
                       + [e["index"] for e in rest
                          if e["event"] == "point"])
            # No duplicate and no missing points across the restart.
            assert sorted(indices) == list(range(len(specs)))
            fetched = client2.fetch(job["id"])
            serial = SerialExecutor().run(specs)
            assert ([r.to_dict() for r in fetched]
                    == [r.to_dict() for r in serial])
            metrics = client2.metrics()
            assert metrics["journal"] is True
            assert metrics["resumed_jobs"] == 1
            # The journal retired the finished job's WAL.
            assert not gw2.journal.path_for(job["id"]).exists()
        finally:
            handle2.stop()

    def test_client_stream_reconnects_across_gateway_restart(
            self, tmp_path):
        specs = self.slow_grid(6)
        gw1 = self.make_gateway(tmp_path, resume=False)
        handle1 = gw1.serve_in_thread()
        port = handle1.address[1]
        client = GatewayClient("http://%s:%s" % handle1.address)
        job = client.submit(specs)
        events = []
        handle2 = None
        try:
            # One stream generator survives the gateway being replaced:
            # it reconnects with ?after=<delivered> to the new process.
            for event in client.stream(job["id"], timeout=5):
                events.append(event)
                if len(events) == 1:
                    handle1.stop()
                    gw2 = self.make_gateway(tmp_path, resume=True,
                                            port=port)
                    handle2 = gw2.serve_in_thread()
        finally:
            if handle2 is not None:
                handle2.stop()
        assert events[-1]["event"] == "end"
        assert events[-1]["state"] == "done"
        indices = [e["index"] for e in events if e["event"] == "point"]
        assert sorted(indices) == list(range(len(specs)))
        assert len(indices) == len(set(indices))
