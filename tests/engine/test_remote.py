"""Remote execution backend: protocol, fan-out, retry, determinism."""

import json
import socket
import threading

import pytest

from repro.engine import (
    RemoteExecutor,
    ResultStore,
    RunSpec,
    SerialExecutor,
    WorkerServer,
    make_executor,
    parse_workers,
    ping_worker,
    shutdown_worker,
)
from repro.uarch.config import conventional_config, virtual_physical_config


def small_grid():
    return [RunSpec(w, c).resolved(600, 100, 1)
            for w in ("go", "swim")
            for c in (conventional_config(),
                      virtual_physical_config(nrr=8))]


@pytest.fixture
def worker():
    server = WorkerServer(port=0)
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def worker_pair():
    servers = [WorkerServer(port=0), WorkerServer(port=0)]
    for server in servers:
        server.serve_in_thread()
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


class BadWorker:
    """A fake worker that accepts connections and slams them shut."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.address = self.sock.getsockname()
        self._stop = threading.Event()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
                conn.close()
            except OSError:
                return

    def close(self):
        self._stop.set()
        self.sock.close()


class TestParseWorkers:
    def test_string_forms(self):
        assert parse_workers("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_workers("host") == [("host", 8642)]
        assert parse_workers(None) == []
        assert parse_workers("") == []

    def test_iterable_forms(self):
        assert parse_workers([("a", 1), "b:2"]) == [("a", 1), ("b", 2)]

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            parse_workers(":7000")


class TestProtocol:
    def test_ping_reports_version_and_pid(self, worker):
        status = ping_worker(worker.address)
        assert status["ok"]
        assert status["version"] == worker.version
        assert status["served"] == 0

    def test_shutdown_stops_the_daemon(self):
        server = WorkerServer(port=0)
        thread = server.serve_in_thread()
        status = shutdown_worker(server.address)
        assert status["ok"]
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()

    def test_shutdown_replies_before_the_daemon_can_stop(self,
                                                        monkeypatch):
        """``shutdown`` writes its reply before ``serve_forever`` can
        return: a daemon process exits right after that, and a reply
        still unwritten then is lost (``repro cluster stop`` reported
        the worker UNREACHABLE).  Freshly started workers, every time."""
        from repro.engine import remote

        replied = threading.Event()
        real_reply = remote._WorkerHandler._reply

        def reply(handler, response):
            real_reply(handler, response)
            replied.set()

        monkeypatch.setattr(remote._WorkerHandler, "_reply", reply)
        seen = []
        for _ in range(3):
            replied.clear()
            server = WorkerServer(port=0)
            thread = server.serve_in_thread()
            stop = server.shutdown

            def shutdown(stop=stop):
                seen.append(replied.is_set())
                stop()

            server.shutdown = shutdown
            assert shutdown_worker(server.address)["ok"]
            thread.join(timeout=5)
            assert not thread.is_alive()
            server.server_close()
        assert seen == [True] * 3

    def test_unknown_op_is_an_error_not_a_crash(self, worker):
        with pytest.raises(RuntimeError, match="unknown op"):
            from repro.engine.remote import _request

            _request(worker.address, {"op": "frobnicate"}, timeout=5)
        assert ping_worker(worker.address)["ok"]  # daemon survived

    def test_malformed_specs_reported_as_error(self, worker):
        from repro.engine.remote import _request

        with pytest.raises(RuntimeError):
            _request(worker.address,
                     {"op": "run_batch", "specs": [{"bogus": 1}]},
                     timeout=5)
        assert ping_worker(worker.address)["ok"]


class TestRemoteExecutor:
    def test_roundtrip_matches_serial_bit_identical(self, worker_pair):
        """The acceptance check: remote == serial on the same grid."""
        specs = small_grid()
        executor = RemoteExecutor([s.address for s in worker_pair],
                                  chunk_size=1)
        remote = executor.run(specs)
        serial = SerialExecutor().run(specs)
        assert ([r.to_dict() for r in remote]
                == [r.to_dict() for r in serial])
        # Both workers actually participated.
        assert all(server.served > 0 for server in worker_pair)
        assert executor.last_run_report["retries"] == 0

    def test_chunked_scheduling_covers_whole_grid(self, worker):
        specs = small_grid()
        executor = RemoteExecutor([worker.address], chunk_size=3)
        results = executor.run(specs)
        assert len(results) == len(specs)
        assert executor.last_run_report["tasks"] == 2  # ceil(4 / 3)

    def test_progress_callback_counts_every_spec(self, worker):
        seen = []
        executor = RemoteExecutor([worker.address], chunk_size=2)
        executor.run(small_grid(),
                     progress=lambda done, total, spec: seen.append(
                         (done, total)))
        assert seen[-1] == (4, 4)

    def test_worker_death_retries_on_the_survivor(self, worker):
        """A worker that dies mid-run only costs retries, not results."""
        bad = BadWorker()
        try:
            specs = small_grid()
            executor = RemoteExecutor([bad.address, worker.address],
                                      chunk_size=1)
            results = executor.run(specs)
            assert ([r.to_dict() for r in results]
                    == [r.to_dict() for r in SerialExecutor().run(specs)])
            report = executor.last_run_report
            assert report["retries"] > 0 or not report["errors"]
        finally:
            bad.close()

    def test_all_workers_unreachable_raises(self):
        """With on_cluster_loss="fail", an unreachable cluster is a
        hard error (the pre-degradation behavior)."""
        with pytest.raises(RuntimeError, match="no usable remote workers"):
            RemoteExecutor([("127.0.0.1", 1)],
                           on_cluster_loss="fail").run(small_grid()[:1])

    def test_unreachable_cluster_falls_back_locally(self):
        """The default on_cluster_loss="fallback" completes the run on
        a local executor and reports the degradation loudly."""
        executor = RemoteExecutor([("127.0.0.1", 1)])
        specs = small_grid()[:2]
        results = executor.run(specs)
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in SerialExecutor().run(specs)])
        degraded = executor.last_run_report["degraded"]
        assert degraded["points"] == 2
        assert "no usable remote workers" in degraded["reason"]

    def test_mid_run_version_drift_is_rejected(self, worker):
        """A worker restarted with different code between the probe and
        the batch must not contribute results (they'd be stored under
        the coordinator's version key)."""
        executor = RemoteExecutor([worker.address], max_task_attempts=2,
                                  on_cluster_loss="fail")
        # Probe sees a matching version; run_batch then reports drift.
        worker.version = "drifted-build"
        worker.status = lambda: {"ok": True, "version": executor.version,
                                 "pid": 0, "served": 0}
        with pytest.raises(RuntimeError, match="incomplete"):
            executor.run(small_grid()[:1])
        assert any("drifted-build" in err
                   for err in executor.last_run_report["errors"])

    def test_version_mismatch_is_rejected(self, worker):
        worker.version = "somebody-elses-build"
        executor = RemoteExecutor([worker.address], on_cluster_loss="fail")
        alive, rejected = executor.probe()
        assert alive == []
        assert "version" in rejected[0][1]
        with pytest.raises(RuntimeError, match="no usable remote workers"):
            executor.run(small_grid()[:1])

    def test_empty_grid_short_circuits(self):
        assert RemoteExecutor([("127.0.0.1", 1)]).run([]) == []

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])


class TestWorkerStore:
    def test_worker_serves_repeats_from_its_store(self, tmp_path):
        server = WorkerServer(port=0, store=ResultStore(tmp_path))
        server.serve_in_thread()
        try:
            spec = small_grid()[0]
            executor = RemoteExecutor([server.address])
            first = executor.run([spec])[0]
            assert len(ResultStore(tmp_path).segment_paths()) == 1
            again = executor.run([spec])[0]
            assert again.to_dict() == first.to_dict()
            # Second batch hit the worker's store: still one record.
            store = ResultStore(tmp_path)
            assert len(store) == 1
        finally:
            server.shutdown()
            server.server_close()


class TestWorkerAuth:
    """Shared-token auth on the worker TCP protocol (REPRO_TOKEN)."""

    @pytest.fixture
    def secured(self):
        server = WorkerServer(port=0, token="hunter2")
        server.serve_in_thread()
        yield server
        server.shutdown()
        server.server_close()

    def test_request_without_token_is_refused(self, secured, monkeypatch):
        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        with pytest.raises(RuntimeError, match="unauthorized"):
            ping_worker(secured.address)

    def test_wrong_token_is_refused(self, secured):
        with pytest.raises(RuntimeError, match="unauthorized"):
            ping_worker(secured.address, token="wrong")

    def test_shutdown_needs_the_token_too(self, secured):
        with pytest.raises(RuntimeError, match="unauthorized"):
            shutdown_worker(secured.address, token="nope")
        assert ping_worker(secured.address, token="hunter2")["ok"]

    def test_matching_token_runs_batches(self, secured):
        executor = RemoteExecutor([secured.address], token="hunter2")
        specs = small_grid()[:2]
        results = executor.run(specs)
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in SerialExecutor().run(specs)])

    def test_unauthenticated_executor_finds_no_workers(self, secured,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        executor = RemoteExecutor([secured.address], token="")
        alive, rejected = executor.probe()
        assert alive == []
        assert "unauthorized" in rejected[0][1]

    def test_env_token_pairs_both_sides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TOKEN", "s3cret")
        server = WorkerServer(port=0)  # picks the env token up
        server.serve_in_thread()
        try:
            status = ping_worker(server.address)  # ditto
            assert status["ok"] and status["auth"]
        finally:
            server.shutdown()
            server.server_close()

    def test_open_worker_ignores_stray_tokens(self, worker):
        # Auth off: a client configured with a token still gets served.
        assert ping_worker(worker.address, token="anything")["ok"]
        assert worker.status()["auth"] is False


class TestConfigurableKnobs:
    """REPRO_HEARTBEAT / REPRO_RETRIES / REPRO_CONNECT_TIMEOUT."""

    def test_defaults(self, monkeypatch):
        for name in ("REPRO_HEARTBEAT", "REPRO_RETRIES",
                     "REPRO_CONNECT_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        executor = RemoteExecutor("h:1")
        assert executor.heartbeat_interval == 5.0
        assert executor.max_task_attempts == 3
        assert executor.connect_timeout == 5.0

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.5")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_CONNECT_TIMEOUT", "2.5")
        executor = RemoteExecutor("h:1")
        assert executor.heartbeat_interval == 0.5
        assert executor.max_task_attempts == 7
        assert executor.connect_timeout == 2.5

    def test_explicit_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        executor = RemoteExecutor("h:1", max_task_attempts=2,
                                  heartbeat_interval=1.0,
                                  connect_timeout=0.1)
        assert executor.max_task_attempts == 2
        assert executor.heartbeat_interval == 1.0
        assert executor.connect_timeout == 0.1

    def test_make_executor_passes_the_knobs(self):
        executor = make_executor(kind="remote", workers="h:1",
                                 heartbeat=9.0, retries=5,
                                 connect_timeout=1.5)
        assert executor.heartbeat_interval == 9.0
        assert executor.max_task_attempts == 5
        assert executor.connect_timeout == 1.5

    def test_garbage_environment_value_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            RemoteExecutor("h:1")


class TestWorkerDescriptors:
    """worker-<host>-<pid>.json records under the cache directory."""

    def test_write_read_remove_roundtrip(self, tmp_path):
        from repro.engine import (
            read_worker_descriptors,
            remove_worker_descriptor,
            write_worker_descriptor,
        )

        path = write_worker_descriptor(("127.0.0.1", 8642),
                                       directory=tmp_path, auth=True)
        assert path is not None and path.name.startswith("worker-")
        ((found, record),) = read_worker_descriptors(tmp_path)
        assert found == path
        assert (record["host"], record["port"]) == ("127.0.0.1", 8642)
        assert record["auth"] is True
        assert record["pid"] > 0
        remove_worker_descriptor(path)
        assert read_worker_descriptors(tmp_path) == []

    def test_wildcard_bind_advertises_hostname(self, tmp_path):
        import socket as socket_module

        from repro.engine import (
            read_worker_descriptors,
            write_worker_descriptor,
        )

        write_worker_descriptor(("0.0.0.0", 7000), directory=tmp_path)
        ((_, record),) = read_worker_descriptors(tmp_path)
        assert record["host"] == socket_module.gethostname()

    def test_corrupt_descriptor_skipped(self, tmp_path):
        from repro.engine import read_worker_descriptors

        (tmp_path / "worker-bad-1.json").write_text("{nope")
        assert read_worker_descriptors(tmp_path) == []


class TestMakeExecutor:
    def test_remote_kind_from_workers_argument(self):
        executor = make_executor(kind="remote", workers="h1:7000,h2")
        assert isinstance(executor, RemoteExecutor)
        assert executor.workers == [("h1", 7000), ("h2", 8642)]

    def test_workers_argument_implies_remote(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        executor = make_executor(workers="h1:7000")
        assert isinstance(executor, RemoteExecutor)

    def test_explicit_workers_beat_env_kind(self, monkeypatch):
        """--workers must not be silently overridden by a leftover
        REPRO_EXECUTOR in the environment."""
        monkeypatch.setenv("REPRO_EXECUTOR", "persistent")
        executor = make_executor(workers="h1:7000")
        assert isinstance(executor, RemoteExecutor)

    def test_remote_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "remote")
        monkeypatch.setenv("REPRO_WORKERS", "h1:7000")
        executor = make_executor()
        assert isinstance(executor, RemoteExecutor)

    def test_remote_without_workers_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(ValueError):
            make_executor(kind="remote")


class TestStructuredErrors:
    """Satellite: malformed requests get one-line JSON errors back."""

    def _raw_request(self, address, payload):
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(payload)
            line = sock.makefile("rb").readline()
        assert line.endswith(b"\n")
        return json.loads(line.decode("utf-8"))

    def test_malformed_json_gets_structured_error(self, worker):
        reply = self._raw_request(worker.address, b"this is not json\n")
        assert reply["ok"] is False
        assert reply["kind"] == "protocol"
        assert "error" in reply
        assert ping_worker(worker.address)["ok"]  # daemon survived

    def test_non_object_request_gets_structured_error(self, worker):
        reply = self._raw_request(worker.address, b"[1, 2, 3]\n")
        assert reply["ok"] is False
        assert reply["kind"] == "protocol"

    def test_oversized_request_gets_structured_error(self):
        server = WorkerServer(port=0, max_line=512)
        server.serve_in_thread()
        try:
            reply = self._raw_request(
                server.address, b'{"op": "ping", "pad": "' + b"x" * 2048
                + b'"}\n')
            assert reply["ok"] is False
            assert reply["kind"] == "protocol"
            assert "exceeds" in reply["error"]
            assert ping_worker(server.address)["ok"]
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_batch_raises_protocol_error(self, worker):
        from repro.engine import WorkerProtocolError
        from repro.engine.remote import _request

        with pytest.raises(WorkerProtocolError) as excinfo:
            _request(worker.address,
                     {"op": "run_batch", "specs": [{"bogus": 1}]},
                     timeout=5)
        assert excinfo.value.kind == "protocol"

    def test_garbage_reply_is_a_protocol_error(self, worker):
        from repro.engine import FaultPlan, WorkerProtocolError
        from repro.engine import faults as faults_mod
        from repro.engine.remote import _request

        faults_mod.install(FaultPlan.from_string("worker.garbage_reply:n=1"))
        try:
            spec = small_grid()[0]
            with pytest.raises(WorkerProtocolError):
                _request(worker.address,
                         {"op": "run_batch", "specs": [spec.to_dict()],
                          "version": worker.version},
                         timeout=15)
        finally:
            faults_mod.clear()

    def test_protocol_refusal_moves_task_to_other_worker(self, worker_pair):
        """A worker that talks garbage is refused for that task, but the
        task completes on the other worker and results stay correct."""
        from repro.engine import FaultPlan
        from repro.engine import faults as faults_mod

        specs = small_grid()
        faults_mod.install(
            FaultPlan.from_string("worker.garbage_reply:n=1"))
        try:
            executor = RemoteExecutor([s.address for s in worker_pair],
                                      chunk_size=1, on_cluster_loss="fail")
            remote = executor.run(specs)
        finally:
            faults_mod.clear()
        serial = SerialExecutor().run(specs)
        assert ([r.to_dict() for r in remote]
                == [r.to_dict() for r in serial])


class TestChaosProperty:
    """Tentpole proof: seeded chaos stays bit-identical to serial."""

    @pytest.fixture(autouse=True)
    def _fresh_faults(self):
        from repro.engine import faults as faults_mod

        faults_mod.clear()
        yield
        faults_mod.clear()

    def test_seeded_fault_plan_bit_identical_to_serial(self, worker_pair):
        from repro.engine import FaultPlan
        from repro.engine import faults as faults_mod

        specs = small_grid()
        plan = FaultPlan.from_string(
            "seed=11;remote.connect:p=0.4,n=2;remote.chunk_reply:n=1;"
            "worker.crash_before_reply:n=1")
        faults_mod.install(plan)
        executor = RemoteExecutor([s.address for s in worker_pair],
                                  chunk_size=1, max_task_attempts=10,
                                  quarantine_cooldown=0.2,
                                  on_cluster_loss="fail")
        remote = executor.run(specs)
        report = plan.report()
        faults_mod.clear()
        serial = SerialExecutor().run(specs)
        assert ([r.to_dict() for r in remote]
                == [r.to_dict() for r in serial])
        # The chaos actually happened — at least the always-fire counted
        # sites must have triggered.
        assert report["fired"].get("remote.chunk_reply") == 1
        assert report["fired"].get("worker.crash_before_reply") == 1
        assert executor.last_run_report["retries"] >= 2

    def test_cluster_loss_mid_run_falls_back_and_stays_identical(self):
        """Workers die for good mid-run; the local fallback finishes the
        batch and the merged results are still bit-identical."""
        from repro.engine import FaultPlan
        from repro.engine import faults as faults_mod

        server = WorkerServer(port=0)
        server.serve_in_thread()
        specs = small_grid()
        # Every request after the version handshake fails: the single
        # worker is lost after its first chunk reply is dropped.
        faults_mod.install(FaultPlan.from_string("remote.connect:after=2"))
        try:
            executor = RemoteExecutor([server.address], chunk_size=1,
                                      max_task_attempts=2,
                                      quarantine_cooldown=0.1)
            remote = executor.run(specs)
        finally:
            faults_mod.clear()
            server.shutdown()
            server.server_close()
        serial = SerialExecutor().run(specs)
        assert ([r.to_dict() for r in remote]
                == [r.to_dict() for r in serial])
        degraded = executor.last_run_report.get("degraded")
        assert degraded is not None
        assert degraded["fallback"] == "SerialExecutor"
        assert degraded["points"] >= 1
