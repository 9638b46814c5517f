"""CLI tests."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.uarch import native

needs_toolchain = pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")

#: What a ``REPRO_ENGINE`` naming the removed ``compiled`` tier reports.
BAD_ENGINE = "unknown engine 'compiled'; choose interp, native or auto"


class TestParsing:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc"])

    def test_scheme_choices(self):
        args = build_parser().parse_args(
            ["run", "swim", "--scheme", "vp-issue"])
        assert args.scheme == "vp-issue"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "swim", "--scheme", "magic"])

    def test_engine_choices_are_interp_and_native(self, capsys):
        args = build_parser().parse_args(
            ["run", "swim", "--engine", "native"])
        assert args.engine == "native"
        for argv in (["run", "swim", "--engine", "compiled"],
                     ["bench", "--engine", "both"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "'native'" in capsys.readouterr().err


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("go", "swim", "hydro2d"):
            assert name in out

    def test_run_conventional(self, capsys):
        rc = main(["run", "go", "-n", "400", "--skip", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "go" in out

    def test_run_vp_with_nrr(self, capsys):
        rc = main(["run", "swim", "-n", "400", "--skip", "50",
                   "--scheme", "vp-writeback", "--nrr", "8"])
        assert rc == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_early_release(self, capsys):
        rc = main(["run", "li", "-n", "300", "--skip", "50",
                   "--scheme", "early-release"])
        assert rc == 0

    def test_run_with_phys_override(self, capsys):
        rc = main(["run", "swim", "-n", "300", "--skip", "50",
                   "--scheme", "vp-writeback", "--phys", "48"])
        assert rc == 0

    @pytest.mark.parametrize("env, auto, last", [
        ("interp", "interp",
         "auto resolves to: interp (REPRO_ENGINE overrides)"),
        ("compiled", {"error": BAD_ENGINE},
         f"auto resolves to nothing: REPRO_ENGINE: {BAD_ENGINE}")])
    def test_engines_lists_two_tiers(self, capsys, monkeypatch, env, auto,
                                     last):
        """A ``REPRO_ENGINE`` naming no tier is reported (rc 1)."""
        monkeypatch.setenv("REPRO_ENGINE", env)
        rc = 1 if isinstance(auto, dict) else 0
        assert main(["engines"]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == [
            "interp", "native"]
        assert lines[2:] == [last]
        assert main(["engines", "--json"]) == rc
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"interp", "native", "resolved_auto",
                               "auto_reason"}
        assert report["interp"] == {"available": True}
        assert report["resolved_auto"] == auto

    def test_engines_says_what_auto_resolves_to(self, capsys, monkeypatch,
                                                tmp_path):
        """With ``REPRO_ENGINE`` unset, ``auto`` is native when the
        artifact can be built or loaded here, else interp, and the
        report says why."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        native.clear_cache()
        assert main(["engines"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        if native.toolchain() is None:
            assert last == ("auto resolves to: interp (no C toolchain; "
                            "REPRO_ENGINE overrides)")
        else:
            assert last == ("auto resolves to: native (builds on first "
                            "run; REPRO_ENGINE overrides)")
        monkeypatch.setattr(native, "_toolchain", None)
        assert main(["engines", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["resolved_auto"], report["auto_reason"]) == (
            "interp", "no C toolchain")
        native.clear_cache()

    @pytest.mark.parametrize("argv", [
        ["run", "go", "-n", "300", "--skip", "50"],
        ["sweep", "--nrr", "8", "--workloads", "go", "-n", "300",
         "--skip", "50", "--jobs", "1"]], ids=["run", "sweep"])
    @pytest.mark.parametrize("store", ["empty", "warm"])
    def test_bad_repro_engine_exits_2_whatever_the_store_holds(
            self, capsys, monkeypatch, tmp_path, argv, store):
        """A ``REPRO_ENGINE`` naming no tier stops a simulating command
        with one line and rc 2, also when the store would serve every
        point without running one."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        if store == "warm":
            assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"repro: REPRO_ENGINE: {BAD_ENGINE}\n")

    def test_engines_without_toolchain_falls_back_to_interp(
            self, capsys, monkeypatch, tmp_path):
        # With no artifact on disk either, native has nothing to load.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(native, "_toolchain", None)
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "native: UNAVAILABLE (no C toolchain" in out
        assert "engine=native falls back to interp" in out
        assert main(["engines", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["native"]
        assert (report["available"], report["artifact_on_disk"]) == (
            False, False)
        native.clear_cache()
        assert main(["engines", "--prebuild"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "repro engines --prebuild: no native artifact "
                "(no-toolchain)\n")
        native.clear_cache()

    @needs_toolchain
    def test_prebuilt_artifact_runs_without_a_toolchain(
            self, capsys, monkeypatch, tmp_path):
        """``--prebuild`` builds the one artifact, then finds it on disk
        or in memory; with it on disk and no toolchain, the tier is
        available and a native run does not fall back."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        native.clear_cache()
        assert main(["engines", "--prebuild"]) == 0
        outcome, path = capsys.readouterr().out.split()
        assert outcome == "built" and Path(path).is_file()
        assert main(["cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["native"][
            "artifacts"] == 1
        native.clear_cache()  # what a fresh process sees
        assert main(["engines", "--prebuild"]) == 0
        assert capsys.readouterr().out.split() == ["disk", path]
        assert main(["engines", "--prebuild"]) == 0
        assert capsys.readouterr().out.split() == ["memory", path]
        native.clear_cache()
        monkeypatch.setenv("REPRO_CC", "/nonexistent-cc")
        monkeypatch.setattr(native, "_toolchain", native._TOOLCHAIN_UNSET)
        assert main(["engines"]) == 0
        assert "native: available (artifact on disk" in \
            capsys.readouterr().out
        assert native.toolchain() is None
        assert main(["run", "go", "-n", "300", "--skip", "50",
                     "--engine", "native", "--no-cache", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["engine_fallbacks"] == 0
        native.clear_cache()

    @needs_toolchain
    def test_bench_engine_all_measures_interp_then_native(
            self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--engine", "all", "--workloads", "go",
                     "--schemes", "conventional", "-n", "300",
                     "--skip", "50", "--repeats", "1", "--quiet",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["engine"], list(report["engines"])) == (
            "interp+native", ["interp", "native"])
        assert set(report["speedup"]) == set(report["runs"])
        assert "median speedup" in capsys.readouterr().out

    def test_bench_engine_all_needs_a_toolchain(self, monkeypatch):
        monkeypatch.setattr(native, "_toolchain", None)
        with pytest.raises(SystemExit, match="needs a C toolchain"):
            main(["bench", "--engine", "all", "--quiet"])

    def test_compare(self, capsys):
        rc = main(["compare", "go", "-n", "400", "--skip", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "conventional" in out and "vp-writeback" in out

    def test_port_sweep_monotone(self, capsys):
        rc = main(["port-sweep", "--read-ports", "16,2",
                   "--policies", "conventional", "--workloads", "go",
                   "-n", "600", "--skip", "50", "--check-monotone",
                   "--no-cache"])
        out = capsys.readouterr().out
        assert "Port sensitivity" in out and "16 ports" in out
        assert rc == 0
        assert "monotonicity: OK" in out

    def test_port_sweep_monotone_gate_skips_writeback(self, capsys):
        """vp-writeback is documented as legitimately non-monotone, so
        --check-monotone must not gate it."""
        rc = main(["port-sweep", "--read-ports", "16,2",
                   "--policies", "vp-writeback", "--workloads", "go",
                   "-n", "400", "--skip", "40", "--check-monotone",
                   "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not gated for vp-writeback" in out
        assert "nothing gated" in out  # no malformed empty OK line
        assert "monotonicity: OK" not in out

    def test_port_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit, match="unknown renaming policy"):
            main(["port-sweep", "--policies", "magic"])

    def test_port_sweep_rejects_bad_ports(self):
        with pytest.raises(SystemExit, match="read-ports"):
            main(["port-sweep", "--read-ports", "sixteen"])
        # Below the structural floor: a clean message, not a traceback.
        with pytest.raises(SystemExit, match=">= 2"):
            main(["port-sweep", "--read-ports", "16,1"])

    def test_run_scheme_choices_come_from_registry(self):
        from repro.core.policy import policy_names

        parser = build_parser()
        args = parser.parse_args(["run", "swim"])
        assert args.scheme == "conventional"
        for name in policy_names():
            parser.parse_args(["run", "swim", "--scheme", name])

    def test_dump_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        rc = main(["dump-trace", "li", str(out_file), "-n", "100"])
        assert rc == 0
        from repro.trace.io import load_trace

        assert len(load_trace(out_file)) == 100

    def test_worker_requires_serve_flag(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_cluster_requires_workers(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        # A clean cache dir: no worker descriptors to fall back on.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit):
            main(["cluster", "status"])

    def test_cluster_status_reports_unreachable(self, capsys):
        rc = main(["cluster", "status", "--workers", "127.0.0.1:1",
                   "--timeout", "0.2"])
        assert rc == 1
        assert "UNREACHABLE" in capsys.readouterr().out

    def test_run_through_remote_worker(self, capsys):
        """End to end: `repro run --workers` round-trips a daemon."""
        from repro.engine import WorkerServer

        server = WorkerServer(port=0)
        server.serve_in_thread()
        try:
            host, port = server.address
            rc = main(["run", "go", "-n", "400", "--skip", "50",
                       "--no-cache", "--workers", f"{host}:{port}"])
            assert rc == 0
            assert "IPC" in capsys.readouterr().out
            assert server.served == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_cluster_status_and_stop_live_worker(self, capsys):
        from repro.engine import WorkerServer

        server = WorkerServer(port=0)
        thread = server.serve_in_thread()
        host, port = server.address
        address = f"{host}:{port}"
        try:
            assert main(["cluster", "status", "--workers", address]) == 0
            assert "[ok]" in capsys.readouterr().out
            assert main(["cluster", "stop", "--workers", address]) == 0
            assert "stopped" in capsys.readouterr().out
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            server.server_close()

    def test_cache_stats(self, capsys, monkeypatch, tmp_path):
        import json

        from repro.engine import ResultStore, RunSpec, execute_spec
        from repro.uarch.config import conventional_config

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec("go", conventional_config()).resolved(400, 100, 1)
        ResultStore().put(spec.key(), execute_spec(spec))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out and "1 segment(s)" in out
        assert "go" in out
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 1
        assert stats["workloads"] == {"go": 1}
        assert stats["bytes"] > 0

    def test_cache_compact_reports_merged_and_busy(self, capsys,
                                                     monkeypatch, tmp_path):
        import fcntl

        from repro.engine import ResultStore, RunSpec, execute_spec
        from repro.uarch.config import conventional_config

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec("go", conventional_config()).resolved(400, 100, 1)
        result = execute_spec(spec)
        ResultStore().put(spec.key(), result)
        (free,) = ResultStore().segment_paths()
        ResultStore().put("go:busy:400:100:1", result)
        (busy,) = set(ResultStore().segment_paths()) - {free}
        with open(busy, "rb") as held:
            fcntl.flock(held, fcntl.LOCK_SH)  # as put() holds it to write
            assert main(["cache", "compact"]) == 0
        assert ("merged 1 segment(s), left 1 busy"
                in capsys.readouterr().out)
        assert main(["cache", "compact"]) == 0
        assert ("merged 1 segment(s), left 0 busy"
                in capsys.readouterr().out)
        assert ResultStore().segment_paths() == []

    def test_cache_stats_empty_store(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    def test_submit_status_fetch_against_gateway(self, capsys,
                                                 monkeypatch):
        """End to end: the client commands speak the gateway's API."""
        import json

        from repro.service import Gateway

        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        gateway = Gateway()
        handle = gateway.serve_in_thread()
        url = "http://%s:%s" % handle.address
        try:
            rc = main(["submit", "--url", url, "--nrr", "8",
                       "--workloads", "go", "-n", "600", "--skip", "100"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "submitted" in out and "IPC=" in out
            assert "done" in out
            job_id = out.split("job ", 1)[1].split(":", 1)[0]
            assert main(["status", job_id, "--url", url]) == 0
            assert "done (2/2" in capsys.readouterr().out
            assert main(["fetch", job_id, "--url", url]) == 0
            assert "IPC=" in capsys.readouterr().out
            assert main(["fetch", job_id, "--url", url, "--json"]) == 0
            results = json.loads(capsys.readouterr().out)
            assert len(results) == 2
            assert all(r["stats"]["committed"] for r in results)
        finally:
            handle.stop()

    def test_submit_detach_prints_job_id(self, capsys, monkeypatch):
        from repro.service import Gateway

        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        gateway = Gateway()
        handle = gateway.serve_in_thread()
        url = "http://%s:%s" % handle.address
        try:
            rc = main(["submit", "--url", url, "--nrr", "8",
                       "--workloads", "go", "-n", "600", "--skip", "100",
                       "--detach"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "repro status" in out and "repro fetch" in out
        finally:
            handle.stop()

    def test_submit_unreachable_gateway_is_clean_error(self):
        with pytest.raises(SystemExit, match="unreachable"):
            main(["submit", "--url", "http://127.0.0.1:1",
                  "--workloads", "go"])

    def test_worker_descriptor_lifecycle(self, capsys, monkeypatch,
                                         tmp_path):
        """`repro worker --serve` records its address; `repro cluster
        status` with no --workers discovers it; the descriptor is
        removed on shutdown."""
        import threading
        import time

        from repro.engine import read_worker_descriptors

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.update(
                code=main(["worker", "--serve", "--port", "0",
                           "--no-cache"])),
            daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while (not read_worker_descriptors(tmp_path)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        ((path, record),) = read_worker_descriptors(tmp_path)
        assert record["auth"] is False
        assert main(["cluster", "status"]) == 0
        out = capsys.readouterr().out
        assert "discovered 1 worker(s)" in out and "[ok]" in out
        address = f"{record['host']}:{record['port']}"
        assert main(["cluster", "stop", "--workers", address]) == 0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert rc["code"] == 0
        assert read_worker_descriptors(tmp_path) == []

    def test_experiment_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRS", "300")
        monkeypatch.setenv("REPRO_BENCH_SKIP", "50")
        # Fresh cache so the tiny budget doesn't pollute other tests.
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "SHARED_CACHE",
                            runner_mod.ResultCache())
        rc = main(["table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "hmean" in out
