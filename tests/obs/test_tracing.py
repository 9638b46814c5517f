"""Trace spans: propagation, JSONL durability, and engine coverage."""

import json
import os
import threading

from repro.engine import BatchEngine, ResultStore, RunSpec, SerialExecutor
from repro.obs.metrics import get_registry
from repro.obs.tracing import (
    SPAN_PHASES,
    SpanLog,
    current_trace,
    new_trace_id,
    read_spans,
    record_span,
    telemetry_dir,
    telemetry_enabled,
    telemetry_stats,
    trace_context,
)
from repro.uarch.config import conventional_config


def small_spec(workload="go", seed=7):
    return RunSpec(workload, conventional_config()).resolved(400, 100, seed)


class TestContext:
    def test_thread_local_binding_restores(self):
        assert current_trace() is None
        with trace_context("t1"):
            assert current_trace() == "t1"
            with trace_context("t2"):
                assert current_trace() == "t2"
            assert current_trace() == "t1"
        assert current_trace() is None

    def test_none_is_a_passthrough(self):
        with trace_context("outer"):
            with trace_context(None):
                assert current_trace() == "outer"

    def test_context_does_not_leak_across_threads(self):
        seen = {}

        def probe():
            seen["trace"] = current_trace()

        with trace_context("t1"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["trace"] is None

    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 32 and int(t, 16) >= 0 for t in ids)


class TestSpanLog:
    def test_records_are_whole_lines(self, tmp_path):
        log = SpanLog(tmp_path)
        for i in range(10):
            log.append({"i": i})
        log.close()
        (segment,) = list(tmp_path.iterdir())
        lines = segment.read_text().splitlines()
        assert [json.loads(line)["i"] for line in lines] == list(range(10))

    def test_io_failure_flips_broken_and_drops(self, tmp_path):
        log = SpanLog(tmp_path / "nope")
        log._ensure_fd()
        os.close(log._fd)  # sabotage: writes now fail EBADF
        log.append({"x": 1})
        assert log.broken
        log.append({"x": 2})  # silently dropped, no raise
        log._fd = None  # avoid double-close in any cleanup

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        trace = new_trace_id()
        record_span("run", "n", 1.0, 0.5, trace=trace,
                    directory=tmp_path)
        (segment,) = [p for p in (tmp_path / "telemetry").iterdir()]
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write('{"torn": \n')
        assert len(read_spans(directory=tmp_path, trace=trace)) == 1
        stats = telemetry_stats(directory=tmp_path)
        assert stats["spans"] == 1
        assert stats["corrupt"] == 1
        assert stats["segments"] == 1

    def _bad_byte_between_two_spans(self, directory):
        trace = new_trace_id()
        record_span("run", "first", 1.0, 0.5, trace=trace,
                    directory=directory)
        (segment,) = (directory / "telemetry").iterdir()
        with open(segment, "ab") as fh:
            fh.write(b"\xff\n")  # not UTF-8
        record_span("run", "second", 2.0, 0.5, trace=trace,
                    directory=directory)
        return trace

    def test_undecodable_byte_is_skipped_by_read_spans(self, tmp_path):
        trace = self._bad_byte_between_two_spans(tmp_path)
        spans = read_spans(directory=tmp_path, trace=trace)
        assert [s["name"] for s in spans] == ["first", "second"]

    def test_undecodable_byte_is_counted_by_telemetry_stats(self,
                                                            tmp_path):
        self._bad_byte_between_two_spans(tmp_path)
        stats = telemetry_stats(directory=tmp_path)
        assert (stats["spans"], stats["corrupt"]) == (2, 1)


class TestRecordSpan:
    def test_untraced_spans_are_dropped(self, tmp_path):
        assert record_span("run", "n", 1.0, 0.1,
                           directory=tmp_path) is None
        assert read_spans(directory=tmp_path) == []

    def test_ambient_trace_is_picked_up(self, tmp_path):
        trace = new_trace_id()
        with trace_context(trace):
            span = record_span("run", "n", 1.0, 0.1, directory=tmp_path)
        assert span is not None
        (record,) = read_spans(directory=tmp_path)
        assert record["trace"] == trace
        assert record["span"] == span
        assert record["phase"] == "run"
        assert record["pid"] == os.getpid()

    def test_telemetry_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert not telemetry_enabled()
        assert record_span("run", "n", 1.0, 0.1, trace="t",
                           directory=tmp_path) is None
        assert read_spans(directory=tmp_path) == []

    def test_schema_fields(self, tmp_path):
        record_span("store", "engine.store-put", 5.0, 0.25,
                    trace="t", parent="p", outcome="error",
                    attrs={"key": "k"}, directory=tmp_path)
        (record,) = read_spans(directory=tmp_path)
        assert set(record) == {"trace", "span", "parent", "phase",
                               "name", "host", "pid", "start", "dur",
                               "outcome", "attrs"}
        assert record["parent"] == "p"
        assert record["outcome"] == "error"
        assert record["attrs"] == {"key": "k"}

    def test_read_spans_sorted_and_filtered(self, tmp_path):
        record_span("run", "b", 2.0, 0.1, trace="t1", directory=tmp_path)
        record_span("run", "a", 1.0, 0.1, trace="t2", directory=tmp_path)
        spans = read_spans(directory=tmp_path)
        assert [s["name"] for s in spans] == ["a", "b"]
        assert [s["trace"] for s in read_spans(directory=tmp_path,
                                               trace="t1")] == ["t1"]


class TestEngineCoverage:
    """A traced BatchEngine run must leave the acceptance span trail."""

    def test_traced_run_covers_queue_dispatch_run_store(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = BatchEngine(SerialExecutor(), store=ResultStore(tmp_path))
        trace = new_trace_id()
        specs = [small_spec("go"), small_spec("swim")]
        engine.run(specs, trace=trace)

        spans = read_spans(directory=tmp_path, trace=trace)
        phases = {span["phase"] for span in spans}
        assert {"queue", "dispatch", "run", "store"} <= phases
        assert phases <= set(SPAN_PHASES)
        assert {span["trace"] for span in spans} == {trace}
        runs = [span for span in spans if span["phase"] == "run"]
        assert {span["attrs"]["workload"] for span in runs} == {"go",
                                                                "swim"}
        assert all(span["outcome"] == "ok" for span in spans)

    def test_run_spans_and_counter_name_the_tier_that_ran(
            self, tmp_path, monkeypatch):
        """The ``engine.run`` span's ``engine`` attribute and
        ``repro_engine_runs_total{tier}`` report ``Processor.engine_used``,
        not the requested ``auto``; ``SimStats`` does not carry it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runs = get_registry().counter(
            "repro_engine_runs_total", "", labelnames=("tier",))
        before = {tier: runs.value(tier=tier)
                  for tier in ("interp", "native")}
        engine = BatchEngine(SerialExecutor())
        trace = new_trace_id()
        pinned = small_spec("li").config.with_(engine="interp")
        specs = [small_spec("go"),
                 RunSpec("li", pinned).resolved(400, 100, 1)]
        results = engine.run(specs, trace=trace)
        tiers = [result.engine_used for result in results]
        assert tiers[1] == "interp" and tiers[0] in ("interp", "native")
        assert "engine_used" not in results[0].stats.to_dict()
        spans = read_spans(directory=tmp_path, trace=trace)
        assert sorted(span["attrs"]["engine"] for span in spans
                      if span["name"] == "engine.run") == sorted(tiers)
        for tier in ("interp", "native"):
            assert (runs.value(tier=tier) - before[tier]
                    == tiers.count(tier))

    def test_cache_served_rerun_skips_execution_phases(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = ResultStore(tmp_path)
        spec = small_spec("compress")
        BatchEngine(SerialExecutor(), store=store).run([spec])

        trace = new_trace_id()
        BatchEngine(SerialExecutor(),
                    store=ResultStore(tmp_path)).run([spec], trace=trace)
        spans = read_spans(directory=tmp_path, trace=trace)
        phases = {span["phase"] for span in spans}
        assert "queue" in phases  # the cache scan is still visible
        assert "run" not in phases  # nothing executed
        (scan,) = [s for s in spans if s["name"] == "engine.cache-scan"]
        assert scan["attrs"]["store_hits"] == 1
        assert scan["attrs"]["pending"] == 0

    def test_untraced_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        BatchEngine(SerialExecutor()).run([small_spec()])
        assert read_spans(directory=tmp_path) == []

    def test_ambient_context_traces_a_plain_run(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        trace = new_trace_id()
        with trace_context(trace):
            BatchEngine(SerialExecutor()).run([small_spec(seed=11)])
        spans = read_spans(directory=tmp_path, trace=trace)
        assert {span["phase"] for span in spans} >= {"dispatch", "run"}
