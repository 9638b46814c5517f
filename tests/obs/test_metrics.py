"""Metrics registry and Prometheus text exposition (format 0.0.4)."""

import importlib.util
import math
import pathlib
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_scrape.prom"


def load_checker():
    """The CI scrape validator, imported straight from tools/."""
    spec = importlib.util.spec_from_file_location(
        "metrics_check", REPO_ROOT / "tools" / "metrics_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_registry():
    """A deterministic registry whose render is pinned byte-for-byte."""
    registry = MetricsRegistry()
    jobs = registry.counter("repro_test_jobs_total", "Jobs per tenant.",
                            labelnames=("client",))
    jobs.inc(client="alice")
    jobs.inc(3, client='evil"tenant\\with\nnewline')
    uptime = registry.gauge("repro_test_uptime_seconds",
                            "Seconds since start.")
    uptime.set(12.5)
    latency = registry.histogram(
        "repro_test_latency_seconds", "Chunk latency.",
        labelnames=("worker",), buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.05, 0.5, 2.0, 99.0):
        latency.observe(value, worker="w1")
    return registry


class TestValidation:
    def test_metric_name_charset_enforced(self):
        for bad in ("2leading", "has-dash", "has space", ""):
            with pytest.raises(ValueError):
                Counter(bad, "x")
        Counter("legal:name_0", "x")  # colons/underscores/digits are fine

    def test_label_name_charset_enforced(self):
        for bad in ("2x", "has-dash", "", "__reserved"):
            with pytest.raises(ValueError):
                Counter("ok", "x", labelnames=(bad,))

    def test_exact_label_set_required(self):
        counter = Counter("ok", "x", labelnames=("client",))
        with pytest.raises(ValueError):
            counter.inc()  # missing
        with pytest.raises(ValueError):
            counter.inc(client="a", extra="b")  # surplus

    def test_counters_only_increase(self):
        counter = Counter("ok", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"


class TestInstruments:
    def test_counter_accumulates_per_series(self):
        counter = Counter("c", "x", labelnames=("k",))
        counter.inc(k="a")
        counter.inc(2, k="a")
        counter.inc(k="b")
        assert counter.value(k="a") == 3
        assert counter.value(k="b") == 1
        assert counter.value(k="never") == 0

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g", "x")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_histogram_buckets_are_cumulative_and_capped_by_count(self):
        hist = Histogram("h", "x", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        lines = hist.render()
        buckets = [line for line in lines if "_bucket" in line]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        # Cumulative: monotone non-decreasing, +Inf equals _count.
        assert counts == sorted(counts)
        assert buckets[-1].startswith('h_bucket{le="+Inf"}')
        assert counts[-1] == 5
        (count_line,) = [line for line in lines
                         if line.startswith("h_count")]
        assert count_line == "h_count 5"

    def test_histogram_percentiles_from_reservoir(self):
        hist = Histogram("h", "x", labelnames=("w",))
        assert hist.percentile(50, w="a") is None
        for value in range(1, 101):
            hist.observe(value / 100.0, w="a")
        assert hist.percentile(50, w="a") == pytest.approx(0.5, abs=0.02)
        assert hist.percentile(95, w="a") == pytest.approx(0.95, abs=0.02)
        p50, p95 = hist.percentile(50, w="a"), hist.percentile(95, w="a")
        assert p50 <= p95

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "x", buckets=())

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c", "x", labelnames=("k",))
        b = registry.counter("c", "x", labelnames=("k",))
        assert a is b

    def test_kind_or_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c", "x", labelnames=("k",))
        with pytest.raises(ValueError):
            registry.gauge("c", "x", labelnames=("k",))
        with pytest.raises(ValueError):
            registry.counter("c", "x", labelnames=("other",))

    def test_broken_collector_does_not_kill_the_scrape(self):
        registry = MetricsRegistry()
        registry.counter("c", "x").inc()

        def explode():
            raise RuntimeError("collector bug")

        registry.add_collector(explode)
        assert "c 1" in registry.render()

    def test_process_default_registry_is_shared(self):
        assert get_registry() is get_registry()

    def test_snapshot_shape(self):
        registry = golden_registry()
        snap = registry.snapshot()
        assert snap["repro_test_jobs_total"]["kind"] == "counter"
        series = snap["repro_test_jobs_total"]["series"]
        assert {"labels": {"client": "alice"}, "value": 1.0} in series
        hist = snap["repro_test_latency_seconds"]["series"]
        assert hist == [{"labels": {"worker": "w1"}, "count": 5,
                         "sum": pytest.approx(101.6)}]

    def test_concurrent_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("c", "x")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000


class TestExposition:
    def test_render_passes_the_ci_scrape_validator(self):
        checker = load_checker()
        samples, families = checker.validate_text(
            golden_registry().render())
        assert families == {
            "repro_test_jobs_total": "counter",
            "repro_test_uptime_seconds": "gauge",
            "repro_test_latency_seconds": "histogram",
        }
        checker.require_series(
            samples, 'repro_test_jobs_total{client="alice"}')

    def test_the_total_suffix_is_reserved_for_counters(self):
        """A ``_total`` series typed as anything but a counter fails the
        CI scrape validator."""
        checker = load_checker()
        for kind in ("gauge", "histogram", "untyped"):
            text = (f"# TYPE repro_test_rounds_total {kind}\n"
                    "repro_test_rounds_total 3\n")
            with pytest.raises(checker.CheckError, match="_total"):
                checker.validate_text(text)
        checker.validate_text("# TYPE repro_test_rounds_total counter\n"
                              "repro_test_rounds_total 3\n")

    def test_escaped_label_values_round_trip(self):
        checker = load_checker()
        samples, _ = checker.validate_text(golden_registry().render())
        values = {labels["client"]
                  for name, labels, _ in samples
                  if name == "repro_test_jobs_total"}
        # The checker unescapes nothing: the escaped form is on the wire.
        assert 'evil\\"tenant\\\\with\\nnewline' in values

    def test_inf_and_integral_value_formatting(self):
        from repro.obs.metrics import _format_value

        assert _format_value(math.inf) == "+Inf"
        assert _format_value(-math.inf) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"

    def test_golden_scrape_is_byte_identical(self):
        """The full exposition is pinned: any formatting drift — header
        order, label escaping, float rendering, cumulative buckets —
        must be a conscious fixture update."""
        rendered = golden_registry().render()
        assert rendered == GOLDEN.read_text(encoding="utf-8")
