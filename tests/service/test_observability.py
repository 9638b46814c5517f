"""Gateway observability: exposition, tenants, healthz, dashboard."""

import http.client
import json

import pytest

from repro.engine import RunSpec
from repro.service import Gateway, GatewayClient
from repro.service.gateway import PROMETHEUS_CONTENT_TYPE
from repro.uarch.config import conventional_config, virtual_physical_config


def grid():
    return [RunSpec(w, c, label=label).resolved(600, 100, 1)
            for w in ("go",)
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
    return GatewayClient("http://%s:%s" % handle.address,
                         client_id="tenant-a")


def raw_get(handle, path, headers=None):
    conn = http.client.HTTPConnection(*handle.address, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read().decode("utf-8"))
    finally:
        conn.close()


class TestPrometheusExposition:
    def test_metrics_serves_prometheus_text_by_default(self, gateway,
                                                       client):
        _, handle = gateway
        client.run(grid())
        status, content_type, body = raw_get(handle, "/v1/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_gateway_requests_total counter" in body
        for name in ("rounds", "points", "round_failures",
                     "unauthorized"):
            assert f"# TYPE repro_gateway_{name}_total counter" in body
        assert "# TYPE repro_gateway_uptime_seconds gauge" in body
        assert "# TYPE repro_native_artifacts_total counter" in body
        assert "repro_build_info{" in body

    def test_scrape_is_structurally_valid(self, gateway, client):
        import importlib.util
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "metrics_check", repo / "tools" / "metrics_check.py")
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)

        _, handle = gateway
        client.run(grid())
        _, _, body = raw_get(handle, "/v1/metrics")
        samples, families = checker.validate_text(body)
        assert samples
        checker.require_series(samples, "repro_gateway_requests_total")
        checker.require_series(
            samples, 'repro_tenant_jobs_total{client="tenant-a"}')

    def test_accept_json_negotiates_the_json_document(self, gateway):
        _, handle = gateway
        status, content_type, body = raw_get(
            handle, "/v1/metrics",
            headers={"Accept": "application/json"})
        assert status == 200
        assert "application/json" in content_type
        assert "version" in json.loads(body)

    def test_metrics_json_always_serves_json(self, gateway):
        _, handle = gateway
        status, content_type, body = raw_get(handle, "/v1/metrics.json")
        assert status == 200
        assert "application/json" in content_type
        document = json.loads(body)
        assert "tenants" in document
        assert "jobs_recent" in document

    def test_gateway_client_metrics_still_parses_json(self, client):
        document = client.metrics()
        assert "queue" in document  # the pre-exposition JSON shape


class TestTenantAccounting:
    # The registry is process-wide, so per-tenant assertions use client
    # ids unique to each test rather than absolute counts for the
    # shared fixture identity.

    def test_per_tenant_series_accumulate(self, gateway):
        _, handle = gateway
        specs = grid()
        url = "http://%s:%s" % handle.address
        GatewayClient(url, client_id="acct-exec").run(specs)
        # The engine memo serves the identical grid: cached for this
        # second tenant, and attributed to it, not the first.
        GatewayClient(url, client_id="acct-cache").run(specs)

        document = json.loads(raw_get(handle, "/v1/metrics.json")[2])
        tenants = document["tenants"]
        assert set(tenants) >= {"acct-exec", "acct-cache"}
        a, b = tenants["acct-exec"], tenants["acct-cache"]
        assert a["jobs"] == 1 and b["jobs"] == 1
        assert a["points_executed"] == len(specs)
        assert b["points_cached"] == len(specs)
        assert b["points_executed"] == 0

    def test_queue_wait_histogram_observes(self, gateway):
        _, handle = gateway
        GatewayClient("http://%s:%s" % handle.address,
                      client_id="acct-wait").run(grid())
        _, _, body = raw_get(handle, "/v1/metrics")
        assert ('repro_tenant_queue_wait_seconds_count'
                '{client="acct-wait"} 1') in body

    def test_jobs_recent_carries_trace_and_progress(self, gateway,
                                                    client):
        _, handle = gateway
        job = client.submit(grid())
        list(client.stream(job["id"]))
        document = json.loads(raw_get(handle, "/v1/metrics.json")[2])
        (recent,) = [j for j in document["jobs_recent"]
                     if j["id"] == job["id"]]
        assert recent["trace"] == job["trace"]
        assert recent["done"] == recent["points"]


class TestHealthz:
    def test_healthz_reports_engine_tiers(self, gateway):
        _, handle = gateway
        status, _, body = raw_get(handle, "/v1/healthz")
        assert status == 200
        engines = json.loads(body)["engines"]
        assert set(engines) == {"interp", "native", "resolved_auto",
                                "auto_reason"}
        assert engines["interp"]["available"] is True
        assert "available" in engines["native"]
        assert engines["resolved_auto"] in ("interp", "native")
        assert engines["auto_reason"]

    def test_healthz_reports_a_bad_repro_engine(self, gateway,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        _, handle = gateway
        status, _, body = raw_get(handle, "/v1/healthz")
        assert status == 200
        error = json.loads(body)["engines"]["resolved_auto"]["error"]
        assert "'compiled'" in error and "native" in error

    def test_engine_probe_is_cached(self, gateway):
        gw, handle = gateway
        raw_get(handle, "/v1/healthz")
        first = gw._engines_probed_at
        raw_get(handle, "/v1/healthz")
        assert gw._engines_probed_at == first  # 60s cache, not re-probed


class TestDashboard:
    def test_dashboard_serves_html_without_auth(self, gateway,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_TOKEN", "secret")
        _, handle = gateway
        status, content_type, body = raw_get(handle, "/v1/dashboard")
        assert status == 200
        assert "text/html" in content_type
        assert "repro cluster dashboard" in body
        assert "/v1/metrics.json" in body  # polls the JSON document

    def test_dashboard_page_escapes_injected_state(self, gateway):
        _, handle = gateway
        _, _, body = raw_get(handle, "/v1/dashboard")
        assert "function esc(" in body  # client-side escaping helper


class TestSubmitTrace:
    def test_submit_mints_a_trace_id(self, client):
        job = client.submit(grid()[:1])
        assert job["trace"]
        assert len(job["trace"]) == 32
        list(client.stream(job["id"]))
        assert client.status(job["id"])["trace"] == job["trace"]

    def test_x_repro_trace_header_is_honoured(self, gateway):
        _, handle = gateway
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            payload = json.dumps(
                {"specs": [s.to_dict() for s in grid()[:1]]})
            conn.request("POST", "/v1/jobs", body=payload,
                         headers={"Content-Type": "application/json",
                                  "X-Repro-Trace": "cafe" * 8})
            response = conn.getresponse()
            assert response.status == 201
            body = json.loads(response.read())
            assert body["trace"] == "cafe" * 8
        finally:
            conn.close()
