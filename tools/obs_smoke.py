#!/usr/bin/env python3
"""Observability smoke: end-to-end telemetry against a live gateway.

Run with ``PYTHONPATH=src`` and a ``repro serve`` already listening
(the CI ``obs-smoke`` job starts one with ``REPRO_TOKEN`` and a
scratch ``REPRO_CACHE_DIR``).  Asserts, over real HTTP:

1. **Exposition** — mid-sweep, ``GET /v1/metrics`` returns valid
   Prometheus text (validated with :mod:`tools.metrics_check`) carrying
   the per-tenant series for this run's client id, and
   ``/v1/metrics.json`` still serves the JSON document.
2. **Health** — ``GET /v1/healthz`` reports the engine-tier
   availability map (interp/native + what ``auto`` resolves to).
3. **Trace round-trip** — the submit response carries a trace id, and
   after the job completes the telemetry directory holds spans for
   that one id covering the ``queue``, ``dispatch``, ``run``, and
   ``store`` phases — coordinator-side scheduling through result
   landing, one shared trace.
4. **Dashboard** — ``GET /v1/dashboard`` serves the HTML page without
   auth.

Exit status is non-zero on any failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics_check  # noqa: E402  (sibling tool, stdlib-only)

from repro.obs.tracing import read_spans  # noqa: E402
from repro.service import GatewayClient  # noqa: E402
from repro.service.auth import service_token  # noqa: E402

CLIENT_ID = "obs-smoke"


def build_grid(instructions, skip, seed):
    """A small conventional-vs-vp grid, fresh keys per seed."""
    from repro.engine import RunSpec
    from repro.uarch.config import (
        conventional_config,
        virtual_physical_config,
    )

    return [
        RunSpec(workload, config, label=label).resolved(
            instructions, skip, seed)
        for workload in ("go", "swim", "compress")
        for label, config in (
            ("conventional", conventional_config()),
            ("vp-writeback", virtual_physical_config(nrr=8)),
        )
    ]


def fetch_raw(url, path, token=None, accept=None):
    """GET a gateway path; returns ``(content_type, body_text)``."""
    request = urllib.request.Request(url.rstrip("/") + path)
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request, timeout=30) as response:
        return (response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


def check_scrape(url, token):
    """Mid-flight Prometheus scrape: valid text + tenant series."""
    content_type, body = fetch_raw(url, "/v1/metrics", token)
    assert content_type.startswith("text/plain"), (
        f"/v1/metrics served {content_type!r}, expected Prometheus text")
    samples, families = metrics_check.validate_text(body)
    for spec in (
        "repro_gateway_requests_total",
        f'repro_tenant_jobs_total{{client="{CLIENT_ID}"}}',
        f'repro_tenant_points_total{{client="{CLIENT_ID}"}}',
    ):
        metrics_check.require_series(samples, spec)
    print(f"scrape: {len(samples)} sample(s) across {len(families)} "
          f"metric(s), tenant series for {CLIENT_ID!r} present")
    content_type, _ = fetch_raw(url, "/v1/metrics.json", token)
    assert "application/json" in content_type, (
        f"/v1/metrics.json served {content_type!r}")
    content_type, _ = fetch_raw(url, "/v1/metrics", token,
                                accept="application/json")
    assert "application/json" in content_type, (
        "Accept: application/json on /v1/metrics did not negotiate JSON")
    print("scrape: JSON document still served (metrics.json + Accept)")


def check_healthz(url):
    """The health document must carry the engine-tier report."""
    import json

    _, body = fetch_raw(url, "/v1/healthz")
    health = json.loads(body)
    engines = health.get("engines")
    assert engines, f"healthz has no engines report: {health}"
    for tier in ("interp", "native"):
        assert "available" in engines.get(tier, {}), (
            f"healthz engines report missing {tier}: {engines}")
    assert engines.get("resolved_auto") in ("interp", "native"), engines
    print(f"healthz: engine tiers reported, auto -> "
          f"{engines['resolved_auto']}")


def check_dashboard(url):
    """The dashboard page is served, unauthenticated, as HTML."""
    content_type, body = fetch_raw(url, "/v1/dashboard")
    assert "text/html" in content_type, content_type
    assert "repro cluster dashboard" in body
    print("dashboard: HTML page served without auth")


def check_trace(trace):
    """Spans for the submit-minted trace cover the core phases."""
    spans = read_spans(trace=trace)
    assert spans, (f"no telemetry spans recorded for trace {trace} — "
                   "does this process share REPRO_CACHE_DIR with the "
                   "gateway?")
    phases = {span["phase"] for span in spans}
    for phase in ("queue", "dispatch", "run", "store"):
        assert phase in phases, (
            f"trace {trace} has no {phase!r} span; phases seen: "
            f"{sorted(phases)}")
    assert all(span["trace"] == trace for span in spans)
    processes = {(span["host"], span["pid"]) for span in spans}
    print(f"trace: {len(spans)} span(s) for {trace[:12]}… covering "
          f"{sorted(phases)} across {len(processes)} process(es)")
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="gateway base URL (default: REPRO_GATEWAY "
                             "or http://127.0.0.1:8750)")
    parser.add_argument("-n", "--instructions", type=int, default=2000)
    parser.add_argument("--skip", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args(argv)

    from repro.service.client import default_gateway_url

    url = args.url or default_gateway_url()
    token = service_token()
    client = GatewayClient(url, client_id=CLIENT_ID)
    specs = build_grid(args.instructions, args.skip, args.seed)
    job = client.submit(specs)
    trace = job.get("trace")
    assert trace, f"submit response carries no trace id: {job}"
    print(f"job {job['id']}: {job['points']} point(s) submitted, "
          f"trace {trace}")

    state = None
    scraped = False
    for event in client.stream(job["id"]):
        if event.get("event") == "point" and not scraped:
            # Mid-flight: the job is live, tenant counters are moving.
            check_scrape(url, token)
            scraped = True
        elif event.get("event") == "end":
            state = event.get("state")
    assert state == "done", f"job ended {state!r}"
    if not scraped:  # zero-point or fully-cached ultra-fast job
        check_scrape(url, token)
    check_healthz(url)
    check_dashboard(url)
    check_trace(trace)
    print("obs_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
