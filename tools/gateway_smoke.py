#!/usr/bin/env python3
"""Gateway smoke: acceptance checks against a live ``repro serve``.

Run with ``PYTHONPATH=src`` and a gateway already listening (the CI
gateway job starts one with ``REPRO_TOKEN`` set).  Asserts, end to end
over real HTTP, the service-layer acceptance criteria:

1. **Auth** — when a token is configured, a request without it is
   rejected with 401 (skipped when auth is off).
2. **Streaming** — ``POST /v1/jobs`` with a conventional-vs-vp-issue
   grid returns a job id, and the NDJSON stream delivers at least one
   grid point *before* the job completes.
3. **Determinism** — the collected results are bit-identical to a
   local serial ``BatchEngine`` run of the same grid.
4. **Native after the deferred build** — the gateway builds its native
   artifact in the background once its first job is answered; the
   scrape must show ``repro_native_artifacts_total{outcome="built"}``
   reach 1 (checked before step 3, whose serial run would otherwise
   build the artifact into a shared cache directory first), and a
   fresh grid must then run native point for point
   (``repro_engine_runs_total{tier="native"}`` grows by its size).
   Skipped when this host has no C toolchain.

Exit status is non-zero on any failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import urllib.request

from metrics_check import validate_text
from repro.engine import BatchEngine, RunSpec, SerialExecutor
from repro.service import GatewayClient, GatewayError
from repro.service.auth import service_token
from repro.uarch import native
from repro.uarch.config import conventional_config, virtual_physical_config

#: How long the gateway's background build may take to load.
BUILD_TIMEOUT_S = 120


def build_grid(instructions, skip, seed):
    """The acceptance grid: conventional vs vp-issue on two workloads."""
    return [
        RunSpec(workload, config, label=label).resolved(
            instructions, skip, seed)
        for workload in ("go", "swim")
        for label, config in (
            ("conventional", conventional_config()),
            ("vp-issue", virtual_physical_config(nrr=8)),
        )
    ]


def check_auth(url, specs):
    """An unauthenticated submit must bounce with 401."""
    if not service_token():
        print("auth: REPRO_TOKEN unset, skipping the rejection check")
        return
    intruder = GatewayClient(url, token="definitely-wrong")
    try:
        intruder.submit(specs[:1])
    except GatewayError as exc:
        assert exc.status == 401, f"expected 401, got {exc.status}"
        print("auth: unauthenticated submit rejected with 401")
        return
    raise AssertionError("gateway accepted an unauthenticated submit")


def check_streaming(client, specs):
    """Submit, stream, and verify incremental delivery; returns results."""
    job = client.submit(specs)
    print(f"job {job['id']}: {job['points']} point(s) submitted")
    streamed_early = False
    state = None
    for event in client.stream(job["id"]):
        if event["event"] == "point":
            print(f"  stream: {event['done']}/{event['points']} "
                  f"{event['workload']} {event['label']}")
            if event["done"] < event["points"]:
                streamed_early = True
        elif event["event"] == "end":
            state = event["state"]
    assert state == "done", f"job ended {state!r}"
    assert streamed_early, ("no grid point was delivered before the job "
                            "completed — streaming is not incremental")
    print("stream: incremental delivery confirmed")
    return client.fetch(job["id"])


def scrape(client, name, **labels):
    """The sum of the ``name`` series matching ``labels`` in the
    gateway's Prometheus scrape (validated on the way)."""
    request = urllib.request.Request(
        f"http://{client.host}:{client.port}/v1/metrics")
    if client.token:
        request.add_header("Authorization", f"Bearer {client.token}")
    with urllib.request.urlopen(request, timeout=30) as response:
        samples, _ = validate_text(response.read().decode("utf-8"))
    return sum(value for sample, have, value in samples
               if sample == name
               and all(have.get(k) == v for k, v in labels.items()))


def wait_for_native_build(client):
    """Poll the scrape until the gateway's deferred native build has
    loaded; ``False`` (nothing to wait for) without a C toolchain here.
    Run before anything in this process can build the artifact into a
    shared cache directory, so the gateway is the one that builds it."""
    if native.toolchain() is None:
        print("native: no C toolchain on this host, skipping")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    while scrape(client, "repro_native_artifacts_total",
                 outcome="built") < 1:
        failed = scrape(client, "repro_native_artifacts_total",
                        outcome="failed")
        assert not failed, "the gateway's native build failed"
        assert time.monotonic() < deadline, (
            f"the gateway's native build did not load within "
            f"{BUILD_TIMEOUT_S} s: it stays on the interpreter")
        time.sleep(0.5)
    engines = client.healthz()["engines"]
    assert engines["resolved_auto"] == "native", engines
    print("native: the gateway built its artifact in the background")
    return True


def check_native_runs(client, specs):
    """A fresh grid (nothing cached) must run native, every point."""
    before = scrape(client, "repro_engine_runs_total", tier="native")
    results = client.run(specs)
    ran = scrape(client, "repro_engine_runs_total", tier="native") - before
    assert ran == len(specs), (
        f"{ran:.0f} of {len(specs)} fresh point(s) ran native")
    assert all(r.stats.engine_fallbacks == 0 for r in results)
    print(f"native: {len(specs)} fresh point(s) ran on the native tier")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="gateway base URL (default: REPRO_GATEWAY)")
    parser.add_argument("-n", "--instructions", type=int, default=2000)
    parser.add_argument("--skip", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)

    specs = build_grid(args.instructions, args.skip, args.seed)
    check_auth(args.url, specs)
    client = GatewayClient(args.url)
    remote = check_streaming(client, specs)
    built = wait_for_native_build(client)
    serial = BatchEngine(SerialExecutor()).run(specs)
    mismatches = sum(a.to_dict() != b.to_dict()
                     for a, b in zip(remote, serial))
    if mismatches:
        print(f"FAIL: {mismatches}/{len(specs)} streamed result(s) "
              "differ from the serial run")
        return 1
    print(f"determinism: {len(specs)} streamed result(s) bit-identical "
          "to the serial run")
    if built:
        check_native_runs(
            client, build_grid(args.instructions, args.skip, args.seed + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
