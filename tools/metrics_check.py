#!/usr/bin/env python3
"""Validate a Prometheus text-format scrape (exposition format 0.0.4).

Stdlib-only lint for the ``GET /v1/metrics`` output: CI scrapes a live
gateway mid-sweep and pipes the body through this checker.  Verified
properties:

* every non-comment line parses as ``name{labels} value`` with a legal
  metric name, legal label names, and a float-parseable value;
* ``# TYPE``/``# HELP`` lines are well-formed, name every metric
  before its samples, and appear at most once per metric;
* a metric named ``*_total`` is a counter: Prometheus reserves the
  suffix for counters, so a gauge or histogram under it is rejected;
* histograms are internally consistent: cumulative ``_bucket`` counts
  are monotonically non-decreasing in ``le`` order, the ``+Inf``
  bucket equals ``_count``, and ``_sum``/``_count`` are present;
* (optionally) specific series exist — ``--require-series
  'repro_tenant_jobs_total{client="ci"}'`` asserts the per-tenant
  accounting made it into the exposition.

Usage::

    python tools/metrics_check.py scrape.txt
    curl -s $URL/v1/metrics | python tools/metrics_check.py -
    python tools/metrics_check.py --url http://127.0.0.1:8750/v1/metrics \\
        --require-series 'repro_gateway_requests_total'

Exit status is non-zero on the first structural violation.
"""

from __future__ import annotations

import argparse
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: ``name{labels} value`` — labels optional, value greedy to line end.
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                       r"(?:\{(.*)\})?\s+(\S+)$")
LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class CheckError(Exception):
    """A structural violation, annotated with the offending line."""


def parse_labels(raw):
    """Parse a ``k="v",...`` label body into a dict (validates names)."""
    labels = {}
    rest = raw
    while rest:
        match = LABEL_PAIR_RE.match(rest)
        if match is None:
            raise CheckError(f"unparseable label body {raw!r}")
        labels[match.group(1)] = match.group(2)
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise CheckError(f"junk after label pair in {raw!r}")
    for name in labels:
        if name.startswith("__"):
            raise CheckError(f"reserved label name {name!r}")
    return labels


def parse_value(raw):
    """A sample value: float, ``+Inf``/``-Inf``/``NaN`` included."""
    try:
        return float(raw)
    except ValueError:
        raise CheckError(f"unparseable sample value {raw!r}")


def validate_text(text):
    """Check one scrape body; returns ``(samples, families)``.

    ``samples`` is ``[(name, labels_dict, value), ...]`` in document
    order; ``families`` maps metric name to its declared TYPE.  Raises
    :class:`CheckError` on the first violation.
    """
    samples = []
    families = {}
    helped = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            if line.startswith("# HELP "):
                parts = line[len("# HELP "):].split(" ", 1)
                name = parts[0]
                if not NAME_RE.match(name):
                    raise CheckError(f"bad metric name in HELP: {name!r}")
                if name in helped:
                    raise CheckError(f"duplicate HELP for {name}")
                helped.add(name)
            elif line.startswith("# TYPE "):
                parts = line[len("# TYPE "):].split()
                if len(parts) != 2:
                    raise CheckError("malformed TYPE line")
                name, kind = parts
                if not NAME_RE.match(name):
                    raise CheckError(f"bad metric name in TYPE: {name!r}")
                if kind not in TYPES:
                    raise CheckError(f"unknown metric type {kind!r}")
                if name in families:
                    raise CheckError(f"duplicate TYPE for {name}")
                if name.endswith("_total") and kind != "counter":
                    raise CheckError(f"{name} is a {kind}, but the _total "
                                     "suffix is reserved for counters")
                families[name] = kind
            elif line.startswith("#"):
                continue  # free-form comment
            else:
                match = SAMPLE_RE.match(line)
                if match is None:
                    raise CheckError(f"unparseable sample line {line!r}")
                name, raw_labels, raw_value = match.groups()
                labels = parse_labels(raw_labels) if raw_labels else {}
                value = parse_value(raw_value)
                family = base_family(name, families)
                if family is None:
                    raise CheckError(
                        f"sample {name} has no preceding TYPE line")
                samples.append((name, labels, value))
        except CheckError as exc:
            raise CheckError(f"line {lineno}: {exc}") from None
    check_histograms(samples, families)
    return samples, families


def base_family(sample_name, families):
    """The TYPE-declared family a sample belongs to, or ``None``.

    Histogram samples use suffixed names (``_bucket``/``_sum``/
    ``_count``) under the family's bare name.
    """
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if families.get(base) == "histogram":
                return base
    return None


def check_histograms(samples, families):
    """Cumulative-bucket monotonicity and ``+Inf`` == ``_count``."""
    series = {}  # (family, frozen non-le labels) -> {"buckets": [...], ...}
    for name, labels, value in samples:
        for suffix in ("_bucket", "_sum", "_count"):
            if not name.endswith(suffix):
                continue
            base = name[: -len(suffix)]
            if families.get(base) != "histogram":
                continue
            key_labels = {k: v for k, v in labels.items() if k != "le"}
            entry = series.setdefault(
                (base, tuple(sorted(key_labels.items()))),
                {"buckets": [], "sum": None, "count": None})
            if suffix == "_bucket":
                le = labels.get("le")
                if le is None:
                    raise CheckError(f"{name}: _bucket sample without le")
                bound = float("inf") if le == "+Inf" else float(le)
                entry["buckets"].append((bound, value))
            else:
                entry[suffix[1:]] = value
            break
    for (base, key_labels), entry in sorted(series.items()):
        where = base + ("{%s}" % ",".join(
            f'{k}="{v}"' for k, v in key_labels) if key_labels else "")
        if not entry["buckets"]:
            raise CheckError(f"{where}: histogram series has no buckets")
        if entry["count"] is None or entry["sum"] is None:
            raise CheckError(f"{where}: missing _count or _sum")
        ordered = sorted(entry["buckets"])
        counts = [count for _, count in ordered]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise CheckError(f"{where}: bucket counts not monotone "
                             f"({counts})")
        if ordered[-1][0] != float("inf"):
            raise CheckError(f"{where}: no +Inf bucket")
        if ordered[-1][1] != entry["count"]:
            raise CheckError(
                f"{where}: +Inf bucket {ordered[-1][1]} != _count "
                f"{entry['count']}")


def parse_series_spec(spec):
    """Parse a ``--require-series`` argument into ``(name, labels)``."""
    match = SAMPLE_RE.match(spec + " 0")  # reuse the sample grammar
    if match is None or match.group(1) is None:
        raise SystemExit(f"metrics_check: bad series spec {spec!r}")
    name, raw_labels, _ = match.groups()
    return name, (parse_labels(raw_labels) if raw_labels else {})


def require_series(samples, spec):
    """Assert a series exists (label subset match on one sample)."""
    name, want = parse_series_spec(spec)
    for sample_name, labels, _ in samples:
        if sample_name != name:
            continue
        if all(labels.get(k) == v for k, v in want.items()):
            return
    raise CheckError(f"required series not found: {spec}")


def read_source(args):
    """The scrape body: a file, stdin (``-``), or a live URL."""
    if args.url:
        import urllib.request

        request = urllib.request.Request(args.url)
        if args.token:
            request.add_header("Authorization", f"Bearer {args.token}")
        with urllib.request.urlopen(request, timeout=30) as response:
            content_type = response.headers.get("Content-Type", "")
            body = response.read().decode("utf-8")
        if "text/plain" not in content_type:
            raise CheckError(
                f"expected a text/plain exposition, got {content_type!r}")
        return body
    if args.path == "-":
        return sys.stdin.read()
    with open(args.path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default="-",
                        help="scrape file, or '-' for stdin (default)")
    parser.add_argument("--url", default=None,
                        help="scrape a live endpoint instead of a file")
    parser.add_argument("--token", default=None,
                        help="bearer token for --url (REPRO_TOKEN)")
    parser.add_argument("--require-series", action="append", default=[],
                        metavar="SERIES",
                        help="assert a series exists, e.g. "
                             "'repro_tenant_jobs_total{client=\"ci\"}' "
                             "(repeatable; label subset match)")
    args = parser.parse_args(argv)
    try:
        text = read_source(args)
        samples, families = validate_text(text)
        for spec in args.require_series:
            require_series(samples, spec)
    except CheckError as exc:
        print(f"metrics_check: FAIL — {exc}")
        return 1
    print(f"metrics_check: OK — {len(samples)} sample(s) across "
          f"{len(families)} metric(s)"
          + (f", {len(args.require_series)} required series present"
             if args.require_series else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
