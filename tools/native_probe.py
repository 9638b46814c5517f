#!/usr/bin/env python3
"""Probe the native cycle-engine tier's host requirements.

Checks everything ``engine=native`` needs before a run can use it:
the current artifact already on disk, or else both of

* a working C compiler (``$REPRO_CC`` if set, else ``cc``/``gcc``/
  ``clang`` — *probe-compiled*, not just found on ``PATH``);
* a writable artifact cache directory (``REPRO_CACHE_DIR/native``).

Prints a human-readable report (``--json`` for machines) and exits 0.
With ``--require-native`` — the CI ``engine-matrix`` native leg — a
host where the tier is unavailable exits 1 instead of letting the run
silently measure the interpreter.

Run with ``PYTHONPATH=src``::

    python tools/native_probe.py --require-native
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.uarch import native


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require-native", action="store_true",
                        help="exit 1 when the native tier is unavailable "
                             "(CI mode: a missing toolchain must fail the "
                             "leg, not silently fall back)")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw probe report as JSON")
    args = parser.parse_args(argv)

    report = native.probe()
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        cc = report["toolchain"]
        found = cc or "NOT FOUND (set REPRO_CC or install cc/gcc/clang)"
        writable = ("writable" if report["cache_dir_writable"]
                    else "NOT WRITABLE")
        tier = "available" if report["available"] else "UNAVAILABLE"
        print(f"toolchain:     {found}")
        print(f"probe compile: {'ok' if cc else 'failed'}")
        print(f"artifact dir:  {report['cache_dir']} ({writable})")
        print(f"artifact:      "
              f"{'on disk' if report['artifact_on_disk'] else 'not built'}")
        print(f"template:      {report['template_fingerprint']}")
        print(f"native tier:   {tier}")
    if args.require_native and not report["available"]:
        print("native-probe: the native tier is unavailable on this host",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
