"""Start the ``repro`` CLI with the benchmark's layer wrappers installed.

``run.py`` starts the gateway of the gateway-mix workload through this
file; by hand it runs as::

    PYTHONPATH=src:perfbench python3 perfbench/launcher.py \\
        --cache-dir DIR [--spans spans.jsonl] -- serve --jobs 1 --port 0

``--cache-dir`` becomes ``REPRO_CACHE_DIR``.  With ``--spans`` every
layer call records a span (``tracer.install``), and the spans are
written to that file when the CLI returns, which for ``serve`` is on
SIGINT.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    # A parent started in the background may have left SIGINT ignored;
    # the gateway's graceful stop (and the span dump) needs Ctrl-C back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = None
    if args.spans:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli)
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
