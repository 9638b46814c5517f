"""``repro serve`` defers its native build and never leaves a compiler.

The gateway starts the one native build in the background after its
first round, running the compiler in its own process group; SIGINT and
SIGTERM must stop the gateway promptly, kill every process of that
group and leave no source or temporary file in the artifact directory.
A fake compiler passes the toolchain probe at once and sleeps through
the build, so the signal always lands mid-build.
"""

import os
import pathlib
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import RunSpec
from repro.service import GatewayClient
from repro.uarch.config import conventional_config

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_FAKE_CC = """#!/bin/sh
while [ $# -gt 0 ]; do
  [ "$1" = "-o" ] && out=$2
  shift
done
case "$out" in
  *.tmp-*) echo $$ > "{pidfile}"; sleep 300; exit 1 ;;
esac
: > "$out"
"""


def _live_members(pgid):
    """Pids of processes in group ``pgid`` that are not zombies."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid pgrp ...: comm may hold spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists()
                    or sys.platform != "linux",
                    reason="process groups are read from Linux /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_a_stopped_gateway_leaves_no_compiler_behind(tmp_path, signum):
    pidfile = tmp_path / "cc.pid"
    fake_cc = tmp_path / "fake-cc"
    fake_cc.write_text(_FAKE_CC.format(pidfile=pidfile), encoding="utf-8")
    fake_cc.chmod(0o755)
    cache = tmp_path / "cache"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache),
               REPRO_CC=str(fake_cc), TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines = queue.Queue()
    threading.Thread(target=lambda: [lines.put(line)
                                     for line in proc.stdout],
                     daemon=True).start()
    try:
        line = ""
        while "listening on " not in line:
            line = lines.get(timeout=60)
        url = line.split("listening on ", 1)[1].split()[0]
        spec = RunSpec("go", conventional_config()).resolved(300, 50, 1)
        (result,) = GatewayClient(url, token="").run([spec])
        # Answered while the build was deferred: interp, no fallback.
        assert result.stats.engine_fallbacks == 0
        assert _wait_for(pidfile.exists, 60), "the build never started"
        pgid = int(pidfile.read_text())
        assert _live_members(pgid)
        proc.send_signal(signum)
        assert proc.wait(timeout=20) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _wait_for(lambda: not _live_members(pgid), 5), (
        f"compiler group {pgid} outlived the gateway: "
        f"{_live_members(pgid)}")
    leftovers = [path.name for path in (cache / "native").iterdir()
                 if path.suffix == ".c" or ".tmp-" in path.name]
    assert leftovers == []
