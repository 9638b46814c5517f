"""Host speed: how long a fixed reference loop takes right now.

The 2-vCPU Xeon virtual machines the benchmark was sized on share
physical cores with other machines.  Their speed drifted by up to about
60% within minutes while the process kept its CPU the whole time (no
steal time, CPU time tracked wall time), so a wall-clock figure
measures the neighbours as much as the program.  The two CPUs drifted
independently of each other.  ``run.py`` therefore starts this file as
a sampler process of its own, on the CPU the program runs on, for the
whole run::

    python3 perfbench/hostspeed.py

It times the reference loop every ``INTERVAL_S`` and prints one line
per sample: the ``time.monotonic`` time the sample ended and the
seconds it took.  ``run.py`` scales each timed interval by
``NOMINAL_S / median(samples)`` over the same interval, a second at a
time, so a scaled time reads in seconds of a host on which the loop
takes ``NOMINAL_S``.

The sampler runs no program code and shares no interpreter with it.  A
sample is the sampler thread's own CPU time, so program work that
delays the sampler does not stretch a sample, and the loop allocates
nothing, so no garbage collection runs inside it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import threading
import time

#: The loop's time on an idle host (2-vCPU Xeon, CPython 3.11.7).
NOMINAL_S = 0.0006
ITERATIONS = 10_000
#: Pause between samples: about 3% of one CPU on an idle host.
INTERVAL_S = 0.02
#: Fewest samples a factor is taken over.
LEAST = 15
#: Longest slice of an interval that one factor scales.
SLICE_S = 1.0


def sample():
    """CPU seconds the reference loop takes now."""
    start = time.thread_time()
    x = 0
    for i in range(ITERATIONS):
        x += i * i % 7
    return time.thread_time() - start


class Samples:
    """Reference-loop samples in the order they were taken."""

    def __init__(self):
        self.ended, self.seconds = [], []
        self._lock = threading.Lock()

    def add(self, ended, seconds):
        with self._lock:
            self.ended.append(ended)
            self.seconds.append(seconds)

    def factor(self, lo, hi):
        """``NOMINAL_S / median`` of the samples that ended in
        ``[lo, hi]``, or of the ``LEAST`` that ended nearest the interval
        when fewer did."""
        with self._lock:
            first = bisect.bisect_left(self.ended, lo)
            last = bisect.bisect_right(self.ended, hi)
            if last - first < LEAST:
                middle = bisect.bisect_left(self.ended, (lo + hi) / 2)
                first = max(0, min(middle - LEAST // 2,
                                   len(self.ended) - LEAST))
                last = first + LEAST
            return NOMINAL_S / statistics.median(self.seconds[first:last])

    def scaled(self, lo, hi):
        """The seconds of the nominal host that ``[lo, hi]`` is worth:
        the interval cut into slices of at most ``SLICE_S``, each slice's
        length times its own factor.  The CPU's speed changes within
        seconds, so a long interval is not scaled by one factor."""
        slices = max(1, math.ceil((hi - lo) / SLICE_S))
        step = (hi - lo) / slices
        return sum(step * self.factor(lo + i * step, lo + (i + 1) * step)
                   for i in range(slices))


class Sampler(Samples):
    """A sampler process and the samples it printed so far.

    ``start`` is called as ``start(cmd, stdout=..., text=True)`` and
    returns the ``subprocess.Popen``; the caller owns and reaps it."""

    def __init__(self, start):
        super().__init__()
        self.proc = start([sys.executable, __file__],
                          stdout=subprocess.PIPE, text=True)
        self._first = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._first.wait(timeout=30):
            raise RuntimeError("host-speed sampler printed nothing")

    def _read(self):
        for line in self.proc.stdout:
            ended, seconds = line.split()
            self.add(float(ended), float(seconds))
            self._first.set()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=10)


def main():
    try:
        while True:
            seconds = sample()
            print(f"{time.monotonic():.6f} {seconds:.9f}", flush=True)
            time.sleep(INTERVAL_S)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
