"""Benchmark-harness plumbing.

Every benchmark regenerates one table/figure of the paper at the
configured instruction budget (``REPRO_BENCH_INSTRS``, default 30k timed
instructions after 3k warm-up per run), prints it, and appends it to
``benchmarks/output/`` so EXPERIMENTS.md can cite the artifacts.

Runs are shared through :data:`repro.experiments.SHARED_CACHE`, which
sits on the batch engine: Figure 6 reuses the Figure 4/5 runs within a
session.  Under pytest ``REPRO_CACHE_DIR`` is a per-session temporary
directory (the repository's root ``conftest.py``), so every session
simulates afresh and never touches ``~/.cache/repro``.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def record_table(output_dir, capsys):
    """Print a result table and persist it under benchmarks/output/."""

    def _record(name, text):
        with capsys.disabled():
            print()
            print(text)
        (output_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
