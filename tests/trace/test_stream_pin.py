"""The trace stream itself, pinned.

Both engine tiers read one emission of the generator, so the cross-tier
differential cannot see an emitter bug: a wrong record reaches interp
and native alike.  These tests hold the stream fixed instead:

* ``data/stream_digests.json`` holds a sha256 of (pc, op, dest, src1,
  src2, addr, taken, target) over the first :data:`COUNT` records of
  every registry workload at two seeds, and one of the seven native
  columns.  Regenerating it (``python tests/trace/test_stream_pin.py``
  prints it) is a deliberate change of every paper number.
* :func:`oracle` emits statement by statement, the plain reading of
  the loop-kernel DSL that the generator's compiled emitter must
  reproduce bit for bit (RNG draws included), and the generator is
  compared with it on shapes the registry workloads do not cover.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.trace.generator import (
    BASE_PC,
    COLUMNS,
    KERNEL_PC_STRIDE,
    SyntheticTrace,
    clear_materialized_traces,
    materialized_trace,
    trace_columns,
)
from repro.trace.patterns import (
    ArrayWalk,
    ChaseRegion,
    FixedAddress,
    RandomRegion,
)
from repro.trace.program import (
    INDUCTION,
    CondBranch,
    FpOp,
    IntOp,
    Load,
    LoopKernel,
    RegisterBinding,
    Store,
    Workload,
)
from repro.trace.workloads import WORKLOADS, load_workload

DATA = Path(__file__).with_name("data") / "stream_digests.json"
#: A paper-harness point: 3k warm-up plus 30k simulated records.
COUNT = 33_000
SEEDS = (1234, 2026)

def _digest(rows):
    """sha256 of one ``%d,%d,...`` text line per row."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update((",".join(["%d"] * len(row)) % row + "\n").encode())
    return hasher.hexdigest()


def record_rows(records):
    """(pc, op, dest, src1, src2, addr, taken, target) per record."""
    return [(r.pc, r.op, r.dest, r.src1, r.src2, r.addr, r.taken, r.target)
            for r in records]


def column_rows(columns, count):
    """The native columns' fields per record, in :data:`COLUMNS` order."""
    return list(zip(*(column[:count] for column in columns.arrays())))


def stream_digests():
    """What ``data/stream_digests.json`` holds, computed afresh."""
    out = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            workload = load_workload(name)
            records = SyntheticTrace(workload, seed).take(COUNT)
            clear_materialized_traces()
            columns = trace_columns(workload, seed, COUNT)
            clear_materialized_traces()
            out[f"{name}/{seed}"] = {
                "records": _digest(record_rows(records)),
                "columns": _digest(column_rows(columns, COUNT)),
            }
    return {"count": COUNT, "seeds": list(SEEDS), "digests": out}


@pytest.fixture(autouse=True)
def _empty_caches():
    clear_materialized_traces()
    yield
    clear_materialized_traces()


@pytest.fixture(scope="module")
def pinned():
    data = json.loads(DATA.read_text(encoding="utf-8"))
    assert data["count"] == COUNT and tuple(data["seeds"]) == SEEDS
    return data["digests"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_records_match_the_pinned_stream(pinned, name):
    for seed in SEEDS:
        records = SyntheticTrace(load_workload(name), seed).take(COUNT)
        assert _digest(record_rows(records)) == \
            pinned[f"{name}/{seed}"]["records"], (name, seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_columns_match_the_pinned_stream(pinned, name):
    for seed in SEEDS:
        columns = trace_columns(load_workload(name), seed, COUNT)
        assert len(columns) >= COUNT
        assert _digest(column_rows(columns, COUNT)) == \
            pinned[f"{name}/{seed}"]["columns"], (name, seed)


def test_the_interpreters_cached_records_are_the_stream(pinned):
    records = materialized_trace(load_workload("go"), SEEDS[0], COUNT)
    assert _digest(record_rows(records)) == \
        pinned[f"go/{SEEDS[0]}"]["records"]


# -- the statement-by-statement oracle ---------------------------------------


def oracle(workload, seed, count):
    """The first ``count`` records of ``SyntheticTrace(workload, seed)``,
    emitted one statement at a time through the checked constructor.

    Per kernel visit: one weighted ``choices`` draw for the next kernel,
    then ``iterations`` passes over the body (a ``random()`` per
    executed branch, a ``next_address(rng)`` per executed memory
    statement, a taken branch skipping ``skip`` statements), each closed
    by the induction update and the back edge (taken but on the last
    pass), and a glue branch to the next kernel.
    """
    rng = Random(seed)
    kernels = workload.kernels
    bindings = [RegisterBinding(kernel) for kernel in kernels]
    bases = [BASE_PC + i * KERNEL_PC_STRIDE for i in range(len(kernels))]
    arrays = [copy.deepcopy(kernel.arrays) for kernel in kernels]
    weights = [kernel.weight for kernel in kernels]
    out = []
    current = rng.choices(range(len(kernels)), weights)[0]
    while len(out) < count:
        nxt = rng.choices(range(len(kernels)), weights)[0]
        kernel, reg, base = kernels[current], bindings[current], bases[current]
        body = kernel.body
        for it in range(kernel.iterations):
            pos = 0
            while pos < len(body):
                stmt, pc = body[pos], base + 4 * pos
                pos += 1
                if isinstance(stmt, (Load, Store)):
                    addr = arrays[current][stmt.array].next_address(rng)
                    if isinstance(stmt, Load):
                        op = OpClass.LOAD_FP if stmt.fp else OpClass.LOAD_INT
                        out.append(TraceRecord(pc, op, dest=reg[stmt.dst],
                                               src1=reg[stmt.base],
                                               addr=addr))
                    else:
                        op = (OpClass.STORE_FP if stmt.fp
                              else OpClass.STORE_INT)
                        out.append(TraceRecord(pc, op, src1=reg[stmt.base],
                                               src2=reg[stmt.value],
                                               addr=addr))
                elif isinstance(stmt, (IntOp, FpOp)):
                    srcs = [reg[name] for name in stmt.srcs]
                    out.append(TraceRecord(pc, stmt.kind, reg[stmt.dst],
                                           *srcs))
                else:
                    taken = rng.random() < stmt.p_taken
                    out.append(TraceRecord(pc, OpClass.BRANCH,
                                           src1=reg[stmt.src], taken=taken,
                                           target=pc + 4 + 4 * stmt.skip))
                    if taken:
                        pos += stmt.skip
            end, ind = base + 4 * len(body), reg[INDUCTION]
            out.append(TraceRecord(end, OpClass.INT_ALU, dest=ind, src1=ind))
            out.append(TraceRecord(end + 4, OpClass.BRANCH, src1=ind,
                                   taken=it != kernel.iterations - 1,
                                   target=base))
        out.append(TraceRecord(base + 4 * len(body) + 8, OpClass.BRANCH,
                               src1=reg[INDUCTION], taken=True,
                               target=bases[nxt]))
        current = nxt
    return out[:count]


def _hammock():
    """A taken branch skips a load and a store; random-region arrays."""
    kernel = LoopKernel(
        name="hammock",
        body=[
            IntOp("i", ("i", "k")),
            CondBranch(p_taken=0.4, skip=2, src="i"),
            Load("v", "heap"),
            Store("v", "heap", base="i"),
            IntOp("k", ("k", "v"), kind=OpClass.INT_MUL),
            CondBranch(p_taken=0.7, skip=0),
            CondBranch(p_taken=0.5, skip=1, src="k"),
            Load("w", "chase", base="w"),
        ],
        iterations=5,
        arrays={"heap": RandomRegion(base=0x8000, size_bytes=4096),
                "chase": ChaseRegion(base=0x20000, size_bytes=1 << 16)})
    return Workload("pin-hammock", [kernel], category="int")


def _weighted():
    """Two weighted kernels, FP and fixed-address statements, a branch
    that skips to the end of its body."""
    hot = LoopKernel(
        name="hot",
        body=[Load("x", "a", fp=True), FpOp("y", ("x", "y")),
              Store("y", "g", fp=True), IntOp("n", ("n",)),
              CondBranch(p_taken=0.3, skip=1), FpOp("y", ("y",),
                                                   kind=OpClass.FP_DIV)],
        iterations=7, weight=3.0,
        arrays={"a": ArrayWalk(base=0x4000, length=96, stride=3),
                "g": FixedAddress(0x100)})
    cold = LoopKernel(
        name="cold",
        body=[Load("p", "r"), IntOp("q", ("p", "q"), kind=OpClass.INT_DIV),
              CondBranch(p_taken=0.9, skip=2, src="q"),
              Store("q", "r", base="p"), IntOp("p", ("p",))],
        iterations=2, weight=1.0,
        arrays={"r": RandomRegion(base=0x90000, size_bytes=512, align=16)})
    return Workload("pin-weighted", [hot, cold], category="fp")


def _many_records():
    """Over 256 distinct records: three kernels of 90 statements, a
    third of them branches with two outcomes each, plus nine glue
    branches."""
    kernels = []
    for k in range(3):
        body = []
        for i in range(30):
            body += [Load(f"v{i % 6}", "a"),
                     IntOp(f"v{(i + 1) % 6}", (f"v{i % 6}",)),
                     CondBranch(p_taken=0.25 + 0.015 * i,
                                skip=(i % 2) * (i < 29))]
        kernels.append(LoopKernel(
            name=f"wide{k}", body=body, iterations=2 + k, weight=1.0 + k,
            arrays={"a": ArrayWalk(base=0x1000 * (k + 1), length=50)}))
    return Workload("pin-many", kernels, category="int")


SHAPES = {"hammock": _hammock, "weighted": _weighted,
          "many-records": _many_records}


def test_the_wide_workload_has_over_256_distinct_records():
    records = oracle(_many_records(), 5, 20_000)
    distinct = {(r.pc, r.taken, r.target) for r in records}
    assert len(distinct) > 256


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [1, 77])
def test_records_match_the_oracle(shape, seed):
    count = 6_000
    expected = record_rows(oracle(SHAPES[shape](), seed, count))
    assert record_rows(SyntheticTrace(SHAPES[shape](), seed).take(count)) \
        == expected


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [1, 77])
def test_columns_match_the_oracle(shape, seed):
    count = 6_000
    expected = [row[:len(COLUMNS)]
                for row in record_rows(oracle(SHAPES[shape](), seed, count))]
    columns = trace_columns(SHAPES[shape](), seed, count)
    assert len(columns) == count
    assert column_rows(columns, count) == expected
    # What an interpreted fallback of these columns would run.
    assert record_rows(columns.records(count)) == record_rows(
        oracle(SHAPES[shape](), seed, count))


@pytest.mark.parametrize("name", ["go", "li", "swim"])
def test_registry_workloads_match_the_oracle(name):
    count = 4_000
    expected = record_rows(oracle(load_workload(name), 9, count))
    assert record_rows(SyntheticTrace(load_workload(name), 9).take(count)) \
        == expected
    columns = trace_columns(load_workload(name), 9, count)
    assert column_rows(columns, count) == [
        row[:len(COLUMNS)] for row in expected]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    json.dump(stream_digests(), sys.stdout, indent=1, sort_keys=True)
    print()
