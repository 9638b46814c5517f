"""Synthetic trace generator tests."""

import gc
import itertools
import tracemalloc

import pytest

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass, is_branch, is_mem
from repro.trace import generator
from repro.trace.generator import (
    COLUMNS,
    RECORD_BYTES,
    SyntheticTrace,
    TraceColumns,
    clear_materialized_traces,
    take,
    trace_columns,
)
from repro.trace.patterns import ArrayWalk
from repro.trace.program import (
    CondBranch,
    IntOp,
    Load,
    LoopKernel,
    Store,
    Workload,
)
from repro.trace.workloads import WORKLOADS, load_workload


def simple_workload(iterations=3, p_taken=0.0, skip=0):
    kernel = LoopKernel(
        name="k",
        body=[
            Load("v", "a"),
            IntOp("x", ("v", "x")),
            CondBranch(p_taken=p_taken, skip=skip, src="x"),
            Store("x", "a"),
        ],
        iterations=iterations,
        arrays={"a": ArrayWalk(base=0x1000, length=64, elem_bytes=8)},
    )
    return Workload("test", [kernel], category="int")


class TestDeterminism:
    def test_same_seed_same_stream(self):
        wl = simple_workload(p_taken=0.5)
        a = SyntheticTrace(wl, seed=7).take(200)
        b = SyntheticTrace(wl, seed=7).take(200)
        assert [repr(x) for x in a] == [repr(x) for x in b]

    def test_different_seed_different_stream(self):
        wl = simple_workload(p_taken=0.5)
        a = SyntheticTrace(wl, seed=1).take(200)
        b = SyntheticTrace(wl, seed=2).take(200)
        assert [repr(x) for x in a] != [repr(x) for x in b]

    def test_reiterating_same_object_is_stable(self):
        trace = SyntheticTrace(simple_workload(), seed=3)
        a = [repr(x) for x in trace.take(100)]
        b = [repr(x) for x in trace.take(100)]
        assert a == b

    def test_infinite_stream(self):
        trace = SyntheticTrace(simple_workload(iterations=2), seed=1)
        assert len(take(trace, 5000)) == 5000


class TestStructure:
    def test_loop_shape(self):
        # One visit: iterations x (body + induction + backedge) + glue.
        recs = SyntheticTrace(simple_workload(iterations=3), seed=1).take(30)
        ops = [rec.op for rec in recs[:18]]
        per_iter = [OpClass.LOAD_INT, OpClass.INT_ALU, OpClass.BRANCH,
                    OpClass.STORE_INT, OpClass.INT_ALU, OpClass.BRANCH]
        assert ops == per_iter * 3

    def test_backedge_taken_except_last(self):
        trace = SyntheticTrace(simple_workload(iterations=3), seed=1)
        recs = trace.take(18)
        # The back-edge branch sits right after the 4-statement body and
        # the induction update: body start + 5 slots.
        backedge_pc = trace._bases[0] + 4 * 5
        backedges = [rec for rec in recs if rec.pc == backedge_pc]
        assert [b.taken for b in backedges] == [True, True, False]

    def test_glue_branch_jumps_to_a_kernel(self):
        trace = SyntheticTrace(simple_workload(iterations=2), seed=1)
        recs = trace.take(13)
        glue = recs[-1]
        assert is_branch(glue.op) and glue.taken
        assert glue.target in trace._bases

    def test_control_flow_consistency(self):
        """next_pc of each record equals the pc of the next record."""
        recs = SyntheticTrace(
            simple_workload(iterations=4, p_taken=0.5, skip=1), seed=9
        ).take(500)
        for cur, nxt in zip(recs, recs[1:]):
            assert cur.next_pc == nxt.pc, (cur, nxt)

    def test_taken_body_branch_skips_statements(self):
        wl = simple_workload(iterations=2, p_taken=1.0, skip=1)
        recs = SyntheticTrace(wl, seed=1).take(10)
        ops = [r.op for r in recs[:5]]
        # The store after the always-taken branch is skipped.
        assert OpClass.STORE_INT not in ops

    def test_addresses_come_from_patterns(self):
        recs = SyntheticTrace(simple_workload(iterations=4), seed=1).take(24)
        mem = [r for r in recs if is_mem(r.op)]
        assert all(0x1000 <= r.addr < 0x1000 + 64 * 8 for r in mem)

    def test_too_large_kernel_rejected(self):
        body = [IntOp(f"v{i % 8}", (f"v{i % 8}",)) for i in range(2000)]
        kernel = LoopKernel(name="big", body=body, iterations=1)
        with pytest.raises(ValueError):
            SyntheticTrace(Workload("w", [kernel], category="int"), seed=1)


class TestMultiKernel:
    def test_kernels_interleave_by_weight(self):
        k1 = LoopKernel(name="a", body=[IntOp("x", ("x",))], iterations=1,
                        weight=1.0)
        k2 = LoopKernel(name="b", body=[IntOp("y", ("y",))], iterations=1,
                        weight=1.0)
        wl = Workload("two", [k1, k2], category="int")
        trace = SyntheticTrace(wl, seed=5)
        recs = trace.take(4000)
        base_a, base_b = trace._bases
        visits_a = sum(1 for r in recs if r.pc == base_a)
        visits_b = sum(1 for r in recs if r.pc == base_b)
        assert visits_a > 100 and visits_b > 100
        assert 0.5 < visits_a / visits_b < 2.0

    def test_kernel_pc_regions_disjoint(self):
        k1 = LoopKernel(name="a", body=[IntOp("x", ("x",))], iterations=2)
        k2 = LoopKernel(name="b", body=[IntOp("y", ("y",))], iterations=2)
        wl = Workload("two", [k1, k2], category="int")
        trace = SyntheticTrace(wl, seed=5)
        assert trace._bases[1] - trace._bases[0] >= 0x1000


class TestTraceColumns:
    """The native tier's trace: typed columns, cached per (workload,
    seed) in an LRU bounded by bytes."""

    @pytest.fixture(autouse=True)
    def _empty_caches(self):
        clear_materialized_traces()
        yield
        clear_materialized_traces()

    @staticmethod
    def _keys():
        return list(generator._COLUMN_CACHE)

    def test_columns_hold_the_records(self):
        wl = load_workload("swim")
        cols = trace_columns(wl, 3, 2_000)
        recs = SyntheticTrace(wl, 3).take(2_000)
        assert RECORD_BYTES == 24
        assert (len(cols), cols.nbytes) == (2_000, 48_000)
        for name, _ in COLUMNS:
            assert list(getattr(cols, name)) == [
                int(getattr(rec, name)) for rec in recs]
        # Iterating yields genuine records (what a fallback runs).
        assert [repr(rec) for rec in cols] == [repr(rec) for rec in recs]

    def test_a_longer_prefix_is_a_new_entry(self, monkeypatch):
        """A held prefix serves shorter requests without running the
        emitter; a longer request emits a new entry from the start (more
        kernel visits than the shorter build, not just the missing ones)
        and leaves the previously returned columns unchanged."""
        visits = []
        emit_visit = SyntheticTrace._run_kernel

        def counting(self, *args):
            visits.append(1)
            return emit_visit(self, *args)

        monkeypatch.setattr(SyntheticTrace, "_run_kernel", counting)
        wl = load_workload("go")
        cols = trace_columns(wl, 1, 500)
        built = len(visits)
        assert built and len(cols) == 500
        assert trace_columns(wl, 1, 300) is cols  # a held prefix
        assert len(visits) == built
        before = [list(column) for column in cols.arrays()]
        longer = trace_columns(wl, 1, 5_000)
        assert longer is not cols and len(longer) == 5_000
        assert [list(column) for column in cols.arrays()] == before
        assert self._keys() == [("go", 1)]
        rebuilt = len(visits)
        assert rebuilt - built > built
        assert trace_columns(wl, 1, 5_000) is longer
        assert len(visits) == rebuilt
        assert list(longer.addr) == [
            rec.addr for rec in SyntheticTrace(wl, 1).take(5_000)]

    def test_lru_is_bounded_by_bytes_and_keeps_the_newest(self,
                                                          monkeypatch):
        monkeypatch.setattr(generator, "COLUMN_CACHE_BYTES",
                            3 * 1_000 * RECORD_BYTES)
        wl = {name: load_workload(name)
              for name in ("go", "li", "swim", "compress")}
        for name in ("go", "li", "swim"):
            trace_columns(wl[name], 1, 1_000)
        assert self._keys() == [("go", 1), ("li", 1), ("swim", 1)]
        trace_columns(wl["go"], 1, 1_000)  # a hit makes go the newest
        trace_columns(wl["compress"], 1, 1_000)
        assert self._keys() == [("swim", 1), ("go", 1), ("compress", 1)]
        # An entry alone over the budget still stays: it is the newest.
        trace_columns(wl["li"], 1, 4_000)
        assert self._keys() == [("li", 1)]

    def test_one_shot_traces_cannot_crowd_out_a_sweep(self, monkeypatch):
        """A gateway's interactive points are short one-shot traces: the
        entry budget bounds how many the cache holds, far below the byte
        budget, while the nine 33k-record traces of a Figure 4+5 sweep
        touched between them stay resident and are built once each."""
        builds = []
        columns = SyntheticTrace.columns

        def counting(self, count):
            builds.append(count)
            return columns(self, count)

        monkeypatch.setattr(SyntheticTrace, "columns", counting)
        sweep = [load_workload(name) for name in WORKLOADS]
        one_shots = generator.COLUMN_CACHE_ENTRIES - len(sweep)
        for round_ in range(10):
            for wl in sweep:
                trace_columns(wl, 1234, 33_000)
            for n in range(one_shots):
                trace_columns(sweep[n], 1_000 * round_ + n, 1_500)
            assert len(self._keys()) <= generator.COLUMN_CACHE_ENTRIES
        assert {(wl.name, 1234) for wl in sweep} <= set(self._keys())
        assert builds.count(33_000) == len(sweep)

    def test_overflow_appends_nothing(self):
        wl = simple_workload()
        recs = SyntheticTrace(wl, 1).take(50)
        huge = TraceRecord.trusted(recs[0].pc, OpClass.LOAD_INT,
                                   dest=recs[0].dest, src1=recs[0].src1,
                                   addr=1 << 63)  # past int64
        with pytest.raises(OverflowError):
            TraceColumns.of(recs + [huge])
        cols = TraceColumns.of(recs)
        with pytest.raises(OverflowError):
            cols._append([huge])
        assert [len(column) for column in cols.arrays()] == [50] * 7

    def test_overflow_drops_the_cache_entry(self):
        kernel = LoopKernel(
            name="k", body=[Load("v", "a"), IntOp("x", ("v",))],
            iterations=2,
            arrays={"a": ArrayWalk(base=1 << 63, length=4, elem_bytes=8)})
        wl = Workload("huge", [kernel], category="int")
        with pytest.raises(OverflowError):
            trace_columns(wl, 1, 100)
        assert self._keys() == []

    def test_every_bad_store_is_recorded(self):
        recs = SyntheticTrace(simple_workload(), 1).take(40)
        stores = [i for i, rec in enumerate(recs)
                  if rec.op is OpClass.STORE_INT]
        assert len(stores) >= 3
        first, second = stores[0], stores[2]
        for i in (first, second):
            rec = recs[i]
            recs[i] = TraceRecord.trusted(rec.pc, rec.op, src1=rec.src1,
                                          addr=rec.addr)
        cols = TraceColumns.of(recs)
        assert cols.bad_stores == [first, second]
        assert cols.has_bad_store(0, first + 1)
        assert not cols.has_bad_store(first + 1, second)
        assert cols.has_bad_store(first + 1, second + 1)
        assert not cols.has_bad_store(second + 1, len(recs))

    def test_the_smallest_address_is_recorded(self):
        """``min_addr`` is the smallest address of the columns, or 0 when
        none is negative, whichever way they were built."""
        kernel = LoopKernel(
            name="k", body=[Load("v", "a"), IntOp("x", ("v",))],
            iterations=3,
            arrays={"a": ArrayWalk(base=-4096, length=4, elem_bytes=8)})
        wl = Workload("negative", [kernel], category="int")
        recs = SyntheticTrace(wl, 1).take(60)
        assert min(rec.addr for rec in recs) == -4096
        assert trace_columns(wl, 1, 60).min_addr == -4096
        assert TraceColumns.of(recs).min_addr == -4096
        assert TraceColumns.of(recs[:1]).min_addr == -4096
        assert TraceColumns.of(recs[1:2]).min_addr == 0  # an IntOp
        assert trace_columns(load_workload("li"), 1, 500).min_addr == 0

    def test_the_byte_budget_bounds_what_the_cache_holds(self,
                                                         monkeypatch):
        """An entry holds its columns and nothing else (no generator,
        pattern state or unfinished kernel visit), so the memory the
        cache keeps stays near its byte budget: 200 fresh seeds of nine
        workloads, gateway-sized requests, a 2 MB budget."""
        budget = 2 << 20
        monkeypatch.setattr(generator, "COLUMN_CACHE_BYTES", budget)
        workloads = [load_workload(name) for name in WORKLOADS]
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for seed in range(200):
                trace_columns(workloads[seed % len(workloads)], seed, 1_500)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 1.25 * budget, f"{held / 2**20:.1f} MB held"
