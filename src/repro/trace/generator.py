"""Dynamic trace generation from a :class:`~repro.trace.program.Workload`.

The generator walks the workload's kernels (weighted-random order),
running each kernel's loop for its trip count and emitting one
:class:`~repro.isa.instruction.TraceRecord` per dynamic instruction:

* each body statement in static program order (forward hammock branches
  skip statements when taken, keeping control flow consistent),
* an induction-variable update and a back-edge branch per iteration,
* a glue branch transferring control to the next kernel.

Everything is deterministic given ``(workload, seed)``; iterating the
same trace twice yields the identical instruction stream, which the
equivalence tests between renaming schemes rely on.

**Hot-path structure.**  Every static record shape of a trace (each
statement, a branch once per outcome, the induction update, both back
edges, one glue branch per target kernel) is interned once in a
prototype table (:class:`_Prototypes`) and named by its index, its
*record id*.  Each kernel body is compiled *once* into straight-line
segments that end at a branch (:class:`_KernelProgram`); a segment is
the byte string of its records' ids.  A kernel visit
(:meth:`SyntheticTrace._run_kernel`) extends an id buffer one segment at
a time and appends one address per executed memory statement to an
address buffer, so a record costs a few bytes of a C-level copy, not a
Python dispatch.  The RNG draws keep the order of the original
statement-by-statement interpretation (one weighted ``choices`` per
visit, one ``random()`` per executed body branch, one
``next_address(rng)`` per executed memory statement), so streams are
bit-identical to it.

**Materialization.**  Both tiers read that one emission.  The native
tier's columns (:func:`trace_columns`, :class:`TraceColumns`) are
gathered from the ids at C speed: one ``b"".join`` of the prototypes'
16-byte rows, a strided slice per column, then the addresses are
scattered into the memory records' slots.  The interpreter's records
(:func:`materialized_trace`) are the shared prototype
:class:`TraceRecord` objects plus one ``TraceRecord.trusted`` per memory
operation.  Registry traces are generated once per ``(workload, seed)``
per process in either form.
"""

from __future__ import annotations

import copy
import itertools
import struct
import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from operator import attrgetter
from random import Random

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OP_DECODE, OpClass
from repro.isa.registers import NO_REG
from repro.trace.program import (
    INDUCTION,
    CondBranch,
    FpOp,
    IntOp,
    Load,
    RegisterBinding,
    Store,
)

#: PC spacing between kernels; each kernel may hold this many bytes of code.
KERNEL_PC_STRIDE = 0x1000
BASE_PC = 0x10000

#: Typecode of a record id in the id buffer and the segments.
_ID_CODE = "I"

#: A prototype's row, in native byte order: int64 pc, int16 dest, src1
#: and src2, int8 op and taken.  A run of rows holds each of these
#: columns as a strided lane (:meth:`TraceColumns._gather`).
_ROW = struct.Struct("=qhhhbb")


def _id_bytes(ids):
    return array(_ID_CODE, ids).tobytes()


class _Prototypes:
    """A trace's static record shapes, indexed by record id: the shared
    :class:`TraceRecord` (address 0 for a memory operation, whose
    instances get their own), its :data:`_ROW` bytes and its memory
    flag as one byte."""

    __slots__ = ("records", "rows", "mem", "_index")

    def __init__(self):
        self.records = []
        self.rows = []
        self.mem = []
        self._index = {}

    def intern(self, record):
        key = (record.pc, record.op, record.dest, record.src1, record.src2,
               record.taken, record.target)
        rid = self._index.get(key)
        if rid is None:
            rid = self._index[key] = len(self.records)
            self.records.append(record)
            self.rows.append(_ROW.pack(record.pc, record.dest, record.src1,
                                       record.src2, record.op,
                                       record.taken))
            self.mem.append(bytes([_IS_MEM[record.op]]))
        return rid


class _KernelProgram:
    """One kernel compiled to straight-line segments of record ids.

    ``segments`` maps each body position a visit can reach (0, and the
    statement after either outcome of a branch) to ``(ids, arrays,
    branch)``: the ids of the statements up to the next branch as
    bytes, the array names of its memory statements in order, and
    ``None`` at the end of the body, else ``(p_taken, taken id,
    not-taken id, taken position, not-taken position)``.  ``loop`` is
    the induction update plus the taken back edge, the ids every
    iteration ends with (:meth:`bind` appends them to each segment that
    ends the body); a visit's last back edge is ``last_backedge``.
    """

    __slots__ = ("segments", "loop", "last_backedge", "glue", "iterations")

    def __init__(self, kernel, binding, base, kernel_bases, table):
        body = kernel.body
        ind_pc = base + 4 * len(body)
        ind_reg = binding[INDUCTION]
        self.iterations = kernel.iterations
        compiled = [self._compile_stmt(stmt, base + 4 * pos, binding, table)
                    for pos, stmt in enumerate(body)]
        self.segments = {}
        todo = [0]
        while todo:
            start = todo.pop()
            if start in self.segments:
                continue
            ids, arrays, pos = [], [], start
            while pos < len(body) and not isinstance(body[pos], CondBranch):
                rid, name = compiled[pos]
                ids.append(rid)
                if name is not None:
                    arrays.append(name)
                pos += 1
            branch = None
            if pos < len(body):
                taken, not_taken = compiled[pos]
                branch = (body[pos].p_taken, taken, not_taken,
                          pos + 1 + body[pos].skip, pos + 1)
                todo += branch[3:]
            self.segments[start] = (_id_bytes(ids), tuple(arrays), branch)
        self.loop = _id_bytes([
            table.intern(TraceRecord(ind_pc, OpClass.INT_ALU, dest=ind_reg,
                                     src1=ind_reg)),
            table.intern(TraceRecord(ind_pc + 4, OpClass.BRANCH,
                                     src1=ind_reg, taken=True, target=base)),
        ])
        self.last_backedge = table.intern(TraceRecord(
            ind_pc + 4, OpClass.BRANCH, src1=ind_reg, taken=False,
            target=base))
        self.glue = [
            table.intern(TraceRecord(ind_pc + 8, OpClass.BRANCH,
                                     src1=ind_reg, taken=True,
                                     target=target_base))
            for target_base in kernel_bases
        ]

    @staticmethod
    def _compile_stmt(stmt, pc, binding, table):
        """``(record id, array name or None)``; a branch's two ids."""
        if isinstance(stmt, Load):
            op = OpClass.LOAD_FP if stmt.fp else OpClass.LOAD_INT
            # The checked constructor validates the static shape once;
            # every dynamic instance shares it.
            return table.intern(TraceRecord(pc, op, dest=binding[stmt.dst],
                                            src1=binding[stmt.base],
                                            addr=0)), stmt.array
        if isinstance(stmt, Store):
            op = OpClass.STORE_FP if stmt.fp else OpClass.STORE_INT
            return table.intern(TraceRecord(pc, op, src1=binding[stmt.base],
                                            src2=binding[stmt.value],
                                            addr=0)), stmt.array
        if isinstance(stmt, (IntOp, FpOp)):
            srcs = stmt.srcs
            src1 = binding[srcs[0]]
            src2 = binding[srcs[1]] if len(srcs) > 1 else NO_REG
            return table.intern(TraceRecord(pc, stmt.kind,
                                            dest=binding[stmt.dst],
                                            src1=src1, src2=src2)), None
        if isinstance(stmt, CondBranch):
            target = pc + 4 + 4 * stmt.skip
            src = binding[stmt.src]
            return tuple(
                table.intern(TraceRecord(pc, OpClass.BRANCH, src1=src,
                                         taken=taken, target=target))
                for taken in (True, False))
        raise TypeError(f"unknown statement: {stmt!r}")

    def bind(self, patterns):
        """The first segment, with every segment linked for one
        generator: ``(ids, next_address functions of its memory
        statements on ``patterns``, p_taken, taken id, not-taken id,
        taken segment, not-taken segment)``, or ``(ids, functions,
        None)`` at the end of the body, where ``ids`` also closes the
        iteration.  Branches only jump forward, so linking from the last
        position back resolves every successor."""
        bound = {}
        for start in sorted(self.segments, reverse=True):
            ids, names, branch = self.segments[start]
            calls = tuple(patterns[name].next_address for name in names)
            if branch is None:
                bound[start] = (ids + self.loop, calls, None)
            else:
                p_taken, taken, not_taken, taken_pos, not_taken_pos = branch
                bound[start] = (ids, calls, p_taken, taken, not_taken,
                                bound[taken_pos], bound[not_taken_pos])
        return bound[0]


# Trace streams are deterministic per (workload, seed), so repeated
# simulations of one point — benchmark repeats, engine A/B comparisons,
# config sweeps over one workload — share one materialization instead of
# re-running the generator.  Two process-level caches hold them, keyed
# by (workload name, seed):
#
# * the record LRU (interpreter): [records, stream], 4 entries; each
#   keeps its generator and extends in place when a later caller needs
#   a longer prefix;
# * the column LRU (native tier): TraceColumns only, bounded by
#   COLUMN_CACHE_BYTES and COLUMN_CACHE_ENTRIES, so the nine paper
#   workloads stay resident through a Figure 4+5 sweep while a stream
#   of short one-shot traces (a gateway's interactive points) cannot
#   pile up in the byte budget.  An entry holds no generator (whose
#   pattern state and unfinished kernel visit would cost more than the
#   budget counts); a longer prefix is a new entry, built from the
#   start, and held columns are never resized.
_MATERIALIZED: OrderedDict = OrderedDict()
_MATERIALIZED_MAX = 4

_COLUMN_CACHE: OrderedDict = OrderedDict()
#: Byte budget of the column LRU; the newest entry always stays.
COLUMN_CACHE_BYTES = 32 << 20
#: Entry budget of the column LRU (the Figure 4+5 sweeps need 9).
COLUMN_CACHE_ENTRIES = 16
_COLUMN_LOCK = threading.Lock()

#: The native tier's trace layout: ``(record field, array typecode)`` in
#: ``repro_run`` argument order — int64 pc and addr, int16 registers,
#: int8 op and taken.
COLUMNS = (("pc", "q"), ("op", "b"), ("dest", "h"), ("src1", "h"),
           ("src2", "h"), ("addr", "q"), ("taken", "b"))
RECORD_BYTES = sum(array(code).itemsize for _, code in COLUMNS)

_IS_STORE = bytes(int(decode[2]) for decode in OP_DECODE)
#: 1 for every opcode that carries an address (a ``bytes.translate``
#: table over the op column).
_IS_MEM = bytes(int(decode[1] or decode[2]) for decode in OP_DECODE).ljust(
    256, b"\0")


def materialized_trace(workload, seed, count):
    """The first ``count`` records of ``SyntheticTrace(workload, seed)``.

    Served from a small process-level LRU keyed by ``(workload.name,
    seed)`` — callers must only use it for registry-loaded workloads,
    where the name uniquely identifies the kernel content.  Records are
    write-once (the pipeline never mutates a :class:`TraceRecord`), so
    sharing the materialized list across runs is safe.
    """
    key = (workload.name, seed)
    entry = _MATERIALIZED.get(key)
    if entry is None:
        entry = [[], iter(SyntheticTrace(workload, seed))]
        _MATERIALIZED[key] = entry
        while len(_MATERIALIZED) > _MATERIALIZED_MAX:
            _MATERIALIZED.popitem(last=False)
    else:
        _MATERIALIZED.move_to_end(key)
    records, stream = entry
    need = count - len(records)
    if need > 0:
        records.extend(itertools.islice(stream, need))
    return records[:count] if len(records) > count else records


def trace_columns(workload, seed, count):
    """``SyntheticTrace(workload, seed)`` as :class:`TraceColumns` of at
    least ``count`` records (a longer prefix when one is held).

    The native tier's counterpart of :func:`materialized_trace`, with
    the same registry-workload contract, served from the column LRU and
    built by :meth:`SyntheticTrace.columns`.
    A request longer than the held prefix builds a new entry from the
    start and replaces the old one, which callers may still hold
    unchanged.  Raises ``OverflowError`` (and caches nothing) when a
    value does not fit its column.
    """
    key = (workload.name, seed)
    with _COLUMN_LOCK:
        columns = _COLUMN_CACHE.get(key)
        if columns is not None and len(columns) >= count:
            _COLUMN_CACHE.move_to_end(key)
            return columns
        columns = SyntheticTrace(workload, seed).columns(count)
        _COLUMN_CACHE[key] = columns
        _COLUMN_CACHE.move_to_end(key)
        held = sum(cols.nbytes for cols in _COLUMN_CACHE.values())
        while len(_COLUMN_CACHE) > 1 and (
                held > COLUMN_CACHE_BYTES
                or len(_COLUMN_CACHE) > COLUMN_CACHE_ENTRIES):
            held -= _COLUMN_CACHE.popitem(last=False)[1].nbytes
    return columns


def clear_materialized_traces():
    """Drop both trace caches (tests, memory pressure)."""
    _MATERIALIZED.clear()
    with _COLUMN_LOCK:
        _COLUMN_CACHE.clear()


class TraceColumns:
    """A trace prefix as flat typed columns, the native tier's input.

    One ``array`` per field of :data:`COLUMNS`; index ``i`` of every
    column is record ``i``.  Two facts the C loop cannot model are
    recorded as the columns are built: ``bad_stores`` lists every index
    whose record is a store missing a source (the interpreter crashes
    on it), so any run window can be checked exactly
    (:meth:`has_bad_store`); ``min_addr`` is the smallest address, or 0
    when none is negative (the C loop indexes its cache tags with C's
    signed remainder, so a negative address must not reach it).

    A ``TraceColumns`` is also a trace: iterating it yields genuine
    :class:`TraceRecord` objects — the source list of :meth:`of`, or
    the registry trace of ``(workload, seed)`` from
    :func:`materialized_trace` — which is what an interpreted fallback
    runs.
    """

    __slots__ = (*(name for name, _ in COLUMNS), "bad_stores", "min_addr",
                 "workload", "seed", "_records")

    def __init__(self, workload=None, seed=None, records=None):
        for name, code in COLUMNS:
            setattr(self, name, array(code))
        self.bad_stores = []
        self.min_addr = 0
        self.workload = workload
        self.seed = seed
        self._records = records

    @classmethod
    def of(cls, records):
        """Uncached columns of a record list (``OverflowError`` when a
        value does not fit its column)."""
        columns = cls(records=records)
        columns._append(records)
        return columns

    def __len__(self):
        return len(self.op)

    def __iter__(self):
        return iter(self.records(len(self)))

    @property
    def nbytes(self):
        return len(self) * RECORD_BYTES

    def arrays(self):
        """The columns in :data:`COLUMNS` order."""
        return tuple(getattr(self, name) for name, _ in COLUMNS)

    def records(self, count):
        """The first ``count`` records as :class:`TraceRecord` objects."""
        if self._records is not None:
            return self._records[:count]
        return materialized_trace(self.workload, self.seed, count)

    def has_bad_store(self, start, stop):
        """Is any record in ``[start, stop)`` a store missing a source?"""
        bad = self.bad_stores
        i = bisect_left(bad, start)
        return i < len(bad) and bad[i] < stop

    def _append(self, records):
        """Append a list of records while the columns are being built.
        Every column is converted before any is extended, so an
        ``OverflowError`` appends nothing."""
        start = len(self)
        tails = [array(code, map(attrgetter(name), records))
                 for name, code in COLUMNS]
        for (name, _), tail in zip(COLUMNS, tails):
            getattr(self, name).extend(tail)
        _, op, _, src1, src2, addr, _ = tails
        self.bad_stores.extend(
            start + i for i in itertools.compress(
                range(len(op)), map(_IS_STORE.__getitem__, op))
            if src1[i] < 0 or src2[i] < 0)
        self.min_addr = min(self.min_addr, min(addr, default=0))

    @classmethod
    def _gather(cls, table, ids, addrs, workload, seed):
        """The columns of the records ``ids`` name in ``table`` (a
        :class:`_Prototypes`), the memory records taking ``addrs`` in
        order (``OverflowError`` when an address does not fit int64).

        Each static column is a strided lane of the joined rows, copied
        at C speed whatever the number of distinct ids; the addresses
        are scattered into the memory records' slots.
        """
        columns = cls(workload, seed)
        rows = b"".join(map(table.rows.__getitem__, ids))
        count = len(ids)
        words = memoryview(rows).cast("q")  # 2 per row: pc, the rest
        halves = memoryview(rows).cast("h")  # 8 per row
        columns.pc = array("q", words[0::2].tobytes())
        columns.dest = array("h", halves[4::8].tobytes())
        columns.src1 = array("h", halves[5::8].tobytes())
        columns.src2 = array("h", halves[6::8].tobytes())
        op = rows[14::16]
        columns.op = array("b", op)
        columns.taken = array("b", rows[15::16])
        mem = op.translate(_IS_MEM)
        used = addrs[:mem.count(1)]
        columns.addr = addr = array("q", bytes(8 * count))
        for i, value in zip(itertools.compress(range(count), mem), used):
            addr[i] = value
        columns.min_addr = min(0, min(used, default=0))
        # A store missing a source is a shape of the table, not of the
        # emission: look for its ids only when the table has one.
        bad = {rid for rid, rec in enumerate(table.records)
               if _IS_STORE[rec.op] and (rec.src1 < 0 or rec.src2 < 0)}
        if bad:
            columns.bad_stores = [i for i, rid in enumerate(ids)
                                  if rid in bad]
        return columns


class SyntheticTrace:
    """Iterable over the dynamic instruction stream of a workload.

    Each ``iter()`` produces an independent, identically-seeded stream.
    """

    def __init__(self, workload, seed=1234):
        self.workload = workload
        self.seed = seed
        self._bindings = [RegisterBinding(k) for k in workload.kernels]
        self._bases = [
            BASE_PC + i * KERNEL_PC_STRIDE for i in range(len(workload.kernels))
        ]
        for kernel, base in zip(workload.kernels, self._bases):
            static_len = len(kernel.body) + 3  # + induction, back-edge, glue
            if static_len * 4 > KERNEL_PC_STRIDE:
                raise ValueError(f"kernel {kernel.name!r} too large for PC region")
        self._table = _Prototypes()
        self._programs = [
            _KernelProgram(kernel, binding, base, self._bases, self._table)
            for kernel, binding, base
            in zip(workload.kernels, self._bindings, self._bases)
        ]

    def __iter__(self):
        # Records cross a C-level chain, one Python resume per visit.
        return itertools.chain.from_iterable(self._record_visits())

    def take(self, n):
        """Materialize the first ``n`` records as a list."""
        return list(itertools.islice(iter(self), n))

    def columns(self, count):
        """The first ``count`` records as :class:`TraceColumns`, gathered
        from the emission without building a record."""
        ids, addrs = array(_ID_CODE), []
        visits = self._visits(ids, addrs)
        while len(ids) < count:
            next(visits)
        del ids[count:]
        return TraceColumns._gather(self._table, ids, addrs, self.workload,
                                    self.seed)

    # -- internals ---------------------------------------------------------

    def _record_visits(self):
        """The records of one kernel visit at a time: the shared
        prototypes, and a fresh (validation-free) record per memory
        operation."""
        protos = self._table.records
        mem = self._table.mem
        trusted = TraceRecord.trusted
        ids, addrs = array(_ID_CODE), []
        for _ in self._visits(ids, addrs):
            records = list(map(protos.__getitem__, ids))
            slots = itertools.compress(range(len(records)),
                                       b"".join(map(mem.__getitem__, ids)))
            for i, addr in zip(slots, addrs):
                rec = records[i]
                records[i] = trusted(rec.pc, rec.op, rec.dest, rec.src1,
                                     rec.src2, addr)
            del ids[:]
            addrs.clear()
            yield records

    def _visits(self, ids, addrs):
        """Emit kernel visits into ``ids`` and ``addrs`` forever,
        yielding after each (:meth:`_run_kernel`)."""
        rng = Random(self.seed)
        kernels = self.workload.kernels
        # Private pattern state per generator so that concurrent iterations
        # of one workload cannot interfere.
        firsts = [program.bind(copy.deepcopy(kernel.arrays))
                  for program, kernel in zip(self._programs, kernels)]
        population = range(len(kernels))
        weights = [k.weight for k in kernels]
        current = rng.choices(population, weights)[0]
        while True:
            nxt = rng.choices(population, weights)[0]
            self._run_kernel(current, nxt, firsts[current], rng, ids, addrs)
            yield
            current = nxt

    def _run_kernel(self, idx, next_idx, first, rng, ids, addrs):
        """One visit of kernel ``idx``, entered at its bound segment
        ``first`` (:meth:`_KernelProgram.bind`): its record ids onto
        ``ids``, the address of each memory statement it runs onto
        ``addrs``, ending in the glue branch to kernel ``next_idx``.
        perfbench's tracer wraps this method to count kernel visits, so
        it keeps its name and stays one call per visit."""
        program = self._programs[idx]
        extend = ids.frombytes
        append = ids.append
        address = addrs.append
        random = rng.random
        for _ in range(program.iterations):
            seg = first
            while True:
                extend(seg[0])
                for next_address in seg[1]:
                    address(next_address(rng))
                if seg[2] is None:
                    break
                if random() < seg[2]:
                    append(seg[3])
                    seg = seg[5]
                else:
                    append(seg[4])
                    seg = seg[6]
        ids[-1] = program.last_backedge
        append(program.glue[next_idx])


def take(trace, n):
    """First ``n`` records of any trace iterable."""
    return list(itertools.islice(iter(trace), n))
