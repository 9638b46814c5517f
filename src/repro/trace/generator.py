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

**Hot-path structure.**  Each kernel body is compiled *once* into a flat
emit program (a list of small tuples tagged by an integer opcode), so
emitting a dynamic instruction costs one tuple dispatch instead of an
``isinstance`` chain per record.  Statements whose record is fully
static (ALU/FP ops, branches — both outcomes, the induction update, the
back edge, the glue branch) pre-build immutable prototype
:class:`TraceRecord` objects at compile time and yield the *same* record
object for every dynamic instance; only loads and stores, whose
effective address varies, construct a fresh (validation-free) record
per instance.  The RNG consumption order is identical to the original
statement-by-statement interpretation, so streams are bit-identical.

**Materialization.**  Registry traces are generated once per
``(workload, seed)`` per process: the interpreter reads record lists
(:func:`materialized_trace`), the native tier reads flat typed columns
(:func:`trace_columns`, :class:`TraceColumns`) that its C loop takes
by pointer, so a sweep builds no record list on that tier.
"""

from __future__ import annotations

import copy
import itertools
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

# Emit-program opcodes (first element of each compiled tuple).
_EMIT_STATIC = 0  # (op, proto_record)
_EMIT_MEM = 1  # (op, array_name, pc, record_op, dest, src1, src2)
_EMIT_BRANCH = 2  # (op, p_taken, skip, proto_taken, proto_not_taken)


class _KernelProgram:
    """One kernel's compiled emit program plus its loop-closing records."""

    __slots__ = ("body", "induction", "backedge_taken", "backedge_last",
                 "glue", "iterations")

    def __init__(self, kernel, binding, base, kernel_bases):
        body_len = len(kernel.body)
        ind_pc = base + 4 * body_len
        backedge_pc = ind_pc + 4
        glue_pc = backedge_pc + 4
        ind_reg = binding[INDUCTION]
        self.iterations = kernel.iterations
        self.body = [
            self._compile_stmt(stmt, base + 4 * pos, binding)
            for pos, stmt in enumerate(kernel.body)
        ]
        self.induction = TraceRecord(ind_pc, OpClass.INT_ALU, dest=ind_reg,
                                     src1=ind_reg)
        self.backedge_taken = TraceRecord(backedge_pc, OpClass.BRANCH,
                                          src1=ind_reg, taken=True, target=base)
        self.backedge_last = TraceRecord(backedge_pc, OpClass.BRANCH,
                                         src1=ind_reg, taken=False, target=base)
        self.glue = [
            TraceRecord(glue_pc, OpClass.BRANCH, src1=ind_reg, taken=True,
                        target=target_base)
            for target_base in kernel_bases
        ]

    @staticmethod
    def _compile_stmt(stmt, pc, binding):
        if isinstance(stmt, Load):
            op = OpClass.LOAD_FP if stmt.fp else OpClass.LOAD_INT
            # Validate the static shape once, through the checked
            # constructor; dynamic instances go through the trusted one.
            TraceRecord(pc, op, dest=binding[stmt.dst],
                        src1=binding[stmt.base], addr=0)
            return (_EMIT_MEM, stmt.array, pc, op, binding[stmt.dst],
                    binding[stmt.base], NO_REG)
        if isinstance(stmt, Store):
            op = OpClass.STORE_FP if stmt.fp else OpClass.STORE_INT
            TraceRecord(pc, op, src1=binding[stmt.base],
                        src2=binding[stmt.value], addr=0)
            return (_EMIT_MEM, stmt.array, pc, op, NO_REG,
                    binding[stmt.base], binding[stmt.value])
        if isinstance(stmt, (IntOp, FpOp)):
            srcs = stmt.srcs
            src1 = binding[srcs[0]]
            src2 = binding[srcs[1]] if len(srcs) > 1 else NO_REG
            proto = TraceRecord(pc, stmt.kind, dest=binding[stmt.dst],
                                src1=src1, src2=src2)
            return (_EMIT_STATIC, proto)
        if isinstance(stmt, CondBranch):
            target = pc + 4 + 4 * stmt.skip
            src = binding[stmt.src]
            return (
                _EMIT_BRANCH, stmt.p_taken, stmt.skip,
                TraceRecord(pc, OpClass.BRANCH, src1=src, taken=True,
                            target=target),
                TraceRecord(pc, OpClass.BRANCH, src1=src, taken=False,
                            target=target),
            )
        raise TypeError(f"unknown statement: {stmt!r}")


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
#   COLUMN_CACHE_BYTES, so the nine paper workloads stay resident
#   through a Figure 4+5 sweep.  An entry holds no generator (whose
#   pattern state and unfinished kernel visit would cost more than the
#   budget counts); a longer prefix is a new entry, built from the
#   start, and held columns are never resized.
_MATERIALIZED: OrderedDict = OrderedDict()
_MATERIALIZED_MAX = 4

_COLUMN_CACHE: OrderedDict = OrderedDict()
#: Byte budget of the column LRU; the newest entry always stays.
COLUMN_CACHE_BYTES = 32 << 20
_COLUMN_CHUNK = 1 << 15  # records generated per column append
_COLUMN_LOCK = threading.Lock()

#: The native tier's trace layout: ``(record field, array typecode)`` in
#: ``repro_run`` argument order — int64 pc and addr, int16 registers,
#: int8 op and taken.
COLUMNS = (("pc", "q"), ("op", "b"), ("dest", "h"), ("src1", "h"),
           ("src2", "h"), ("addr", "q"), ("taken", "b"))
RECORD_BYTES = sum(array(code).itemsize for _, code in COLUMNS)

_IS_STORE = bytes(int(decode[2]) for decode in OP_DECODE)


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
    the same registry-workload contract, served from the column LRU.
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
        columns = TraceColumns(workload, seed)
        stream = iter(SyntheticTrace(workload, seed))
        while len(columns) < count:
            columns._append(list(itertools.islice(
                stream, min(count - len(columns), _COLUMN_CHUNK))))
        _COLUMN_CACHE[key] = columns
        _COLUMN_CACHE.move_to_end(key)
        held = sum(cols.nbytes for cols in _COLUMN_CACHE.values())
        while held > COLUMN_CACHE_BYTES and len(_COLUMN_CACHE) > 1:
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
    column is record ``i``.  ``bad_stores`` lists every index whose
    record is a store missing a source, which the C loop cannot model
    (the interpreter crashes on it), so any run window can be checked
    exactly (:meth:`has_bad_store`).

    A ``TraceColumns`` is also a trace: iterating it yields genuine
    :class:`TraceRecord` objects — the source list of :meth:`of`, or
    the registry trace of ``(workload, seed)`` from
    :func:`materialized_trace` — which is what an interpreted fallback
    runs.
    """

    __slots__ = (*(name for name, _ in COLUMNS), "bad_stores", "workload",
                 "seed", "_records")

    def __init__(self, workload=None, seed=None, records=None):
        for name, code in COLUMNS:
            setattr(self, name, array(code))
        self.bad_stores = []
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
        _, op, _, src1, src2, _, _ = tails
        self.bad_stores.extend(
            start + i for i in itertools.compress(
                range(len(op)), map(_IS_STORE.__getitem__, op))
            if src1[i] < 0 or src2[i] < 0)


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
        self._programs = [
            _KernelProgram(kernel, binding, base, self._bases)
            for kernel, binding, base
            in zip(workload.kernels, self._bindings, self._bases)
        ]

    def __iter__(self):
        return self._generate()

    def take(self, n):
        """Materialize the first ``n`` records as a list."""
        return list(itertools.islice(iter(self), n))

    # -- internals ---------------------------------------------------------

    def _generate(self):
        rng = Random(self.seed)
        kernels = self.workload.kernels
        # Private pattern state per generator so that concurrent iterations
        # of one workload cannot interfere.
        arrays = [copy.deepcopy(k.arrays) for k in kernels]
        weights = [k.weight for k in kernels]
        current = rng.choices(range(len(kernels)), weights)[0]
        while True:
            nxt = rng.choices(range(len(kernels)), weights)[0]
            # One kernel visit is materialized eagerly and re-yielded at
            # C speed: the consumer crosses a single generator frame per
            # record instead of two.  The RNG draw order is unchanged
            # (nothing interleaves with a visit), so streams stay
            # bit-identical to lazy emission.
            yield from self._run_kernel(current, nxt, arrays[current], rng)
            current = nxt

    def _run_kernel(self, idx, next_idx, arrays, rng):
        """All records of one kernel visit, in emission order (a list)."""
        program = self._programs[idx]
        body = program.body
        body_len = len(body)
        trusted = TraceRecord.trusted
        random = rng.random
        induction = program.induction
        backedge_taken = program.backedge_taken
        last_iteration = program.iterations - 1
        out = []
        emit = out.append

        for it in range(program.iterations):
            pos = 0
            while pos < body_len:
                entry = body[pos]
                kind = entry[0]
                if kind == _EMIT_STATIC:
                    emit(entry[1])
                    pos += 1
                elif kind == _EMIT_MEM:
                    _, array, pc, op, dest, src1, src2 = entry
                    addr = arrays[array].next_address(rng)
                    emit(trusted(pc, op, dest, src1, src2, addr))
                    pos += 1
                else:  # _EMIT_BRANCH
                    taken = random() < entry[1]
                    if taken:
                        emit(entry[3])
                        pos += 1 + entry[2]
                    else:
                        emit(entry[4])
                        pos += 1

            # Induction update and loop back-edge.
            emit(induction)
            emit(backedge_taken if it != last_iteration
                 else program.backedge_last)

        # Glue branch into the next kernel (always taken).
        emit(program.glue[next_idx])
        return out


def take(trace, n):
    """First ``n`` records of any trace iterable."""
    return list(itertools.islice(iter(trace), n))
