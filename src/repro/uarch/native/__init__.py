"""The native engine tier: C codegen + an on-disk artifact cache.

The interpreter (:meth:`repro.uarch.processor.Processor._step`) pays
CPython bytecode dispatch on every simulated cycle.  This package
lowers the same loop to C99: a header holding only fixed constants (the
tag encoding, the opcode decode tables and the counter and parameter
slot numbers) is prepended to ``engine_template.c`` (one translation
unit), compiled once with the system toolchain and the flags of
:data:`CFLAGS` (``cc -O1 -shared -fPIC``; ``REPRO_CC`` overrides the
probe order), and loaded through :mod:`ctypes`.  Everything a
``ProcessorConfig`` decides travels to ``repro_run`` at run time in one
``int64`` parameter block (:data:`_PARAM_NAMES`): the ``F_*`` feature
flags
(:func:`native_features`; each is an ordinary C branch on a value fixed
for the run) and every sizing value — per-class NLR/NPR/NVR/NRR,
widths, ROB/IQ/fetch-buffer sizes, ports, cache geometry, FU counts,
the BHT mask, the deadlock and event horizons — from which the C side
allocates its tables.
The loop reads the trace as typed columns
(:class:`~repro.trace.generator.TraceColumns`, cached once per registry
``(workload, seed)``) in place, so no record list is built or copied per
run: it warms the cache tags and the branch predictor from the first
``skip`` entries, then simulates the rest; the whole run executes in
native code, and a flat counter block is mapped back onto
``SimStats`` — the contract is **bit-identical** statistics with the
interpreter, enforced by the differential stack
(``tools/engine_diff.py``, golden replays, the chaos differential).

Nothing the C loop allocates grows with the trace.  Its per-instruction
records live in a ring over the in-flight window (a power of two of at
least ROB + fetch buffer slots, indexed by ``seq & mask``), as do the
NRR reservation queue and the store queue; the ready set and the loads
waiting for the cache are bitmaps over that ring, walked oldest first
from the ROB head; completions sit in a wheel of per-cycle buckets
spanning :func:`event_horizon` cycles, so an event is appended to its
cycle's list instead of sifted through a heap.

The shared object is cached under ``REPRO_CACHE_DIR/native/`` keyed by
``sha256(flags + header + template)`` (:func:`native_key`).  The header
depends on no configuration, so there is one artifact per template:
every natively lowerable configuration (the Figure 4 and 5 grids, every
``repro.experiments`` grid) shares it, and a machine compiles it once
per code version.  The file name also embeds a fingerprint of the
template and the compiler flags, so an artifact from an older code
version or built with other flags is recognizable as stale (``repro
cache stats`` flags it, ``repro cache compact`` prunes it).  A
cross-process ``flock`` serializes concurrent builds of the artifact.

Everything degrades loudly but gracefully: no toolchain (when the
artifact is not on disk yet), a failed compile, a processor the C loop
cannot lower (or whose cache fills can land past
:data:`MAX_EVENT_HORIZON`), or a trace shape it does not model (a store
missing a source in the run window, a negative address, a value too
wide for its column) falls back to the interpreter, with the reason
recorded in :data:`build_failures` and the fallback counted in
``SimStats.engine_fallbacks``; the C loop warms only its own copies of
the cache tags and the predictor, so the interpreter warms its own from
records, once, before it takes over.

``engine="auto"`` (the default) takes this tier whenever it is ready
for a processor (:func:`ready`): :func:`native_features` accepts it and
the artifact is loaded, on disk, or buildable by the calling process;
otherwise the run takes the interpreter without counting a fallback.
A process that must never wait on a compiler (``repro serve``) calls
:func:`defer_builds` at start-up and :func:`start_deferred_build` when
it can afford one: the build then runs in a background thread, and its
``auto`` runs stay on the interpreter until the library loads.  Every
compiler, the toolchain probe's included, runs in its own session and
process group, so it is scheduled apart from the caller and
:func:`stop_builds` can kill and reap all of it.

Known limitation: after a native run the renamer's *map-table and
free-list contents* are not synced back (only their statistics
counters are) — inspect rename state on interp.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import subprocess
import tempfile
import threading
from array import array
from functools import lru_cache
from pathlib import Path

from repro.core.conventional import ConventionalRenamer
from repro.core.policy import PolicyCapabilities, policy_capabilities
from repro.core.virtual_physical import VirtualPhysicalRenamer
from repro.isa.opcodes import FUKind, OP_DECODE
from repro.isa.registers import CLASS_SHIFT, RegClass
from repro.obs import metrics as _metrics

#: native-run failures by reason (diagnostics; reset per process).
build_failures: dict[str, int] = {}

#: in-process cache of loaded shared objects, keyed by artifact name.
_LIB_CACHE: dict[str, object] = {}

_ARTIFACTS = _metrics.get_registry().counter(
    "repro_native_artifacts_total",
    "Native engine artifact requests by outcome: memory (loaded in this "
    "process), disk (loaded from the artifact cache), built (compiled), "
    "failed (no artifact; the run falls back).",
    labelnames=("outcome",))

_TOOLCHAIN_UNSET = object()
_toolchain = _TOOLCHAIN_UNSET

#: Set by :func:`defer_builds`: only the background build compiles.
_builds_deferred = False
_build_thread = None
#: The background build's ``prebuild()`` outcome, once it ended.
_build_outcome = None
#: Compilers running now (their own process groups), and whether
#: :func:`stop_builds` has stopped new ones from starting.
_compilers = set()
_compilers_lock = threading.Lock()
_compilers_stopped = False
#: Artifact directories already checked for writability, by path.
_writable_dirs: dict[str, bool] = {}

_TEMPLATE_PATH = Path(__file__).with_name("engine_template.c")
_template_cache = None

#: The flat counter block the C loop fills, in slot order.  This tuple
#: is the single source of truth: it generates the ``K_*`` defines in
#: the rendered header, and the sync-back indexes counters by it.
_COUNTER_NAMES = (
    "now", "exhausted", "committed", "fetched", "executions", "squashes",
    "issue_alloc_blocks", "branches", "mispredicts", "stall_rob_full",
    "stall_iq_full", "stall_no_reg", "stall_sq_full", "fetch_stall_cycles",
    "wb_port_defers", "int_reg_occupancy_sum", "fp_reg_occupancy_sum",
    "peak_rob", "iq_count", "fetch_resume_at", "next_seq", "last_commit",
    "cache_loads", "cache_load_misses", "cache_stores", "cache_store_misses",
    "cache_mshr_stalls",
    "sq_forwards", "sq_waits", "port_conflicts", "mshr_allocations",
    "mshr_merges", "mshr_rejections", "bus_transfers", "bus_busy_cycles",
    "bus_free_at", "rf_read_stalls", "rf_bank_conflicts",
    "ren_decode_stalls", "ren_vp_stalls", "ren_squashes",
    "ren_issue_blocks", "fl_int_allocs", "fl_int_min_free", "fl_fp_allocs",
    "fl_fp_min_free", "vp_int_allocs", "vp_int_min_free", "vp_fp_allocs",
    "vp_fp_min_free",
    "fu_issues_0", "fu_issues_1", "fu_issues_2", "fu_issues_3",
    "fu_issues_4", "fu_issues_5",
    "fu_stalls_0", "fu_stalls_1", "fu_stalls_2", "fu_stalls_3",
    "fu_stalls_4", "fu_stalls_5",
    "deadlock_head",
)
_K = {name: i for i, name in enumerate(_COUNTER_NAMES)}
N_COUNTERS = len(_COUNTER_NAMES)

#: The feature flags :func:`native_features` derives, each 0 or 1: the
#: port model and its banks, a store-queue bound, the VP allocation
#: hooks (write-back / issue), writers held in the IQ, retry gating,
#: the branch oracle and the VP renamer family.
_FLAG_NAMES = (
    "F_RF", "F_RF_BANKS", "F_SQ", "F_COMPLETE", "F_ISSUE", "F_VP_WB",
    "F_RETRY", "F_PERFECT", "F_VP",
)

#: The parameter block ``repro_run`` reads at entry, in slot order: the
#: flags, then the sizing.  Like the counter block, this tuple generates
#: the ``P_*`` slot defines of the rendered header; :func:`_param_block`
#: fills it.  The C side indexes the per-class pairs (``P_NLR_INT +
#: cls``) and the FU counts (``P_FU_N_0 + kind``) by offset, so each
#: group stays contiguous and in this order.
_PARAM_NAMES = _FLAG_NAMES + (
    "NLR_INT", "NLR_FP", "NPR_INT", "NPR_FP", "NVR_INT", "NVR_FP",
    "NRR_INT", "NRR_FP",
    "FETCH_W", "RENAME_W", "ISSUE_W", "COMMIT_W", "ROB_SIZE", "IQ_SIZE",
    "FB_SIZE", "READ_PORTS", "WRITE_PORTS", "COMMIT_DELAY", "HORIZON",
    "NUM_LINES", "LINE_BYTES", "HIT_LAT", "MISS_PEN", "MSHR_N", "BUS_CPL",
    "CACHE_PORTS", "BHT_MASK", "SQ_CAP", "EV_HORIZON",
    "RF_BANKS", "RF_BANK_RP", "RF_BANK_WP",
    "FU_N_0", "FU_N_1", "FU_N_2", "FU_N_3", "FU_N_4", "FU_N_5",
)
N_PARAMS = len(_PARAM_NAMES)

#: The compiler flags of every build, the toolchain probe's included.
#: Part of the artifact's identity (:func:`template_fingerprint`).
#: ``-O1`` compiles in about half the time of ``-O2``, and its loop
#: measured within 2% of ``-O2``'s (ROADMAP, "Compile cost").
CFLAGS = ("-O1", "-shared", "-fPIC")

_PROBE_SOURCE = "int repro_probe(void) { return 42; }\n"

#: "Never" on the event clock; the same sentinel as the interpreter's.
_FAR_FUTURE = 1 << 60


def _note_failure(reason):
    build_failures[reason] = build_failures.get(reason, 0) + 1


def _template_text():
    global _template_cache
    if _template_cache is None:
        _template_cache = _TEMPLATE_PATH.read_text(encoding="utf-8")
    return _template_cache


@lru_cache(maxsize=None)
def template_fingerprint():
    """Short hash of the compiler flags and the C template; embedded in
    artifact file names so artifacts from an older template, or built
    with other flags, are recognizable as stale.  Hashed once per
    process."""
    text = " ".join(CFLAGS) + "\n" + _template_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _kill_group(proc):
    """End ``proc``'s whole process group and reap ``proc``: SIGTERM
    first, so ``cc`` gets to remove its temporary files, then SIGKILL
    for whatever is left of the group."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait(timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass  # the whole group has exited
    proc.wait()


def _compile(args, timeout):
    """Run the compiler command ``args``; whether it exited 0.

    The compiler starts in its own session (so its own process group and
    scheduling group): it competes with the caller's busy threads as a
    peer instead of as one of them, and :func:`stop_builds` can end it
    with every process it spawned.  Its output is read and discarded:
    ``communicate`` returns when the pipe closes, where ``wait`` with a
    timeout would poll, up to 50 ms late."""
    with _compilers_lock:
        if _compilers_stopped:
            return False
        try:
            proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE,
                                    start_new_session=True)
        except OSError:
            return False
        _compilers.add(proc)
    try:
        proc.communicate(timeout=timeout)
        return proc.returncode == 0
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return False
    finally:
        proc.stderr.close()
        with _compilers_lock:
            _compilers.discard(proc)


def _try_compiler(cc):
    """Probe-compile a trivial shared object with ``cc``."""
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        src = os.path.join(tmp, "probe.c")
        out = os.path.join(tmp, "probe.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_PROBE_SOURCE)
        return (_compile([cc, *CFLAGS, "-o", out, src], timeout=60)
                and os.path.exists(out))


def toolchain():
    """The working C compiler for this host, or ``None``.

    Probed once per process: ``$REPRO_CC`` first (if set, *only* it —
    an explicit override should fail loudly, not silently fall back to
    another compiler), then ``cc``, ``gcc``, ``clang``.
    """
    global _toolchain
    if _toolchain is _TOOLCHAIN_UNSET:
        override = os.environ.get("REPRO_CC", "").strip()
        candidates = [override] if override else ["cc", "gcc", "clang"]
        _toolchain = next((cc for cc in candidates if _try_compiler(cc)),
                          None)
    return _toolchain


def clear_cache():
    """Drop the in-process library cache and failure counters (tests).

    The on-disk artifacts and the toolchain probe are *not* reset —
    they are host properties, not run state.
    """
    _LIB_CACHE.clear()
    build_failures.clear()


def cache_info():
    """Diagnostics: loaded libraries and recorded build failures."""
    return {
        "loaded_libraries": len(_LIB_CACHE),
        "build_failures": dict(build_failures),
    }


def artifact_dir():
    """Where compiled shared objects live: ``REPRO_CACHE_DIR/native``."""
    from repro.engine.store import default_cache_dir

    return Path(default_cache_dir()) / "native"


# -- feature gating ----------------------------------------------------------


def native_features(processor):
    """``(flags, None)`` or ``(None, reason)``.

    ``flags`` maps each name of :data:`_FLAG_NAMES` to 0 or 1: the
    feature flags :func:`_param_block` writes into the parameter block,
    which select the C loop's branches for this processor.

    The C loop inlines every subsystem, so it refuses a policy
    registered without a :class:`PolicyCapabilities` declaration (or
    whose built renamer contradicts it — a guard against a drifted
    re-registration), any renamer but the two built-in classes, and
    any instance-level method override where the loop bypasses the
    method (tests and tracers wrap them; class-level dispatch would
    honor such wrappers, an inline body would not).
    """
    cfg = processor.config
    renamer = processor.renamer
    try:
        caps = policy_capabilities(cfg.policy)
    except KeyError:
        return None, "unsupported-policy"
    if caps is None or caps != PolicyCapabilities.of(renamer):
        return None, "unsupported-policy"
    overridden = set(renamer.__dict__)
    conv = (type(renamer) is ConventionalRenamer
            and not overridden & {"rename", "can_rename", "on_commit"})
    vp = (type(renamer) is VirtualPhysicalRenamer
          and not overridden & {"rename", "can_rename", "on_commit",
                                "on_dispatch", "on_issue", "on_complete",
                                "may_allocate_now", "_try_allocate",
                                "_rename_sources"})
    retry = bool(caps.supports_retry_gating and cfg.retry_gating)
    if not ((conv or vp)
            and not set(processor.fus.__dict__) & {"find_free",
                                                   "claim_unit"}
            and "update" not in processor.bht.__dict__
            and processor._int_free is not None):
        return None, "unsupported-policy"
    if vp:
        if (not caps.has_dispatch_hook
                or caps.holds_writers_in_iq != caps.has_complete_hook):
            return None, "unsupported-policy"
    elif (caps.has_complete_hook or caps.has_issue_hook
            or caps.has_dispatch_hook or caps.holds_writers_in_iq or retry):
        return None, "unsupported-policy"
    if event_horizon(processor.mem.cache.config) > MAX_EVENT_HORIZON:
        return None, "event-horizon-too-long"
    rf = bool(cfg.rf_model)
    return {
        "F_RF": int(rf),
        "F_RF_BANKS": int(rf and processor.regfile.banks > 1),
        "F_SQ": int(bool(cfg.store_queue_size)),
        "F_COMPLETE": int(caps.has_complete_hook),
        "F_ISSUE": int(caps.has_issue_hook),
        "F_VP_WB": int(caps.holds_writers_in_iq),
        "F_RETRY": int(retry),
        "F_PERFECT": int(bool(cfg.perfect_branch_prediction)),
        "F_VP": int(vp),
    }, None


def _pristine(processor):
    """The C loop assumes reset machine state (identity rename maps,
    full free pools, cycle zero); refuse anything pre-mutated."""
    p = processor
    if (p.now != 0 or p._next_seq != 0 or p.rob or p.fetch_buffer
            or p.pending_mem or p._replay or p.stats.committed
            or p.stats.cycles):
        return False
    tables = [p.renamer.phys_pools()]
    if hasattr(p.renamer, "free_vp"):
        tables.append(p.renamer.free_vp)
    pools = [table[cls] for table in tables
             for cls in (RegClass.INT, RegClass.FP)]
    return all(fl.allocations == 0 and fl.free_count == fl.capacity
               for fl in pools)


# -- header rendering --------------------------------------------------------


def render_header():
    """The header completing ``engine_template.c`` into one
    self-contained translation unit: the fixed tag-encoding constants,
    the wheel's largest span, the opcode decode tables and the counter
    and parameter slot numbers.
    Nothing in it depends on a configuration."""
    lines = ["/* generated by repro.uarch.native - do not edit */"]
    define = lambda name, value: lines.append(f"#define {name} {value}")

    define("CLASS_SHIFT", CLASS_SHIFT)
    define("INDEX_MASK", (1 << CLASS_SHIFT) - 1)
    define("FAR_FUTURE", f"INT64_C({_FAR_FUTURE})")
    define("MAX_EV_HORIZON", MAX_EVENT_HORIZON)

    define("N_OPS", len(OP_DECODE))
    cols = {"OP_DEST_INIT": [], "OP_LOAD_INIT": [], "OP_STORE_INIT": [],
            "OP_BR_INIT": [], "OP_FU_INIT": [], "OP_LAT_INIT": [],
            "OP_PIPE_INIT": []}
    for dcls, is_load, is_store, is_br, fu_kind, latency, pipelined \
            in OP_DECODE:
        cols["OP_DEST_INIT"].append(-1 if dcls is None else int(dcls))
        cols["OP_LOAD_INIT"].append(int(is_load))
        cols["OP_STORE_INIT"].append(int(is_store))
        cols["OP_BR_INIT"].append(int(is_br))
        cols["OP_FU_INIT"].append(int(fu_kind))
        cols["OP_LAT_INIT"].append(int(latency))
        cols["OP_PIPE_INIT"].append(int(pipelined))
    for name, values in cols.items():
        define(name, "{" + ", ".join(map(str, values)) + "}")

    for i, name in enumerate(_COUNTER_NAMES):
        define(f"K_{name.upper()}", i)
    define("N_COUNTERS", N_COUNTERS)
    for i, name in enumerate(_PARAM_NAMES):
        define(f"P_{name}", i)
    define("N_PARAMS", N_PARAMS)
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _artifact_key():
    blob = " ".join(CFLAGS) + "\n" + render_header() + _template_text()
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=None)
def _artifact_name():
    """The artifact's file name; named once per process."""
    return f"engine-{template_fingerprint()}-{_artifact_key()}.so"


def native_key(processor):
    """Stable identity of the artifact a processor would run on, or
    ``None`` when it cannot run natively.  Hashes the compiler flags,
    the *rendered* header and the template text, so a change to any of
    them produces a new artifact; the header holds no configuration, so
    every processor that can run natively shares one key."""
    flags, _ = native_features(processor)
    return None if flags is None else _artifact_key()


#: The longest event horizon the C loop sizes its wheel for (two
#: 256 KB bucket arrays).  A cache whose fills can land further out runs
#: on the interpreter, whose wheel keeps far events in a dict.
MAX_EVENT_HORIZON = 1 << 16


def event_horizon(cache_config):
    """The longest delay, in cycles, at which the loop can schedule a
    completion: an opcode's latency, a hit, or the last of ``MSHR_N``
    fills queued back to back on the bus.  At most ``mshr_entries``
    transfers are in flight (each holds an MSHR until its fill), and the
    oldest of them finishes within ``max(miss_penalty,
    bus_cycles_per_line)`` cycles, so every fill lands within this
    bound.  The C loop sizes its event wheel from it."""
    c = cache_config
    fill = (max(c.miss_penalty, c.bus_cycles_per_line)
            + (c.mshr_entries - 1) * c.bus_cycles_per_line)
    return max(fill, c.hit_latency,
               *(latency for *_, latency, _ in OP_DECODE))


def _param_block(processor, flags):
    """The ``int64`` parameter block ``repro_run`` configures one run
    from, laid out in :data:`_PARAM_NAMES` order; ``flags`` is what
    :func:`native_features` returned."""
    cfg = processor.config
    ren = processor.renamer
    vp = flags["F_VP"]
    values = dict(
        flags,
        FETCH_W=cfg.fetch_width, RENAME_W=cfg.rename_width,
        ISSUE_W=cfg.issue_width, COMMIT_W=cfg.commit_width,
        ROB_SIZE=cfg.rob_size, IQ_SIZE=cfg.iq_size,
        FB_SIZE=cfg.fetch_buffer_size,
        COMMIT_DELAY=1 + processor._commit_extra,
        HORIZON=cfg.deadlock_horizon)
    for cls, suffix in ((RegClass.INT, "INT"), (RegClass.FP, "FP")):
        values[f"NLR_{suffix}"] = ren.nlr[cls]
        values[f"NPR_{suffix}"] = ren.npr[cls]
        values[f"NVR_{suffix}"] = ren.nvr[cls] if vp else ren.npr[cls]
        values[f"NRR_{suffix}"] = (ren._reserve_by_cls[cls].nrr if vp
                                   else 0)
    ccfg = processor.mem.cache.config
    values.update(
        NUM_LINES=ccfg.num_lines, LINE_BYTES=ccfg.line_bytes,
        HIT_LAT=ccfg.hit_latency, MISS_PEN=ccfg.miss_penalty,
        MSHR_N=ccfg.mshr_entries, BUS_CPL=ccfg.bus_cycles_per_line,
        CACHE_PORTS=cfg.cache_ports, BHT_MASK=processor.bht._mask,
        SQ_CAP=cfg.store_queue_size or 0, EV_HORIZON=event_horizon(ccfg))
    # The per-class port budgets: the port model's when it is on.
    rf = processor.regfile
    if rf is not None:
        values.update(
            READ_PORTS=rf.read_ports, WRITE_PORTS=rf.write_ports,
            RF_BANKS=rf.banks, RF_BANK_RP=rf.bank_read_ports,
            RF_BANK_WP=rf.bank_write_ports)
    else:
        values.update(READ_PORTS=cfg.read_ports,
                      WRITE_PORTS=cfg.write_ports, RF_BANKS=1,
                      RF_BANK_RP=0, RF_BANK_WP=0)
    for kind in FUKind:
        values[f"FU_N_{int(kind)}"] = len(processor.fus._busy_until[kind])
    return array("q", (values[name] for name in _PARAM_NAMES))


# -- artifact build + load ---------------------------------------------------


def _declare(lib):
    lib.repro_run.restype = ctypes.c_int64
    lib.repro_run.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 11
    return lib


def _failed(reason):
    _note_failure(reason)
    _ARTIFACTS.inc(outcome="failed")
    return None, reason


def build_library(processor):
    """``(loaded library, None)`` or ``(None, failure reason)``.

    One artifact serves every processor that :func:`native_features`
    accepts; :func:`execute` passes the flags and the sizing at run
    time.  Cache ladder: in-process loaded library -> on-disk shared
    object -> probe the toolchain and compile (under the cross-process
    build lock, with an atomic rename so readers never see a partial
    artifact), so a process that finds the artifact never runs a
    compiler.  Each call counts one ``repro_native_artifacts_total``
    outcome: ``memory``, ``disk``, ``built`` or ``failed``.  In a
    process that defers its builds (:func:`defer_builds`) only the
    background build compiles; any other call that would have to fails
    with ``artifact-pending``.
    """
    flags, reason = native_features(processor)
    if flags is None:
        return _failed(reason)
    name = _artifact_name()
    lib = _LIB_CACHE.get(name)
    if lib is not None:
        _ARTIFACTS.inc(outcome="memory")
        return lib, None
    directory = artifact_dir()
    so_path = directory / name
    outcome = "disk"
    if not so_path.exists():
        if (_builds_deferred
                and threading.current_thread() is not _build_thread):
            return _failed("artifact-pending")
        cc = toolchain()
        if cc is None:
            return _failed("no-toolchain")
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            return _failed("cache-dir-unwritable")
        from repro.engine.store import directory_lock

        with directory_lock(directory):
            if not so_path.exists():  # a peer may have built it meanwhile
                source = render_header() + _template_text()
                src_path = directory / f"{name[:-3]}.c"
                tmp_path = directory / f".{name}.tmp-{os.getpid()}"
                try:
                    src_path.write_text(source, encoding="utf-8")
                    if not _compile([cc, *CFLAGS, "-o", str(tmp_path),
                                     str(src_path)], timeout=300):
                        return _failed("compile-error")
                    os.replace(tmp_path, so_path)
                    outcome = "built"
                except OSError:
                    return _failed("compile-error")
                finally:
                    for leftover in (tmp_path, src_path):
                        try:
                            leftover.unlink()
                        except OSError:
                            pass
    try:
        # PyDLL, not CDLL: the GIL stays held during the call, so the
        # file-scope statics in the C loop need no further locking.
        lib = _declare(ctypes.PyDLL(str(so_path)))
    except OSError:
        return _failed("load-error")
    _LIB_CACHE[name] = lib
    _ARTIFACTS.inc(outcome=outcome)
    return lib, None


# -- engine="auto" and deferred builds --------------------------------------


def _writable(directory):
    """:func:`_dir_writable`, checked once per directory per process."""
    key = str(directory)
    if key not in _writable_dirs:
        _writable_dirs[key] = _dir_writable(directory)
    return _writable_dirs[key]


def auto_status():
    """``(tier, why)``: what ``engine="auto"`` resolves to in this
    process now, for a processor :func:`native_features` accepts.

    ``native`` when the artifact is loaded, on disk, or buildable here;
    ``interp`` while a deferred build is pending or after it failed, and
    for lack of a toolchain or of a writable artifact directory.  A
    process that defers its builds never probes the toolchain here: the
    probe is a compile too."""
    name = _artifact_name()
    if name in _LIB_CACHE:
        return "native", "artifact loaded"
    directory = artifact_dir()
    if (directory / name).is_file():
        return "native", "artifact on disk"
    if _builds_deferred:
        if _build_outcome is None:
            return "interp", "native build pending"
        reason = _build_outcome[1]
        return "interp", ("no C toolchain" if reason == "no-toolchain"
                          else f"native build failed ({reason})")
    if toolchain() is None:
        return "interp", "no C toolchain"
    if not _writable(directory):
        return "interp", f"artifact dir {directory} not writable"
    return "native", "builds on first run"


def ready(processor):
    """Whether an ``engine="auto"`` run of ``processor`` takes this tier:
    :func:`native_features` accepts it and :func:`auto_status` says
    native."""
    return (native_features(processor)[0] is not None
            and auto_status()[0] == "native")


def defer_builds():
    """Never compile while running points, in this process and in the
    pool workers it forks from now on.

    ``auto`` runs take native only once the artifact is loaded or on
    disk, an explicit ``native`` run falls back (``artifact-pending``),
    and the one build waits for :func:`start_deferred_build`."""
    global _builds_deferred
    _builds_deferred = True


def start_deferred_build():
    """Start the deferred build in a background thread; the thread, or
    ``None`` when builds are not deferred, the build already started,
    or ``REPRO_ENGINE`` pins the interpreter (nothing would use it)."""
    global _build_thread
    from repro.uarch.config import resolve_engine

    if not _builds_deferred or _build_thread is not None:
        return None
    try:
        if resolve_engine(None) == "interp":
            return None
    except ValueError:
        return None

    def build():
        global _build_outcome
        outcome = None, "build-error"
        try:
            outcome = prebuild()
        finally:
            _build_outcome = outcome

    _build_thread = threading.Thread(target=build, daemon=True,
                                     name="repro-native-build")
    _build_thread.start()
    return _build_thread


def stop_builds():
    """Kill every compiler this process runs, with its whole process
    group, start no more, and wait for the background build to remove
    its source and temporary files (the shutdown path of ``repro
    serve``)."""
    global _compilers_stopped
    with _compilers_lock:
        _compilers_stopped = True
        running = list(_compilers)
    for proc in running:
        _kill_group(proc)
    if _build_thread is not None:
        _build_thread.join(30)


# -- execution ---------------------------------------------------------------


def _ptr(arr):
    return ctypes.c_void_p(arr.buffer_info()[0])


def _sync(processor, c, tags_arr, bht_arr):
    """Map the flat counter block back onto the live Python objects.

    Restores the machine state the interpreter would leave (clock,
    window occupancy, cache tags, predictor counters) plus the
    subsystem counters ``_harvest_stats`` reads afterwards.
    """
    p = processor
    K = _K
    st = p.stats
    p.now = c[K["now"]]
    p._exhausted = bool(c[K["exhausted"]])
    p.iq_count = c[K["iq_count"]]
    p.fetch_resume_at = c[K["fetch_resume_at"]]
    p._next_seq = c[K["next_seq"]]
    p._last_commit_cycle = c[K["last_commit"]]
    st.committed = c[K["committed"]]
    st.fetched = c[K["fetched"]]
    st.executions = c[K["executions"]]
    st.squashes = c[K["squashes"]]
    st.issue_alloc_blocks = c[K["issue_alloc_blocks"]]
    st.branches = c[K["branches"]]
    st.mispredicts = c[K["mispredicts"]]
    st.stall_rob_full = c[K["stall_rob_full"]]
    st.stall_iq_full = c[K["stall_iq_full"]]
    st.stall_no_reg = c[K["stall_no_reg"]]
    st.stall_sq_full = c[K["stall_sq_full"]]
    st.fetch_stall_cycles = c[K["fetch_stall_cycles"]]
    st.wb_port_defers = c[K["wb_port_defers"]]
    st.int_reg_occupancy_sum = c[K["int_reg_occupancy_sum"]]
    st.fp_reg_occupancy_sum = c[K["fp_reg_occupancy_sum"]]
    st.peak_rob = c[K["peak_rob"]]

    cache = p.mem.cache
    cache.loads = c[K["cache_loads"]]
    cache.load_misses = c[K["cache_load_misses"]]
    cache.stores = c[K["cache_stores"]]
    cache.store_misses = c[K["cache_store_misses"]]
    cache.mshr_stalls = c[K["cache_mshr_stalls"]]
    cache._tags[:] = tags_arr.tolist()
    cache.mshrs.allocations = c[K["mshr_allocations"]]
    cache.mshrs.merges = c[K["mshr_merges"]]
    cache.mshrs.rejections = c[K["mshr_rejections"]]
    cache.bus.transfers = c[K["bus_transfers"]]
    cache.bus.busy_cycles = c[K["bus_busy_cycles"]]
    cache.bus._free_at = c[K["bus_free_at"]]
    p.mem.port_conflicts = c[K["port_conflicts"]]
    sq = p.mem.store_queue
    sq.forwards = c[K["sq_forwards"]]
    sq.waits = c[K["sq_waits"]]
    p.bht._counters[:] = bht_arr.tolist()

    ren = p.renamer
    if hasattr(ren, "vp_stalls"):
        ren.vp_stalls = c[K["ren_vp_stalls"]]
        ren.squashes = c[K["ren_squashes"]]
        ren.issue_blocks = c[K["ren_issue_blocks"]]
    elif hasattr(ren, "decode_stalls"):
        ren.decode_stalls = c[K["ren_decode_stalls"]]
    pools = ren.phys_pools()
    for cls, prefix in ((RegClass.INT, "fl_int"), (RegClass.FP, "fl_fp")):
        pools[cls].allocations = c[K[f"{prefix}_allocs"]]
        pools[cls].min_free = c[K[f"{prefix}_min_free"]]
    if hasattr(ren, "free_vp"):
        for cls, prefix in ((RegClass.INT, "vp_int"),
                            (RegClass.FP, "vp_fp")):
            ren.free_vp[cls].allocations = c[K[f"{prefix}_allocs"]]
            ren.free_vp[cls].min_free = c[K[f"{prefix}_min_free"]]

    for kind in FUKind:
        p.fus.issues[kind] = c[K[f"fu_issues_{int(kind)}"]]
        p.fus.structural_stalls[kind] = c[K[f"fu_stalls_{int(kind)}"]]
    if p.regfile is not None:
        p.regfile.read_stalls = c[K["rf_read_stalls"]]
        p.regfile.bank_conflicts = c[K["rf_bank_conflicts"]]


def execute(processor, columns, skip, n):
    """Warm ``processor`` on records ``[0, skip)`` of ``columns`` (a
    :class:`~repro.trace.generator.TraceColumns`) and run records
    ``[skip, skip + n)`` through the native loop.

    The C loop reads the shared columns in place from entry 0 and does
    the warm-up itself.  Returns ``True`` when the native tier ran and
    the processor's state was synced (the caller finishes with
    ``_harvest_stats`` exactly as after an interpreted run), ``False``
    on any fallback (reason recorded in :data:`build_failures`; the
    processor is untouched, warm-up included), and raises
    ``SimulationDeadlock`` — with the interpreter's message prefix —
    when the simulation deadlocks.
    """
    if n == 0:
        _note_failure("empty-trace")
        return False
    if n >= 2 ** 31:
        _note_failure("trace-too-long")
        return False
    if processor._fault_at_commits:
        _note_failure("fault-injection")
        return False
    if not _pristine(processor):
        _note_failure("non-pristine-state")
        return False
    lib, reason = build_library(processor)
    if lib is None:
        return False
    if columns.has_bad_store(skip, skip + n):
        # A store's value tag is src_tags[1]; the interpreter crashes on
        # a store missing a source, the C loop cannot.
        _note_failure("store-missing-src")
        return False
    if columns.min_addr < 0:
        # The C loop indexes its cache tags with C's signed remainder,
        # so a negative line would land before the tag array.
        _note_failure("negative-address")
        return False
    params = _param_block(processor, native_features(processor)[0])
    tags_arr = array("q", processor.mem.cache._tags)
    bht_arr = array("b", processor.bht._counters)
    counters = array("q", bytes(8 * N_COUNTERS))
    # Columns are never resized once built, and the GIL stays held
    # through the call, so the pointers stay valid while C reads them.
    rc = lib.repro_run(skip, n, _ptr(params),
                       *map(_ptr, columns.arrays()),
                       _ptr(tags_arr), _ptr(bht_arr), _ptr(counters))
    if rc in (0, 1):
        _sync(processor, counters, tags_arr, bht_arr)
        if rc == 1:
            from repro.uarch.processor import SimulationDeadlock

            head = counters[_K["deadlock_head"]]
            horizon = processor.config.deadlock_horizon
            raise SimulationDeadlock(
                f"no commit for {horizon} cycles at cycle "
                f"{processor.now}; ROB head: "
                f"{'native seq %d' % head if head >= 0 else None}")
        return True
    # rc 2: a C-side invariant check fired *before* any corrupting
    # write; nothing was synced, so the Python state is still clean (not
    # even warmed) and the interpreter re-runs the point and raises the
    # same crash.  rc 3: allocation failure, nothing ran.
    _note_failure("native-alloc" if rc == 3 else "native-invariant")
    return False


# -- artifact-cache maintenance ----------------------------------------------


def artifact_stats():
    """Accounting for ``repro cache stats``: artifact count and bytes,
    with artifacts from an older template flagged stale."""
    directory = artifact_dir()
    current = f"engine-{template_fingerprint()}-"
    count = stale = total = stale_bytes = 0
    if directory.is_dir():
        for path in directory.glob("engine-*.so"):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            count += 1
            total += size
            if not path.name.startswith(current):
                stale += 1
                stale_bytes += size
    return {
        "dir": str(directory),
        "artifacts": count,
        "bytes": total,
        "stale_artifacts": stale,
        "stale_bytes": stale_bytes,
    }


def _dir_writable(directory):
    """Can this process create and write files under ``directory``?"""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / f".writable-{os.getpid()}"
        probe.write_bytes(b"ok")
        probe.unlink()
        return True
    except OSError:
        return False


def probe():
    """Host-readiness report for the native tier (``repro engines`` and
    ``tools/native_probe.py``).

    Every check that the tier needs at run time, checked up front:
    whether the current artifact is on disk, a working C compiler
    (probe-compiled, not just found on PATH) and a writable artifact
    cache directory.  ``available`` mirrors :func:`build_library`'s
    ladder: the artifact is on disk (a run loads it, with no compiler),
    or it can be built there.  When it is ``False``, ``engine=native``
    falls back to the interpreter on every run (loudly, via
    ``SimStats.engine_fallbacks``).
    """
    # A process that defers its builds reports the toolchain its
    # background build found, never probing one itself.
    cc = (None if _builds_deferred and _toolchain is _TOOLCHAIN_UNSET
          else toolchain())
    directory = artifact_dir()
    on_disk = (directory / _artifact_name()).is_file()
    writable = _dir_writable(directory)
    return {
        "toolchain": cc,
        "cache_dir": str(directory),
        "cache_dir_writable": writable,
        "artifact_on_disk": on_disk,
        "template_fingerprint": template_fingerprint(),
        "available": on_disk or (cc is not None and writable),
    }


def prebuild():
    """Build or load the one artifact through :func:`build_library`
    (``repro engines --prebuild``): ``(outcome, path)``, the outcome
    being ``built``, ``disk`` or ``memory``, or ``(None, reason)``."""
    from repro.uarch.processor import Processor

    outcomes = ("memory", "disk", "built")
    before = [_ARTIFACTS.value(outcome=o) for o in outcomes]
    lib, reason = build_library(Processor())
    if lib is None:
        return None, reason
    outcome = next(o for o, count in zip(outcomes, before)
                   if _ARTIFACTS.value(outcome=o) > count)
    return outcome, artifact_dir() / _artifact_name()


def prune_stale():
    """Remove artifacts whose template fingerprint is not current (for
    ``repro cache compact``).  Returns ``(removed count, freed bytes)``."""
    directory = artifact_dir()
    current = f"engine-{template_fingerprint()}-"
    removed = freed = 0
    if directory.is_dir():
        for path in directory.glob("engine-*.so"):
            if path.name.startswith(current):
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
    return removed, freed
