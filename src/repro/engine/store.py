"""Persistent on-disk result store (sharded JSON-lines segments).

Results live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) as
one *base* file plus any number of per-writer *segment* files::

    results.jsonl                    # the merged base (compact target)
    results-<host>-<pid>-<tok>.jsonl # one segment per concurrent writer

Every file holds self-contained records, one per line::

    {"crc": 123..., "key": "<spec key>", "version": "<code hash>",
     "result": {...}}

``crc`` is the CRC32 of the rest of the record (serialized with sorted
keys), so bit rot and partially-flushed lines are detected, not just
lines that fail to parse.  Records written before the field existed are
still accepted (``repro cache verify`` reports them as *legacy*).

Each :class:`ResultStore` instance appends only to its **own** segment
file, so any number of processes — local sweep workers, ``repro worker``
daemons sharing a cache directory — can write concurrently without
ever interleaving bytes inside a record.  Readers merge the base file
and every segment into one index (base first, then segments in name
order; the newest record for a key wins), so a record is visible to
other processes as soon as its ``put`` returns.  The index holds where
each record is — ``(file, byte offset, length)`` — not the record:
:meth:`ResultStore.get` re-reads the line and checks its CRC, so a
long-lived reader holds a few dozen bytes per record, and a record that
rotted after it was indexed is not served.

Consistency guarantee: each appended record is written with a *single*
``os.write`` of one complete ``line + "\\n"`` to a file opened with
``O_APPEND``, so records never interleave.  Linux does not make a write
that spans pages atomic for a concurrent ``read``, so a reader can see
a line that is still being written: it fails its parse or its CRC and
is skipped, and the reader picks the record up at its next
:meth:`ResultStore.refresh`.  Corrupt or truncated lines (e.g. a hard
kill mid-write) are skipped on load, and a byte that is not UTF-8
spoils only its own line.  An unwritable cache directory degrades the
store to a no-op rather than failing the run.

Ownership makes compaction safe against live writers: a ``put`` makes
its write while holding ``flock(LOCK_SH)`` on a segment that is still
linked, and :meth:`ResultStore.compact` merges only the segments it
holds under ``LOCK_EX``, unlinking them after the new base is in
place.  No segment is merged while a write to it is in flight,
and no write lands in a segment once it is merged, so compaction never
loses a record whose ``put`` returned.  These are ``flock`` locks: when
the directory is shared over NFS, or the host has no :mod:`fcntl`, run
compaction with writers quiesced, as ``verify(repair=True)`` requires
everywhere.

Keys combine the spec identity (config content hash × workload × run
length × seed) with the package's code-version fingerprint, so editing
any simulator source invalidates every stored result.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time
import uuid
import zlib
from contextlib import ExitStack, contextmanager, suppress

from repro.engine.faults import fault
from repro.engine.version import code_version
from repro.uarch.stats import SimResult

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host: nothing locks
    fcntl = None

_STORE_FILE = "results.jsonl"
_SEGMENT_GLOB = "results-*.jsonl"


class ChecksumError(ValueError):
    """A store record parsed as JSON but failed its CRC32 check."""


def _record_crc(body):
    """The CRC32 a record body (sans ``crc`` field) should carry."""
    payload = json.dumps(body, sort_keys=True)
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def _parse_record(line):
    """Parse and checksum one store line.

    Returns ``(qualified key, record dict)``.  Raises
    :class:`ChecksumError` on a CRC mismatch and the usual
    ``ValueError``/``KeyError``/``TypeError`` on malformed lines.
    Records without a ``crc`` field (written by older versions) are
    accepted unchecked.
    """
    record = json.loads(line)
    qualified = f"{record['key']}@{record['version']}"
    if "result" not in record:
        raise KeyError("result")
    crc = record.get("crc")
    if crc is not None:
        body = {k: v for k, v in record.items() if k != "crc"}
        if _record_crc(body) != crc:
            raise ChecksumError(f"CRC mismatch for key {record['key']!r}")
    return qualified, record


def parse_lines(data, parse=json.loads):
    """Parse every non-blank line of ``data`` (bytes) with ``parse``.

    Yields ``(line number, (start, end), stripped line, value, error)``:
    ``data[start:end]`` is the line without its newline; ``value`` is
    what ``parse`` returned and ``error`` is ``None``, or ``value`` is
    ``None`` and ``error`` the ``ValueError``/``KeyError``/``TypeError``
    it raised.  Bytes that are not UTF-8 decode to U+FFFD, so they spoil
    only their own line.  This one reader serves every JSON-lines file
    the package writes: store segments, gateway WALs and span logs.
    """
    start = 0
    for number, raw in enumerate(data.split(b"\n"), 1):
        span = (start, start + len(raw))
        start = span[1] + 1
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            value, error = parse(line), None
        except (ValueError, KeyError, TypeError) as exc:
            value, error = None, exc
        yield number, span, line, value, error


@contextmanager
def directory_lock(directory):
    """Hold an exclusive ``flock`` on ``directory/.lock`` (waits for it).

    Serializes one maintenance job per directory across processes:
    native artifact builds, result-store compaction.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX host
        yield
        return
    with open(pathlib.Path(directory) / ".lock", "w") as lockf:
        fcntl.flock(lockf, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lockf, fcntl.LOCK_UN)


def _try_lock(fd, exclusive):
    """``flock`` ``fd`` without waiting: False while a peer holds a
    conflicting lock (True on a host without :mod:`fcntl`)."""
    if fcntl is None:  # pragma: no cover - non-POSIX host
        return True
    mode = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
    try:
        fcntl.flock(fd, mode | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return True


def _newest(files, version=None):
    """Merge store files in order: ``({qualified key: newest line},
    dropped)``.  Corrupt lines, superseded records and, when ``version``
    is given, records of any other code version count as dropped."""
    latest, dropped = {}, 0
    for data in files:
        for _, _, line, parsed, error in parse_lines(data, _parse_record):
            if error is None and version in (None, parsed[1]["version"]):
                dropped += parsed[0] in latest  # superseded
                latest[parsed[0]] = line
            else:
                dropped += 1
    return latest, dropped


def _read(path):
    """The bytes of ``path``, or ``None`` if it cannot be read."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def _read_record(where, qualified):
    """The result dict of the record for ``qualified`` at ``where`` —
    ``(path, offset, length)`` of its line — or ``None`` when that line
    is gone, holds another record, or fails its parse or CRC."""
    path, offset, length = where
    try:
        with open(path, "rb") as fh:
            raw = os.pread(fh.fileno(), length, offset)
    except OSError:
        return None
    for _, _, _, parsed, error in parse_lines(raw, _parse_record):
        if error is None and parsed[0] == qualified:
            return parsed[1]["result"]
    return None


def default_cache_dir():
    """The store directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def _writer_id():
    """A segment name component unique to this writer.

    Hostname × pid disambiguates writers sharing a network filesystem;
    the random token disambiguates pid reuse and multiple stores in one
    process.
    """
    host = socket.gethostname().split(".")[0][:24] or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class ResultStore:
    """Sharded append-only JSONL store mapping spec keys to results.

    Each instance lazily creates its own segment file on first
    :meth:`put` and reads the union of the base file and every segment.
    All methods are best-effort with respect to I/O errors: an
    unwritable directory silently disables persistence (the records it
    could not write stay in memory and keep serving the current
    process).

    Parameters
    ----------
    directory:
        Cache directory (default :func:`default_cache_dir`).
    version:
        Code-version fingerprint qualifying every key (default: the
        real :func:`~repro.engine.version.code_version` of the package).
    """

    def __init__(self, directory=None, version=None):
        self.directory = pathlib.Path(directory or default_cache_dir())
        self.path = self.directory / _STORE_FILE
        self.version = version or code_version()
        # qualified key -> (path, offset, length) of its newest line, or
        # the result dict of a put that could not be written (lazy)
        self._index = None
        self._unwritten = {}  # qualified key -> result dict, never on disk
        self._broken = False
        self._segment_path = None  # created on first put

    # -- identity ----------------------------------------------------

    def _qualified(self, key):
        return f"{key}@{self.version}"

    # -- reading -----------------------------------------------------

    def segment_paths(self):
        """Every segment file currently in the directory (name order)."""
        try:
            return sorted(self.directory.glob(_SEGMENT_GLOB))
        except OSError:
            return []

    def _scan(self):
        """``(path, bytes)`` of the base file and every segment, in
        merge order.

        The segments are read before the base: compaction unlinks a
        segment only after the base holding its records is in place, so
        every record on disk when the scan starts is in what it reads.
        """
        segments = [(path, data) for path in self.segment_paths()
                    if (data := _read(path)) is not None]
        base = _read(self.path)
        return ([] if base is None else [(self.path, base)]) + segments

    def _load_index(self):
        if self._index is None:
            self._index = {}
            for path, data in self._scan():
                for _, (start, end), _, parsed, error in parse_lines(
                        data, _parse_record):
                    if error is None:
                        self._index[parsed[0]] = (path, start, end - start)
            self._index.update(self._unwritten)
        return self._index

    def refresh(self):
        """Drop the in-memory index so the next read re-scans disk.

        Concurrent writers append to their own segments; a long-lived
        reader calls this to pick up records written after its first
        load (including any line it saw only partly written).
        """
        self._index = None

    def get(self, key):
        """The stored :class:`SimResult` for ``key``, or ``None``.

        Re-reads the record's line where the index says it is and checks
        its CRC.  When the line no longer holds the record (a compaction
        merged and unlinked its segment, or rewrote the base), the index
        is reloaded once; a record that fails its CRC is not served.
        """
        qualified = self._qualified(key)
        for reload in (False, True):
            if reload:
                self._index = None
            where = self._load_index().get(qualified)
            if where is None:
                return None
            record = (where if isinstance(where, dict)
                      else _read_record(where, qualified))
            if record is not None:
                try:
                    return SimResult.from_dict(record)
                except (TypeError, ValueError):
                    return None
        return None

    # -- writing -----------------------------------------------------

    def _segment(self):
        if self._segment_path is None:
            self._segment_path = (self.directory
                                  / f"results-{_writer_id()}.jsonl")
        return self._segment_path

    def put(self, key, result):
        """Persist one result (appends immediately; best-effort).

        The record lands in this store's private segment file as one
        ``O_APPEND`` write, made while holding ``flock(LOCK_SH)`` on the
        segment and only while the segment is still linked.  When a
        compaction holds the segment or has already merged and unlinked
        it, the record goes to a fresh segment instead: a put never
        waits for a compaction, and no compaction loses a record whose
        put returned.  A concurrent reader may see the line before it
        is complete; it skips it until its next :meth:`refresh`.

        The transient ``extra["profile"]`` block (attached by
        ``REPRO_PROFILE`` runs — see :mod:`repro.obs.profile`) is
        stripped before persisting, so stored records are
        byte-identical whether or not the run was profiled.
        """
        record = result.to_dict()
        extra = record.get("extra")
        if isinstance(extra, dict) and "profile" in extra:
            record["extra"] = {k: v for k, v in extra.items()
                               if k != "profile"}
        qualified = self._qualified(key)
        index = self._load_index()
        if self._broken:
            self._unwritten[qualified] = index[qualified] = record
            return
        body = {"key": key, "version": self.version, "result": record}
        line = json.dumps(dict(body, crc=_record_crc(body)),
                          sort_keys=True)
        data = (line + "\n").encode("utf-8")
        if fault("store.corrupt_append"):
            # Valid JSON whose CRC cannot match: only the checksum can
            # catch this one.
            bad = json.dumps(dict(body, crc=_record_crc(body) ^ 1),
                             sort_keys=True)
            data = (bad + "\n").encode("utf-8")
        elif fault("store.torn_append"):
            # The visible aftermath of a crash mid-append: a truncated
            # record on its own line.
            data = data[:max(1, len(data) // 2)] + b"\n"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            while True:
                fd = os.open(self._segment(),
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                try:
                    if (_try_lock(fd, exclusive=False)
                            and os.fstat(fd).st_nlink):
                        os.write(fd, data)  # one write: never interleaved
                        # O_APPEND leaves the offset at the end of it.
                        end = os.lseek(fd, 0, os.SEEK_CUR)
                        index[qualified] = (self._segment_path,
                                            end - len(data), len(data) - 1)
                        return
                finally:
                    os.close(fd)  # releases the lock
                self._segment_path = None  # a compaction owns it
        except OSError:
            self._broken = True  # unwritable cache dir: keep simulating
            self._unwritten[qualified] = index[qualified] = record

    # -- maintenance -------------------------------------------------

    def compact(self, prune_stale=False):
        """Merge every segment and superseded record into a fresh base.

        Reads the base file plus every segment it can own, keeps the
        newest record per qualified key (``prune_stale=True`` also
        drops records from older code versions that no current reader
        can hit), rewrites ``results.jsonl`` atomically (temp file +
        ``os.replace``), and only then unlinks the merged segments.
        Corrupt lines are dropped.

        **Safe against live writers, by ownership.**  Compactions of
        one directory run one at a time (:func:`directory_lock`).  Each
        takes ``flock(LOCK_EX | LOCK_NB)`` on every segment and reads
        the segment through that locked descriptor; a segment that a
        :meth:`put` is writing to is left for the next compaction, and
        a put that finds its segment locked or unlinked starts a fresh
        one.  So every record whose put returned is in the new base or
        in a segment that survives.  This needs working ``flock``; see
        the module docstring.

        Returns ``(kept, dropped)`` record counts.
        """
        try:
            with directory_lock(self.directory), ExitStack() as files:
                owned = []  # (path, file held under LOCK_EX)
                for path in self.segment_paths():
                    fh = files.enter_context(open(path, "rb"))
                    if _try_lock(fh.fileno(), exclusive=True):
                        owned.append((path, fh))
                base = _read(self.path)
                if base is None and not owned:
                    return 0, 0
                latest, dropped = _newest(
                    [base or b"", *(fh.read() for _, fh in owned)],
                    self.version if prune_stale else None)
                tmp_path = self.path.with_suffix(".jsonl.tmp")
                try:
                    with open(tmp_path, "w", encoding="utf-8") as out:
                        for line in latest.values():
                            out.write(line + "\n")
                    os.replace(tmp_path, self.path)
                finally:
                    with suppress(OSError):
                        tmp_path.unlink()
                for path, _ in owned:
                    with suppress(OSError):
                        path.unlink()
        except OSError:
            return 0, 0
        self._index = None  # force a reload from the rewritten files
        return len(latest), dropped

    def stats(self):
        """Operator-facing store summary (``repro cache stats``).

        Scans the base file and every segment fresh from disk (so a
        serving store's live writers are reflected) and returns::

            {"directory": ..., "files": N, "segments": N, "bytes": N,
             "records": N,        # unique (key, version) pairs
             "lines": N,          # raw stored lines incl. superseded
             "superseded": N, "corrupt": N,
             "crc_failures": N,   # corrupt lines caught by the CRC
             "quarantined": N,    # records parked in corrupt-*.jsonl
             "workloads": {workload: unique records},
             "versions": {code version: unique records}}

        The per-workload breakdown parses each key's leading
        ``workload:`` component, so an operator can see which
        benchmarks dominate a serving cache without grepping JSONL.
        """
        seen = {}  # qualified key -> (workload, version)
        lines = corrupt = crc_failures = 0
        files = self._scan()
        for _, data in files:
            for _, _, _, parsed, error in parse_lines(data, _parse_record):
                lines += 1
                if error is not None:
                    corrupt += 1
                    crc_failures += isinstance(error, ChecksumError)
                    continue
                qualified, record = parsed
                workload = str(record["key"]).partition(":")[0] or "?"
                seen[qualified] = (workload, str(record["version"]))
        workloads, versions = {}, {}
        for workload, version in seen.values():
            workloads[workload] = workloads.get(workload, 0) + 1
            versions[version] = versions.get(version, 0) + 1
        quarantined = 0
        try:
            for path in self.directory.glob("corrupt-*.jsonl"):
                with open(path, "rb") as fh:
                    quarantined += sum(1 for raw in fh.read().splitlines()
                                       if raw.strip())
        except OSError:
            pass
        return {
            "directory": str(self.directory),
            "files": len(files),
            "segments": sum(path != self.path for path, _ in files),
            "bytes": sum(len(data) for _, data in files),
            "records": len(seen),
            "lines": lines,
            "superseded": lines - corrupt - len(seen),
            "corrupt": corrupt,
            "crc_failures": crc_failures,
            "quarantined": quarantined,
            "workloads": dict(sorted(workloads.items())),
            "versions": dict(sorted(versions.items())),
        }

    def verify(self, repair=False):
        """Scan the base file and every segment for corrupt records.

        The integrity pass behind ``repro cache verify``: every line is
        parsed and, when it carries a ``crc`` field, checksummed.
        Lines are classified as valid, *legacy* (parse fine but predate
        the CRC field) or *corrupt* (unparseable, missing fields, or a
        CRC mismatch).

        With ``repair=True`` every corrupt line is quarantined —
        appended to ``corrupt-<ts>.jsonl`` in the cache directory for
        forensics — and each affected file is rewritten without them
        (temp file + atomic ``os.replace``).  Repair is an offline
        maintenance operation: run it while no writer is appending, or
        a record being written concurrently with the rewrite can be
        lost (reads, including ``repair=False`` scans, are always
        safe).

        Returns a report dict::

            {"directory": ..., "files": N, "records": N, "checked": N,
             "legacy": N, "corrupt": N, "crc_failures": N,
             "bad": ["<file>:<line>", ...],
             "repaired": N, "quarantine": "<path>" | None}
        """
        report = {"directory": str(self.directory), "files": 0,
                  "records": 0, "checked": 0, "legacy": 0, "corrupt": 0,
                  "crc_failures": 0, "bad": [], "repaired": 0,
                  "quarantine": None}
        bad_lines = []
        for path, data in self._scan():
            report["files"] += 1
            keep = []
            bad_here = 0
            for number, _, line, parsed, error in parse_lines(
                    data, _parse_record):
                if error is None:
                    report["records"] += 1
                    report["checked" if "crc" in parsed[1]
                           else "legacy"] += 1
                    keep.append(line)
                    continue
                report["corrupt"] += 1
                report["crc_failures"] += isinstance(error, ChecksumError)
                report["bad"].append(f"{path.name}:{number}")
                bad_lines.append(line)
                bad_here += 1
            if repair and bad_here:
                tmp = path.with_suffix(".jsonl.verify-tmp")
                try:
                    with open(tmp, "w", encoding="utf-8") as fh:
                        for line in keep:
                            fh.write(line + "\n")
                    os.replace(tmp, path)
                    report["repaired"] += bad_here
                except OSError:
                    with suppress(OSError):
                        tmp.unlink()
        if repair and bad_lines and report["repaired"]:
            quarantine = (self.directory
                          / f"corrupt-{int(time.time())}.jsonl")
            try:
                with open(quarantine, "a", encoding="utf-8") as fh:
                    for line in bad_lines:
                        fh.write(line + "\n")
                report["quarantine"] = str(quarantine)
            except OSError:
                pass
            self._index = None  # re-scan the repaired files
        return report

    # -- container protocol ------------------------------------------

    def __contains__(self, key):
        return self._qualified(key) in self._load_index()

    def __len__(self):
        return len(self._load_index())
