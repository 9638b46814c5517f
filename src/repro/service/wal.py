"""Durable job journal: the gateway's write-ahead log.

Without a journal, a crashed gateway forgets every job it ever
accepted — clients hold ids that now 404 and half-finished grids are
lost.  :class:`JobJournal` fixes that with one tiny append-only NDJSON
file per job under ``REPRO_CACHE_DIR/gateway/``::

    job-<id>.wal:
      {"event": "submit", "id": ..., "client": ...,
       "created": ..., "specs": [<RunSpec.to_dict()>, ...]}
      {"event": "point", "index": 3}
      {"event": "point", "index": 0}
      {"event": "end", "state": "done"}

The submit record lands before the job is acknowledged, one ``point``
record lands per delivered result, and the terminal record (followed by
best-effort unlinking of the whole file) marks the job as needing no
recovery.  ``repro serve --resume`` calls :meth:`unfinished` on boot,
re-creates each un-ended job under its original id, and re-runs **only
the points missing from the result store** — completed points were
persisted by the engine's store before their WAL record was written,
so recovery serves them back bit-identically without re-simulating.

Appends use the same single-``os.write``/``O_APPEND`` discipline as the
result store, and recovery reads through the store's line reader
(:func:`~repro.engine.store.parse_lines`), so a torn or undecodable
line costs only itself.  Every method is best-effort: an unwritable
cache directory downgrades the gateway to the old forgetful behavior
instead of failing requests.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.engine.store import default_cache_dir, parse_lines

__all__ = ["JobJournal", "default_journal_dir"]


def _parse_entry(line):
    """One WAL line as a dict with an ``event`` (and an int ``index``
    for a point); raises on a malformed line."""
    entry = json.loads(line)
    if entry["event"] == "point":
        entry["index"] = int(entry["index"])
    return entry


def default_journal_dir():
    """Where gateway WALs live: ``REPRO_CACHE_DIR/gateway``."""
    return pathlib.Path(default_cache_dir()) / "gateway"


class JobJournal:
    """Append-only per-job WAL files under one directory.

    Thread-compatible with the gateway's single event-loop writer; all
    I/O is best-effort (see the module docstring).
    """

    def __init__(self, directory=None):
        self.directory = pathlib.Path(directory or default_journal_dir())
        self._broken = False

    def path_for(self, job_id):
        """The WAL path for one job id."""
        return self.directory / f"job-{job_id}.wal"

    def _append(self, job_id, record):
        if self._broken:
            return
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path_for(job_id),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)  # one write: never interleaved
            finally:
                os.close(fd)
        except OSError:
            self._broken = True  # unwritable dir: journaling off

    def record_submit(self, job):
        """Journal a newly accepted job (specs serialized in order)."""
        self._append(job.job_id, {
            "event": "submit",
            "id": job.job_id,
            "client": job.client,
            "created": job.created,
            "specs": [spec.to_dict() for spec in job.specs],
        })

    def record_point(self, job_id, index):
        """Journal one delivered point."""
        self._append(job_id, {"event": "point", "index": int(index)})

    def record_end(self, job_id, state):
        """Journal the terminal state, then drop the WAL (best-effort).

        The end record is appended first so a failed unlink still
        leaves the job marked finished for :meth:`unfinished`.
        """
        self._append(job_id, {"event": "end", "state": state})
        try:
            self.path_for(job_id).unlink()
        except OSError:
            pass

    def discard(self, job_id):
        """Drop one job's WAL without journaling an end record."""
        try:
            self.path_for(job_id).unlink()
        except OSError:
            pass

    def unfinished(self):
        """Recovery records for every job with no terminal WAL entry.

        Returns dicts ``{"id", "client", "created", "specs" (wire-form
        dicts), "done" (set of delivered indices), "path"}``, in WAL
        name order.  Corrupt lines and WALs with no submit record are
        skipped — a torn journal must never block a restart.
        """
        try:
            paths = sorted(self.directory.glob("job-*.wal"))
        except OSError:
            return []
        records = []
        for path in paths:
            try:
                data = path.read_bytes()
            except OSError:
                continue
            submit, done, ended = None, set(), False
            for _, _, _, entry, error in parse_lines(data, _parse_entry):
                if error is not None:
                    continue  # torn mid-append; later records still count
                if entry["event"] == "submit":
                    submit = entry
                elif entry["event"] == "point":
                    done.add(entry["index"])
                elif entry["event"] == "end":
                    ended = True
            if ended or submit is None or not submit.get("id"):
                continue
            records.append({
                "id": str(submit["id"]),
                "client": str(submit.get("client") or ""),
                "created": submit.get("created"),
                "specs": submit.get("specs") or [],
                "done": done,
                "path": str(path),
            })
        return records
