"""Tests for the gateway's per-job write-ahead log."""

import json

from repro.engine import RunSpec
from repro.service.jobs import Job
from repro.service.wal import JobJournal
from repro.uarch.config import conventional_config


def one_spec():
    return RunSpec("go", conventional_config()).resolved(600, 100, 1)


def make_job(job_id="j1", client="alice", points=2):
    return Job(job_id, client, [one_spec() for _ in range(points)])


class TestJournalRoundtrip:
    def test_submit_points_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        journal.record_point(job.job_id, 1)
        journal.record_point(job.job_id, 0)

        records = journal.unfinished()
        assert len(records) == 1
        record = records[0]
        assert record["id"] == "j1"
        assert record["client"] == "alice"
        assert record["done"] == {0, 1}
        assert len(record["specs"]) == 2
        # Specs survive the WAL in wire form, bit-identical.
        assert ([RunSpec.from_dict(d).resolved().key()
                 for d in record["specs"]]
                == [s.key() for s in job.specs])

    def test_end_record_unlinks_the_wal(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        assert journal.path_for(job.job_id).exists()
        journal.record_end(job.job_id, "done")
        assert not journal.path_for(job.job_id).exists()
        assert journal.unfinished() == []

    def test_surviving_end_record_still_marks_finished(self, tmp_path):
        # Even if the unlink is lost, the end record excludes the job.
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        with journal.path_for(job.job_id).open("a") as handle:
            handle.write(json.dumps({"event": "end", "state": "done"})
                         + "\n")
        assert journal.unfinished() == []

    def test_discard_drops_without_end(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        journal.discard(job.job_id)
        assert journal.unfinished() == []

    def test_multiple_jobs_sorted_by_name(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_submit(make_job("b"))
        journal.record_submit(make_job("a"))
        assert [r["id"] for r in journal.unfinished()] == ["a", "b"]


class TestJournalRobustness:
    def test_corrupt_line_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        journal.record_point(job.job_id, 0)
        # A torn append in the middle must not hide later records.
        path = journal.path_for(job.job_id)
        lines = path.read_text().splitlines()
        lines.insert(1, '{"event": "point", "ind')
        path.write_text("\n".join(lines) + "\n")
        journal.record_point(job.job_id, 1)

        records = journal.unfinished()
        assert len(records) == 1
        assert records[0]["done"] == {0, 1}

    def test_undecodable_byte_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = make_job()
        journal.record_submit(job)
        with open(journal.path_for(job.job_id), "ab") as fh:
            fh.write(b"\xff\n")  # not UTF-8: must not block a restart
        journal.record_point(job.job_id, 1)

        (record,) = journal.unfinished()
        assert record["id"] == job.job_id
        assert record["done"] == {1}

    def test_wal_without_submit_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record_point("orphan", 0)
        assert journal.unfinished() == []

    def test_empty_directory_is_fine(self, tmp_path):
        assert JobJournal(tmp_path / "missing").unfinished() == []

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        victim = tmp_path / "blocked"
        victim.write_text("a file where the directory should be")
        journal = JobJournal(victim)
        journal.record_submit(make_job())  # must not raise
        assert journal._broken
        journal.record_point("j1", 0)  # still silent once broken
