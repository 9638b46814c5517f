"""Persistent result store: round-trips, invalidation, resilience."""

import json

from repro.engine import ResultStore, RunSpec, execute_spec
from repro.engine.faults import FaultPlan, clear, install
from repro.uarch.config import conventional_config


def small_spec(workload="go"):
    return RunSpec(workload, conventional_config()).resolved(400, 100, 1)


def test_roundtrip_across_store_instances(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    ResultStore(tmp_path).put(spec.key(), result)

    reloaded = ResultStore(tmp_path).get(spec.key())
    assert reloaded is not None
    assert reloaded.to_dict() == result.to_dict()
    assert reloaded.config == spec.config


def test_miss_returns_none(tmp_path):
    assert ResultStore(tmp_path).get(small_spec().key()) is None


def test_code_version_change_invalidates(tmp_path):
    spec = small_spec()
    ResultStore(tmp_path, version="v1").put(spec.key(), execute_spec(spec))
    assert ResultStore(tmp_path, version="v1").get(spec.key()) is not None
    assert ResultStore(tmp_path, version="v2").get(spec.key()) is None


def test_corrupt_lines_are_skipped(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("{truncated json\n")
        fh.write("[1, 2, 3]\n")
    assert ResultStore(tmp_path).get(spec.key()) is not None


def test_last_record_wins(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    store = ResultStore(tmp_path)
    store.put(spec.key(), result)
    newer = execute_spec(spec)
    newer.extra["marker"] = "second"
    store.put(spec.key(), newer)
    assert ResultStore(tmp_path).get(spec.key()).extra["marker"] == "second"


def test_unwritable_directory_degrades_to_noop(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    store = ResultStore(blocker / "sub")  # mkdir will fail
    spec = small_spec()
    store.put(spec.key(), execute_spec(spec))  # must not raise
    assert spec.key() in store  # still served from memory this session


def test_records_are_json_lines(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    lines = segment.read_text().strip().splitlines()
    record = json.loads(lines[-1])
    assert record["key"] == spec.key()
    assert record["result"]["workload"] == "go"


def _flip_crc(segment):
    """Corrupt the last record in a way only the checksum can catch."""
    lines = segment.read_text().strip().splitlines()
    record = json.loads(lines[-1])
    record["crc"] ^= 1
    lines[-1] = json.dumps(record, sort_keys=True)
    segment.write_text("\n".join(lines) + "\n")


def test_new_records_carry_a_valid_crc(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    report = ResultStore(tmp_path).verify()
    assert report["records"] == report["checked"] == 1
    assert report["legacy"] == report["corrupt"] == 0
    assert report["bad"] == []


def test_crc_mismatch_is_detected_and_skipped(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    _flip_crc(segment)

    # Readers skip the bit-rotted record instead of serving it.
    assert ResultStore(tmp_path).get(spec.key()) is None
    report = ResultStore(tmp_path).verify()
    assert report["corrupt"] == report["crc_failures"] == 1
    assert report["bad"] == [f"{segment.name}:1"]
    assert report["repaired"] == 0  # scan only, files untouched


def test_repair_quarantines_corrupt_records(tmp_path):
    specs = [small_spec(), small_spec("swim")]
    store = ResultStore(tmp_path)
    for spec in specs:
        store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    _flip_crc(segment)

    fresh = ResultStore(tmp_path)
    report = fresh.verify(repair=True)
    assert report["repaired"] == 1
    assert report["quarantine"] is not None
    # The corrupt line was parked for forensics, not deleted.
    quarantined = (tmp_path / report["quarantine"].rsplit("/", 1)[-1])
    assert len(quarantined.read_text().strip().splitlines()) == 1
    assert fresh.stats()["quarantined"] == 1
    # The surviving record still round-trips; the store is clean now.
    assert fresh.get(specs[0].key()) is not None
    after = ResultStore(tmp_path).verify()
    assert after["corrupt"] == 0
    assert after["records"] == 1


def test_quarantine_files_are_not_read_as_segments(tmp_path):
    (tmp_path / "corrupt-123.jsonl").write_text("{bad json\n")
    store = ResultStore(tmp_path)
    assert store.segment_paths() == []
    assert store.verify()["corrupt"] == 0
    assert store.stats()["quarantined"] == 1


def test_legacy_records_without_crc_still_load(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    record = json.loads(segment.read_text().strip())
    del record["crc"]
    segment.write_text(json.dumps(record, sort_keys=True) + "\n")

    assert ResultStore(tmp_path).get(spec.key()) is not None
    report = ResultStore(tmp_path).verify()
    assert report["legacy"] == 1
    assert report["checked"] == report["corrupt"] == 0


def test_injected_corrupt_append_is_caught_by_verify(tmp_path):
    spec = small_spec()
    install(FaultPlan.from_string("store.corrupt_append:n=1"))
    try:
        ResultStore(tmp_path).put(spec.key(), execute_spec(spec))
    finally:
        clear()
    report = ResultStore(tmp_path).verify()
    assert report["crc_failures"] == 1


def test_injected_torn_append_is_caught_by_verify(tmp_path):
    spec = small_spec()
    install(FaultPlan.from_string("store.torn_append:n=1"))
    try:
        ResultStore(tmp_path).put(spec.key(), execute_spec(spec))
    finally:
        clear()
    report = ResultStore(tmp_path).verify()
    assert report["corrupt"] == 1
    assert report["crc_failures"] == 0  # truncated, not bit-rotted


def test_get_follows_a_record_that_compaction_moved(tmp_path):
    """The index holds where a record's line is; once a compaction has
    merged and unlinked that segment, or rewritten the base so the line
    moved, ``get`` reloads the index and still returns the result."""
    stale, spec = small_spec("li"), small_spec()
    ResultStore(tmp_path, version="old").put(stale.key(),
                                             execute_spec(stale))
    result = execute_spec(spec)
    writer = ResultStore(tmp_path)
    writer.put(spec.key(), result)
    reader = ResultStore(tmp_path)
    assert reader.get(spec.key()).to_dict() == result.to_dict()
    segments = reader.segment_paths()
    ResultStore(tmp_path).compact()
    assert not any(path.exists() for path in segments)
    for store in (writer, reader):
        assert store.get(spec.key()).to_dict() == result.to_dict()
    # Pruning the older record moves this one to the start of the base.
    ResultStore(tmp_path).compact(prune_stale=True)
    assert reader.path.read_bytes().count(b"\n") == 1
    for store in (writer, reader):
        assert store.get(spec.key()).to_dict() == result.to_dict()


def test_a_record_that_rots_after_it_was_indexed_is_not_served(tmp_path):
    """``get`` re-reads the line and checks its CRC: one flipped bit
    (a digit that is still a digit, so the JSON still parses) makes it
    a miss, in the store that wrote it and in a fresh one."""
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    data = bytearray(segment.read_bytes())
    at = data.index(b'"committed": ') + len(b'"committed": ')
    data[at] ^= 1
    segment.write_bytes(bytes(data))
    assert store.get(spec.key()) is None
    assert ResultStore(tmp_path).get(spec.key()) is None
    assert ResultStore(tmp_path).verify()["crc_failures"] == 1


def test_an_unwritable_store_still_serves_its_own_puts(tmp_path):
    """A directory that cannot be created disables persistence, but the
    records this store could not write keep serving it, across a
    refresh too."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    store = ResultStore(blocker / "cache")
    spec = small_spec()
    result = execute_spec(spec)
    store.put(spec.key(), result)
    assert store.get(spec.key()).to_dict() == result.to_dict()
    store.refresh()
    assert spec.key() in store and len(store) == 1
    assert store.get(spec.key()).to_dict() == result.to_dict()
    assert ResultStore(blocker / "cache").get(spec.key()) is None
