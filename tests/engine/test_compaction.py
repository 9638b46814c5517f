"""Result-store compaction: segments and superseded records fold away."""

import fcntl
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import repro
from repro.engine import ResultStore, RunSpec, execute_spec
from repro.uarch.config import conventional_config


def small_spec(workload="go"):
    return RunSpec(workload, conventional_config()).resolved(400, 100, 1)


def line_count(store):
    """Total records across the base file and every segment."""
    total = 0
    for path in [store.path, *store.segment_paths()]:
        if not path.exists():
            continue
        with open(path, "r", encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def test_superseded_records_are_dropped(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    store = ResultStore(tmp_path)
    for _ in range(5):
        store.put(spec.key(), result)
    assert line_count(store) == 5

    kept, dropped = store.compact()
    assert (kept, dropped) == (1, 4)
    assert line_count(store) == 1
    # The surviving record still round-trips.
    assert ResultStore(tmp_path).get(spec.key()).to_dict() == result.to_dict()


def test_corrupt_lines_count_as_dropped(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    with open(segment, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    kept, dropped = store.compact()
    assert kept == 1
    assert dropped == 1


def test_prune_stale_drops_old_versions(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    ResultStore(tmp_path, version="v1").put(spec.key(), result)
    store_v2 = ResultStore(tmp_path, version="v2")
    store_v2.put(spec.key(), result)

    # Without pruning, both versions survive.
    kept, dropped = store_v2.compact()
    assert (kept, dropped) == (2, 0)

    kept, dropped = store_v2.compact(prune_stale=True)
    assert (kept, dropped) == (1, 1)
    assert ResultStore(tmp_path, version="v2").get(spec.key()) is not None
    assert ResultStore(tmp_path, version="v1").get(spec.key()) is None


def test_compact_missing_file_is_noop(tmp_path):
    assert ResultStore(tmp_path).compact() == (0, 0)


def test_last_record_wins_after_compaction(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    result = execute_spec(spec)
    store.put(spec.key(), result)
    # Hand-append a doctored newer record for the same key to the same
    # segment: compaction must keep the *newest*, not the first.
    (segment,) = store.segment_paths()
    doctored = result.to_dict()
    doctored["extra"] = {"marker": "newest"}
    with open(segment, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": spec.key(), "version": store.version,
                             "result": doctored}) + "\n")
    kept, _ = store.compact()
    assert kept == 1
    assert ResultStore(tmp_path).get(spec.key()).extra == {"marker": "newest"}


def test_compaction_never_loses_a_racing_append(tmp_path):
    """Satellite acceptance: a record appended concurrently with
    ``compact()`` must survive — either rescued into the base or left
    in a fresh segment for the next compaction — never silently lost.
    """
    result = execute_spec(small_spec())
    writer = ResultStore(tmp_path)
    total = 400
    written = []
    stop = threading.Event()

    def write_loop():
        for n in range(total):
            key = f"go:racer{n}:400:100:1"
            writer.put(key, result)
            written.append(key)
            if stop.is_set() and n >= 50:
                return

    thread = threading.Thread(target=write_loop)
    thread.start()
    try:
        compactor = ResultStore(tmp_path)
        # Hammer compaction while the writer streams appends, so some
        # compactions overlap segment writes mid-flight.
        for _ in range(25):
            compactor.compact()
            if not thread.is_alive():
                break
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    ResultStore(tmp_path).compact()  # quiescent: folds any leftovers
    reader = ResultStore(tmp_path)
    missing = [key for key in written if key not in reader]
    assert not missing, (f"compaction lost {len(missing)}/{len(written)} "
                         f"racing appends, e.g. {missing[:3]}")
    assert len(reader.segment_paths()) == 0
    assert not list(tmp_path.glob("*.compacting"))


def test_segment_created_after_compaction_scan_survives(tmp_path):
    """A writer whose segment appears mid-compaction keeps it: only
    segments seen by the scan are retired."""
    spec = small_spec()
    result = execute_spec(spec)
    early = ResultStore(tmp_path)
    early.put(spec.key(), result)
    late = ResultStore(tmp_path)
    late.put("go:late:400:100:1", result)  # second segment, same dir
    kept, _ = ResultStore(tmp_path).compact()
    assert kept == 2
    assert ResultStore(tmp_path).get("go:late:400:100:1") is not None


def test_result_cache_compact_passthrough(tmp_path, monkeypatch):
    from repro.experiments.runner import ResultCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(jobs=1)
    spec = small_spec()
    cache.engine.store.put(spec.key(), execute_spec(spec))
    cache.engine.store.put(spec.key(), execute_spec(spec))
    kept, dropped = cache.compact()
    assert kept == 1 and dropped == 1
    assert ResultCache(jobs=1, persistent=False).compact() == (0, 0)


# A writer process: prints each key only once ``put`` has returned, so
# every printed key is an acknowledged append.
_WRITER = """
import json, sys
from repro.engine import ResultStore
from repro.uarch.stats import SimResult

directory, name, count, template = sys.argv[1:]
store = ResultStore(directory, version="mp")
result = SimResult.from_dict(json.loads(template))
for n in range(int(count)):
    key = f"go:{name}{n}:400:100:1"
    store.put(key, result)
    print(key, flush=True)
"""


def _writer(directory, name, count, template):
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(directory), name, str(count),
         template], stdout=subprocess.PIPE, text=True, env=env)
    acked = []

    def collect():
        for line in proc.stdout:
            acked.append(line.strip())

    reader = threading.Thread(target=collect)
    reader.start()
    return proc, acked, reader


def test_no_acknowledged_append_is_lost_to_compaction_or_a_kill(tmp_path):
    """Three writer processes, one SIGKILLed mid-stream, while this
    process compacts in a loop: every acknowledged key survives, and
    once the writers stop one compaction leaves no segment behind."""
    template = json.dumps(execute_spec(small_spec()).to_dict())
    writers = [_writer(tmp_path, "a", 300, template),
               _writer(tmp_path, "b", 300, template),
               _writer(tmp_path, "victim", 10**6, template)]
    victim, victim_acked, _ = writers[2]
    compactor = ResultStore(tmp_path, version="mp")
    deadline = time.monotonic() + 120
    try:
        while any(proc.poll() is None for proc, _, _ in writers):
            assert time.monotonic() < deadline, "writers did not finish"
            compactor.compact()
            if len(victim_acked) >= 100:
                victim.kill()  # mid-stream: it never finishes on its own
    finally:
        for proc, _, reader in writers:
            proc.kill()
            proc.wait(timeout=30)
            reader.join(timeout=30)
            assert not reader.is_alive()
    assert [proc.returncode for proc, _, _ in writers[:2]] == [0, 0]
    assert len(victim_acked) >= 100
    compactor.compact()
    assert compactor.segment_paths() == []
    reader = ResultStore(tmp_path, version="mp")
    acked = [key for _, keys, _ in writers for key in keys]
    missing = [key for key in acked if key not in reader]
    assert not missing, (f"lost {len(missing)}/{len(acked)} acknowledged "
                         f"appends, e.g. {missing[:3]}")


def test_a_segment_held_by_a_write_is_left_for_the_next_compaction(
        tmp_path):
    result = execute_spec(small_spec())
    ResultStore(tmp_path).put("go:free:400:100:1", result)
    (free,) = ResultStore(tmp_path).segment_paths()
    ResultStore(tmp_path).put("go:held:400:100:1", result)
    (held,) = set(ResultStore(tmp_path).segment_paths()) - {free}
    with open(held, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)  # what put() holds while writing
        kept, _ = ResultStore(tmp_path).compact()
        assert kept == 1
        assert ResultStore(tmp_path).segment_paths() == [held]
        assert "go:held" not in ResultStore(tmp_path).path.read_text()
    kept, _ = ResultStore(tmp_path).compact()
    assert kept == 2
    assert ResultStore(tmp_path).segment_paths() == []
    assert ResultStore(tmp_path).get("go:held:400:100:1") is not None


def test_two_compactors_racing_one_writer_lose_nothing(tmp_path):
    result = execute_spec(small_spec())
    writer = ResultStore(tmp_path)
    written = []
    done = threading.Event()

    def write_loop():
        try:
            for n in range(300):
                key = f"go:duel{n}:400:100:1"
                writer.put(key, result)
                written.append(key)
        finally:
            done.set()

    def compact_loop():
        compactor = ResultStore(tmp_path)
        while not done.is_set():
            compactor.compact()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=loop)
                   for loop in (write_loop, compact_loop, compact_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(written) == 300
    ResultStore(tmp_path).compact()
    reader = ResultStore(tmp_path)
    assert [key for key in written if key not in reader] == []
    assert reader.segment_paths() == []


def test_a_flipped_high_bit_spoils_only_its_own_record(tmp_path):
    result = execute_spec(small_spec())
    store = ResultStore(tmp_path)
    keys = [f"go:bit{n}:400:100:1" for n in range(3)]
    for key in keys:
        store.put(key, result)
    (segment,) = store.segment_paths()
    raw = bytearray(segment.read_bytes())
    raw[raw.index(b"bit1")] |= 0x80  # "b" -> 0xE2, not UTF-8 here
    segment.write_bytes(bytes(raw))
    fresh = ResultStore(tmp_path)
    assert fresh.get(keys[0]).to_dict() == result.to_dict()
    assert fresh.get(keys[1]) is None
    assert fresh.get(keys[2]).to_dict() == result.to_dict()
    assert fresh.stats()["crc_failures"] == 1
    assert fresh.verify()["crc_failures"] == 1
