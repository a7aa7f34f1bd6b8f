"""Unit tests for the simulated object store and the shared manifest log.

The store contract: immutable objects, one FIFO channel with per-request
latency, foreground requests advance the shared clock past queueing plus
service time, background reserves move only the channel horizon.  The log
contract: whole-entry appends, reachability-based GC, recovery from store
contents with an orphan sweep.
"""

import pytest

from repro.common.errors import ConfigError, InvariantViolation
from repro.common.options import SSD, StorageOptions
from repro.objstore import ObjStoreOptions, SharedManifestLog, SimObjectStore
from repro.objstore.manifestlog import entry_bytes
from repro.objstore.report import format_objstore_report, objstore_summary
from repro.storage.runtime import Runtime
from repro.storage.simdisk import SimClock


def _store(**kw):
    clock = SimClock()
    return clock, SimObjectStore(clock, ObjStoreOptions(**kw))


# ------------------------------------------------------------------- service
def test_service_time_is_latency_plus_transfer():
    _, store = _store(latency_s=1e-3, bandwidth=1e6, frame_bytes=100)
    # 2 requests: 2 * 1ms latency + (1000 payload + 2*100 framing) / 1e6 B/s.
    assert store.service_time(1000, requests=2) == pytest.approx(
        2e-3 + 1200 / 1e6)


def test_options_validation():
    with pytest.raises(ConfigError):
        ObjStoreOptions(latency_s=-1.0)
    with pytest.raises(ConfigError):
        ObjStoreOptions(bandwidth=0.0)
    with pytest.raises(ConfigError):
        ObjStoreOptions(frame_bytes=-1)


# ---------------------------------------------------------------- immutability
def test_put_of_existing_name_raises():
    _, store = _store()
    store.put("a", 100)
    with pytest.raises(InvariantViolation):
        store.put("a", 100)
    with pytest.raises(InvariantViolation):
        store.reserve_put("a", 50)


def test_get_and_delete_of_missing_name_raise():
    _, store = _store()
    with pytest.raises(InvariantViolation):
        store.get("nope")
    with pytest.raises(InvariantViolation):
        store.delete("nope")
    with pytest.raises(InvariantViolation):
        store.size_of("nope")


# ------------------------------------------------------------------- charging
def test_foreground_put_advances_the_clock():
    clock, store = _store(latency_s=1e-3, bandwidth=1e6, frame_bytes=0)
    elapsed, queued = store.put("a", 1000)
    assert elapsed == pytest.approx(1e-3 + 1000 / 1e6)
    assert queued == 0.0
    assert clock.now == pytest.approx(elapsed)


def test_foreground_queues_fifo_behind_background_reserve():
    clock, store = _store(latency_s=1e-3, bandwidth=1e6, frame_bytes=0)
    # Background upload reserves the channel without moving the clock.
    tail = store.reserve_put("big", 10_000)
    assert clock.now == 0.0
    assert tail == pytest.approx(1e-3 + 10_000 / 1e6)
    assert store.exists("big")  # visible immediately, lands at its tail
    # A later foreground get queues behind the in-flight upload.
    elapsed, queued = store.get("big")
    assert queued == pytest.approx(tail)
    assert elapsed == pytest.approx(tail + 1e-3 + 10_000 / 1e6)
    assert clock.now == pytest.approx(elapsed)


def test_zero_store_never_advances_the_clock():
    clock, store = _store(latency_s=0.0, bandwidth=float("inf"),
                          frame_bytes=0)
    store.put("a", 10_000)
    store.reserve_put("b", 10_000)
    store.get("a")
    store.read_fill(4096, 3)
    store.list_prefix("")
    store.delete("a")
    store.reserve_delete("b")
    assert clock.now == 0.0
    assert store.requests == 9  # read_fill counts one get per ranged request


def test_counters_and_snapshot():
    _, store = _store()
    store.put("a", 100)
    store.reserve_put("b", 50)
    store.get("a")
    store.list_prefix("")
    store.delete("a")
    snap = store.snapshot()
    assert snap["puts"] == 2 and snap["gets"] == 1
    assert snap["lists"] == 1 and snap["deletes"] == 1
    assert snap["bytes_up"] == 150 and snap["bytes_down"] == 100
    assert snap["objects"] == 1 and snap["live_bytes"] == 50
    assert snap["requests"] == 5


# --------------------------------------------------------------- manifest log
def _rt_log(retain_cuts=3):
    rt = Runtime(StorageOptions(device=SSD, page_cache_bytes=4096,
                                block_size=256))
    store = SimObjectStore(rt.clock, ObjStoreOptions.zero())
    rt.attach_objstore(store)
    log = SharedManifestLog(store, "shard0/", retain_cuts=retain_cuts)
    return rt, store, log


def _cut(rt, log, seq, files=()):
    for name in files:
        if not log.store.exists(name):
            rt.objstore_reserve_put(name, 512)
    return log.append_cut(rt, seq=seq, state={"seq": seq},
                          files=tuple(files), tombstones=())


def test_append_retention_and_lookup():
    rt, store, log = _rt_log(retain_cuts=3)
    for seq in (10, 20, 30, 40, 50):
        _cut(rt, log, seq)
    assert [c.cut_id for c in log.cuts] == [3, 4, 5]
    assert log.latest_cut().seq == 50
    assert log.cut(4).seq == 40
    assert log.cut(1) is None  # aged out of the retention window
    # Entry objects of aged-out cuts stay in the store as dead segments.
    assert store.exists("shard0/log/00000001")
    assert log.snapshot() == {"prefix": "shard0/", "cuts": 3, "segments": 5,
                              "latest_cut_id": 5, "latest_seq": 50}


def test_entry_bytes_model():
    rt, store, log = _rt_log()
    cut = _cut(rt, log, 7, files=("shard0/n0/obj/00000001.512",))
    assert cut.entry_bytes == entry_bytes(1, 0)
    assert store.size_of(cut.log_object) == cut.entry_bytes


def test_gc_is_reachability_based():
    rt, store, log = _rt_log(retain_cuts=2)
    shared = "shard0/n0/obj/00000001.512"
    only_old = "shard0/n0/obj/00000002.512"
    _cut(rt, log, 10, files=(shared, only_old))
    _cut(rt, log, 20, files=(shared,))
    assert log.gc_candidates() == []  # both cuts still retained
    _cut(rt, log, 30, files=(shared,))  # cut 1 ages out
    # Dead: cut 1's entry object and the file only it referenced; the
    # shared file stays reachable from the retained cuts.
    assert log.gc_candidates() == ["shard0/log/00000001", only_old]
    assert log.cleanup(rt) == 2
    assert not store.exists(only_old)
    assert store.exists(shared)
    assert log.gc_candidates() == []
    assert log.verify() == []


def test_recover_rebuilds_cuts_and_sweeps_orphans():
    rt, store, log = _rt_log(retain_cuts=4)
    kept = "shard0/n0/obj/00000001.512"
    _cut(rt, log, 10, files=(kept,))
    _cut(rt, log, 20, files=(kept,))
    # A crash between upload and append: data landed, cut entry did not.
    orphan = "shard0/n0/obj/00000009.512"
    rt.objstore_reserve_put(orphan, 512)
    report = log.recover(rt)
    assert report == {"cuts": 2, "orphans_swept": 1}
    assert not store.exists(orphan)
    assert store.exists(kept)
    assert [c.seq for c in log.cuts] == [10, 20]
    assert log.verify() == []


def test_verify_reports_missing_objects():
    rt, store, log = _rt_log()
    cut = _cut(rt, log, 10, files=("shard0/n0/obj/00000001.512",))
    store.objects.pop("shard0/n0/obj/00000001.512")
    problems = log.verify()
    assert len(problems) == 1 and "missing object" in problems[0]
    store.objects.pop(cut.log_object)
    assert any("entry object missing" in p for p in log.verify())


# -------------------------------------------------------------------- report
def test_objstore_summary_and_report_format():
    rt, store, log = _rt_log()
    _cut(rt, log, 10, files=("shard0/n0/obj/00000001.512",))
    summary = objstore_summary(store.snapshot(), [log.snapshot()])
    assert summary["objects"] == 2
    assert summary["manifest_logs"][0]["latest_seq"] == 10
    text = format_objstore_report(summary)
    assert "object store:" in text and "log shard0/" in text
