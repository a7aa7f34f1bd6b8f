"""MetricsRegistry: amplification bookkeeping."""

import random

import pytest

from repro.metrics import LatencyRecorder, MetricsRegistry
from tests.conftest import ALL_ENGINES, make_tiny_db


def test_write_amplification_definition():
    m = MetricsRegistry()
    m.add_user_bytes(100)
    m.level_write_bytes[1] += 150
    m.level_write_bytes[2] += 250
    assert m.compaction_write_bytes == 400
    assert m.write_amplification() == pytest.approx(4.0)


def test_wal_excluded_by_default():
    m = MetricsRegistry()
    m.add_user_bytes(100)
    m.add_wal_bytes(100)
    m.level_write_bytes[1] += 100
    assert m.write_amplification() == pytest.approx(1.0)
    assert m.write_amplification(include_wal=True) == pytest.approx(2.0)


def test_zero_user_bytes_gives_zero():
    m = MetricsRegistry()
    m.level_write_bytes[1] += 500
    assert m.write_amplification() == 0.0
    assert m.per_level_write_amplification() == {}


def test_per_level_attribution_sorted():
    m = MetricsRegistry()
    m.add_user_bytes(100)
    m.level_write_bytes[3] += 300
    m.level_write_bytes[1] += 100
    per = m.per_level_write_amplification()
    assert list(per) == [1, 3]
    assert per[3] == pytest.approx(3.0)


def test_read_amplification_per_query():
    m = MetricsRegistry()
    m.query_seeks, m.cache_hits, m.cache_misses = 3, 1, 3
    m.record_latency("read", 0.001)
    m.record_latency("read", 0.002)
    assert m.read_amplification(("read",)) == pytest.approx(1.5)
    assert m.read_amplification(("scan",)) == 0.0


def test_space_amplification_static():
    assert MetricsRegistry.space_amplification(150, 100) == pytest.approx(1.5)
    assert MetricsRegistry.space_amplification(150, 0) == 0.0


def test_events_and_summary():
    m = MetricsRegistry()
    m.bump("split")
    m.bump("split", 2)
    assert m.events["split"] == 3
    m.add_user_bytes(10)
    s = m.summary()
    assert s["user_bytes"] == 10.0


def test_latency_recorder_digests():
    r = LatencyRecorder()
    for v in [0.001, 0.002, 0.003, 0.100]:
        r.record(v)
    assert r.count == 4
    assert r.max == pytest.approx(0.1)
    assert r.mean == pytest.approx(0.0265)
    assert r.percentile(50) == pytest.approx(0.0025)
    assert r.p99() > 0.09


def test_latency_window_summary():
    r = LatencyRecorder()
    r.record(1.0)
    r.record(2.0)
    w = r.window_summary(1)
    assert w["count"] == 1.0 and w["max"] == 2.0
    assert r.window_summary(2)["count"] == 0.0


def test_empty_recorder():
    r = LatencyRecorder()
    assert r.mean == 0.0 and r.p99() == 0.0 and r.max == 0.0
    assert len(r) == 0


def test_merge_snapshots_sums_and_weights():
    from repro.metrics import merge_snapshots
    a, b = MetricsRegistry(), MetricsRegistry()
    a.add_user_bytes(100)
    a.level_write_bytes[1] += 200
    a.query_seeks, a.cache_hits, a.cache_misses = 2, 1, 1
    a.add_stall("write-gate", 0.5)
    b.add_user_bytes(100)
    b.level_write_bytes[1] += 300
    b.level_write_bytes[2] += 100
    b.query_seeks, b.cache_hits, b.cache_misses = 2, 2, 0
    b.add_stall("write-gate", 2.0)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["user_bytes"] == 200
    assert merged["compaction_write_bytes"] == 600
    assert merged["write_amplification"] == pytest.approx(3.0)
    assert merged["level_write_bytes"] == {1: 500, 2: 100}
    # Weighted across both caches: 3 hits / 4 lookups.
    assert merged["cache_hit_rate"] == pytest.approx(0.75)
    assert merged["total_stall_s"] == pytest.approx(2.5)
    assert merged["longest_stall_s"] == pytest.approx(2.0)


def test_merge_snapshots_empty_and_identity():
    from repro.metrics import merge_snapshots
    assert merge_snapshots([])["user_bytes"] == 0
    m = MetricsRegistry()
    m.add_user_bytes(50)
    m.level_write_bytes[1] += 100
    solo = merge_snapshots([m.snapshot()])
    assert solo["write_amplification"] == m.write_amplification()
    assert solo["user_bytes"] == 50


@pytest.mark.parametrize("engine", ALL_ENGINES + ("lsmtrie",))
def test_disk_writes_equal_the_bytes_the_ledger_attributes(engine):
    # Every byte the device writes is a WAL append or a table write charged
    # to a level, so a write that skips the disk counter, or the ledger,
    # breaks the equality.
    db = make_tiny_db(engine)
    rng = random.Random(7)
    for i in range(600):
        key = rng.randrange(300)
        if i % 5 == 4:
            db.delete(key)
        else:
            db.put(key, i)
    db.flush()
    db.quiesce()
    m = db.metrics
    assert m.compaction_write_bytes > 0 and m.wal_bytes > 0
    assert db.runtime.disk.bytes_written == \
        sum(m.level_write_bytes.values()) + m.wal_bytes
