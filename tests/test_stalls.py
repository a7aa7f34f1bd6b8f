"""Write gating: stalls, slowdowns, and bandwidth contention."""

import random

import pytest

from tests.conftest import make_tiny_db


def _hammer(db, n=3000, seed=1):
    rng = random.Random(seed)
    for _ in range(n):
        db.put(rng.randrange(1 << 30), 64)


def test_memtable_rotation_stall_recorded():
    db = make_tiny_db("leveldb")
    _hammer(db)
    assert db.metrics.events.get("stall:memtable-rotation", 0) > 0


def test_token_pacing_engages_under_l0_pressure():
    db = make_tiny_db("leveldb")
    _hammer(db, 4000)
    assert db.metrics.events.get("pace:token-bucket", 0) > 0


@pytest.mark.parametrize("engine", ["leveldb", "flsm"])
def test_hard_l0_stop_is_counted(engine):
    """With no slowdown band below the stop trigger the ramp has no room,
    so the shared backstop stalls -- and counts it -- for either engine."""
    db = make_tiny_db(engine, l0_compaction_trigger=2, l0_slowdown_trigger=2,
                      l0_stop_trigger=2)
    _hammer(db, 4000)
    assert db.metrics.events.get("stall:l0-stop", 0) > 0
    assert db.metrics.stalls["l0-stop"].total_s > 0.0


def test_rocksdb_debt_alone_engages_pacing():
    """RocksDB's soft debt limit paces writes while L0 sits far below its
    own slowdown trigger: steady small delays instead of giant stalls."""
    db = make_tiny_db("rocksdb", pending_compaction_soft_bytes=2048)
    _hammer(db, 5000, seed=2)
    ev = db.metrics.events
    assert ev.get("pace:token-bucket", 0) > 0
    assert ev.get("stall:l0-stop", 0) == 0


def test_lsa_write_gate_never_delays():
    db = make_tiny_db("lsa")
    assert db.engine.write_gate(1000) == 0.0


def test_stalled_inserts_show_in_tail_latency():
    db = make_tiny_db("leveldb")
    _hammer(db, 4000, seed=3)
    ins = db.metrics.latency["insert"]
    # The maximum insert latency dwarfs the median (bursts & stalls, §6.2).
    assert ins.max > 50 * max(ins.percentile(50), 1e-9)


def test_append_trees_have_better_insert_p99_than_lsm():
    from tests.conftest import make_matched_db
    results = {}
    for engine in ("leveldb", "lsa"):
        db = make_matched_db(engine)
        _hammer(db, 6000, seed=4)
        results[engine] = db.metrics.latency["insert"].p99()
    assert results["lsa"] <= results["leveldb"]


def test_reads_queue_behind_compaction_traffic():
    """§1: compaction writes saturate bandwidth and block user queries."""
    db = make_tiny_db("leveldb", storage_kw=dict(page_cache_bytes=0))
    rng = random.Random(5)
    keys = [rng.randrange(1 << 30) for _ in range(2500)]
    for k in keys:
        db.put(k, 64)
    # Reads while compaction debt is outstanding...
    busy_read = db.metrics.latency["read"]
    for k in keys[:100]:
        db.get(k)
    busy_p50 = busy_read.percentile(50)
    db.quiesce()
    marks = busy_read.count
    for k in keys[100:200]:
        db.get(k)
    idle = busy_read.window_summary(marks)
    assert busy_p50 >= idle["p50"] * 0.99  # busy reads are no faster
