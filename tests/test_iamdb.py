"""IamDB public API: writes, reads, scans, snapshots, lifecycle."""

import random

import pytest

from repro.cluster import ClusterOptions
from repro.common.errors import ConfigError, StoreClosedError
from repro.common.options import IamOptions, LsmOptions
from repro.db.iamdb import IamDB
from tests.conftest import ALL_ENGINES, make_tiny_db


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError):
        IamDB("cassandra")


@pytest.mark.parametrize("engine, options", [
    ("leveldb", IamOptions()), ("rocksdb", IamOptions()), ("flsm", IamOptions()),
    ("lsmtrie", LsmOptions()), ("iam", LsmOptions()), ("lsa", ClusterOptions()),
    ("flsm", ClusterOptions())], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_wrong_engine_options_are_refused(engine, options):
    with pytest.raises(ConfigError, match=f"{engine} engine needs "):
        IamDB(engine, engine_options=options)


def test_put_get_roundtrip(any_engine_db):
    db = any_engine_db
    db.put(1, 100)
    db.put(2, b"hello")
    assert db.get(1) == 100
    assert db.get(2) == b"hello"
    assert db.get(3) is None


def test_overwrite_returns_newest(any_engine_db):
    db = any_engine_db
    db.put(1, 10)
    db.put(1, 20)
    assert db.get(1) == 20


def test_delete_hides_key(any_engine_db):
    db = any_engine_db
    db.put(1, 10)
    db.delete(1)
    assert db.get(1) is None
    db.put(1, 30)
    assert db.get(1) == 30


def test_delete_survives_flush(any_engine_db):
    db = any_engine_db
    db.put(1, 10)
    db.flush()
    db.delete(1)
    db.flush()
    assert db.get(1) is None


def test_scan_bounds_and_limit(any_engine_db):
    db = any_engine_db
    for k in range(0, 20, 2):
        db.put(k, k)
    assert db.scan(4, 10) == [(4, 4), (6, 6), (8, 8)]
    assert db.scan(None, 5) == [(0, 0), (2, 2), (4, 4)]
    assert db.scan(10, None) == [(10, 10), (12, 12), (14, 14), (16, 16), (18, 18)]
    assert db.scan(None, None, limit=2) == [(0, 0), (2, 2)]


def test_scan_sees_memtable_and_disk(any_engine_db):
    db = any_engine_db
    for k in range(50):
        db.put(k, 1)
    db.flush()
    db.put(100, 2)  # memtable only
    rows = db.scan(40, None)
    assert rows[-1] == (100, 2)
    assert len(rows) == 11


def test_snapshot_repeatable_reads():
    db = make_tiny_db("iam")
    db.put(1, 10)
    with db.snapshot() as snap:
        db.put(1, 20)
        db.delete(1)
        assert db.get(1, snap) == 10
        assert db.get(1) is None
        assert db.scan(None, None, snapshot=snap) == [(1, 10)]
    assert snap.released


def test_snapshot_pins_versions_across_compactions():
    db = make_tiny_db("iam")
    rng = random.Random(1)
    db.put(777, 1)
    snap = db.snapshot()
    for _ in range(4000):
        db.put(rng.randrange(1 << 30), 64)
    db.put(777, 2)
    db.quiesce()
    assert db.get(777, snap) == 1
    assert db.get(777) == 2
    snap.release()


def test_released_snapshot_allows_gc():
    db = make_tiny_db("iam")
    s1 = db.snapshot()
    s2 = db.snapshot()
    assert db._live_snapshots() == (0,)
    s1.release()
    assert db._live_snapshots() == (0,)  # s2 still pins
    s2.release()
    assert db._live_snapshots() == ()
    s2.release()  # idempotent


def _written(value):
    """A store of 300 keys, then key 3 = ``value`` at seq 301."""
    db = make_tiny_db("iam")
    for key in range(300):
        db.put(key * 7 + 1000, 40)
    db.put(3, value)
    return db


def _released(db):
    snap = db.snapshot()  # seq 303, which another live handle pins too
    snap.release()
    return snap


def _recovered(db):
    snap = db.snapshot()
    db.crash_and_recover()
    db.snapshot()  # recovery kept seq 303: a new handle pins it again
    return snap


def _foreign(db):
    return _written(99).snapshot()  # seq 301, which this store pins too


@pytest.mark.parametrize(
    "snapshot", [2.9, "5", True, -1, 2 ** 64, 301, _released, _recovered, _foreign],
    ids=["float", "str", "bool", "negative", "wide", "int", "released",
         "recovered", "foreign"])
def test_bad_snapshot_is_refused_before_any_charge(snapshot):
    # A snapshot is a handle the store pins, or None: a float is not
    # truncated (2.9 used to read at seq 2, before key 3 existed), a string
    # is not parsed ("5" used to read seq 5), and an int pins no history, so
    # even 301 -- a sequence number this store has written -- is refused
    # rather than read.  So is a handle the store does not pin -- a released
    # one, one taken before a crash and recovery, another store's -- even
    # when another live handle pins its seq: each used to be read at its
    # seq, though nothing kept that history for it.
    db = _written(41)  # seq 301
    at_301 = db.snapshot()
    db.put(3, 42)  # seq 302
    at_302 = db.snapshot()
    db.quiesce()
    db.put(3, 43)  # seq 303, in the memtable
    assert db.get(3, at_301) == 41 and db.get(3, at_302) == 42
    assert db.get(3, db.snapshot()) == 43
    if callable(snapshot):
        snapshot = snapshot(db)

    def state():
        return (db.clock_now, repr(db.metrics.snapshot()),
                list(db.runtime.cache._lru))
    before = state()
    for read in (lambda: db.get(3, snapshot),
                 lambda: db.multi_get([3, 1000], snapshot),
                 lambda: db.scan(None, None, snapshot=snapshot),
                 lambda: db.scan(0, 10, limit=0, snapshot=snapshot)):
        with pytest.raises(ConfigError, match="snapshot"):
            read()
        assert state() == before


def test_a_handle_from_before_recovery_leaves_new_pins_alone():
    # Releasing a handle recovery unpinned does not unpin a new handle that
    # pins the same seq.
    db = make_tiny_db("iam")
    db.put(3, 10)
    old = db.snapshot()
    db.crash_and_recover()
    new = db.snapshot()
    assert new.seq == old.seq
    old.release()
    assert db._live_snapshots() == (new.seq,) and db.get(3, new) == 10


def test_closed_db_rejects_operations():
    db = make_tiny_db("iam")
    db.put(1, 10)
    db.close()
    for op in (lambda: db.put(2, 2), lambda: db.get(1),
               lambda: db.scan(None, None), lambda: db.delete(1),
               lambda: db.flush()):
        with pytest.raises(StoreClosedError):
            op()


def test_flush_moves_memtable_to_engine():
    db = make_tiny_db("iam")
    db.put(1, 10)
    assert len(db.memtable) == 1
    db.flush()
    assert len(db.memtable) == 0
    assert db.get(1) == 10


def test_quiesce_finishes_background_work(any_engine_db):
    db = any_engine_db
    rng = random.Random(2)
    for _ in range(1500):
        db.put(rng.randrange(1 << 20), 64)
    db.quiesce()
    assert not db.runtime.pool.busy


def test_stats_and_amplification_accessors(any_engine_db):
    db = any_engine_db
    rng = random.Random(3)
    for _ in range(1000):
        db.put(rng.randrange(1 << 20), 64)
    db.flush()
    stats = db.stats()
    assert stats["engine"] == db.engine.name
    assert stats["write_amplification"] >= 0.0
    assert db.space_used_bytes() > 0
    per = db.per_level_write_amplification()
    assert per and sum(per.values()) == pytest.approx(db.write_amplification())


def test_latency_recorded_per_op_type(any_engine_db):
    db = any_engine_db
    db.put(1, 10)
    db.get(1)
    db.scan(None, None)
    lat = db.metrics.latency
    assert lat["insert"].count == 1
    assert lat["read"].count == 1
    assert lat["scan"].count == 1


def test_sim_clock_advances_with_work(any_engine_db):
    db = any_engine_db
    t0 = db.clock_now
    for k in range(200):
        db.put(k, 64)
    assert db.clock_now > t0
