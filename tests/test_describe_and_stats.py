"""Introspection surfaces: describe(), stats(), level accounting."""

import random

import pytest

from tests.conftest import ALL_ENGINES, make_tiny_db, max_sequences_per_node


def _load(db, n=2500, seed=1):
    rng = random.Random(seed)
    for _ in range(n):
        db.put(rng.randrange(1 << 22), 64)
    db.flush()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_level_data_bytes_sum_close_to_space(engine):
    db = make_tiny_db(engine)
    _load(db)
    level_sum = sum(db.engine.level_data_bytes().values())
    space = db.space_used_bytes()
    # space = data + table metadata + wal/manifest remnants
    assert 0 < level_sum <= space


def test_lsa_max_sequences_per_node_reports():
    db = make_tiny_db("lsa")
    _load(db, 3000)
    assert max_sequences_per_node(db.engine) >= 1


def test_stats_include_simulated_time(any_engine_db):
    db = any_engine_db
    _load(db, 800)
    s = db.stats()
    assert s["sim_time_s"] > 0
    assert s["memtable_bytes"] >= 0
    assert "space_used_bytes" in s


def test_describe_counters_move():
    db = make_tiny_db("iam")
    _load(db, 3000, seed=2)
    d1 = db.engine.describe()
    _load(db, 3000, seed=3)
    d2 = db.engine.describe()
    assert d2["flushes"] > d1["flushes"]
    assert d2["appends"] >= d1["appends"]


def test_wal_and_manifest_grow_with_writes():
    db = make_tiny_db("leveldb")
    db.put(1, 64)
    assert db.wal.nbytes > 0
    _load(db, 1000, seed=4)
    assert db.manifest.restore() is not None  # checkpoints written
