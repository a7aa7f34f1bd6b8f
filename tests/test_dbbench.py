"""db_bench workloads: loads, overwrite, sequential/point reads."""

import pytest

from repro.common.errors import ConfigError
from repro.workloads import (
    fill_random,
    fill_seq,
    hash_load,
    overwrite,
    read_random,
    read_seq,
)
from repro.workloads.distributions import permute64
from tests.conftest import make_tiny_db


def test_hash_load_unique_unordered():
    db = make_tiny_db("iam")
    rep = hash_load(db, 500, value_size=64)
    assert rep.ops == 500
    assert rep.name == "hash-load"
    assert len(db.scan(None, None)) == 500  # no collisions -> no updates


def test_fill_seq_is_cheap_for_lsa():
    db = make_tiny_db("lsa")
    rep = fill_seq(db, 2000, value_size=64)
    assert rep.write_amplification < 1.4
    assert db.get(0) == 64 and db.get(1999) == 64


def test_fill_random_has_updates():
    db = make_tiny_db("iam")
    rep = fill_random(db, 800, value_size=64)
    # collisions mean fewer live rows than ops
    assert len(db.scan(None, None)) < 800


def test_overwrite_keeps_logical_size():
    db = make_tiny_db("iam")
    hash_load(db, 400, value_size=64)
    before = len(db.scan(None, None))
    overwrite(db, 800, 400, value_size=64)
    assert len(db.scan(None, None)) == before


def test_read_seq_returns_all_rows():
    db = make_tiny_db("iam")
    hash_load(db, 400, value_size=64)
    rep = read_seq(db)
    assert rep.ops == 400


def test_read_random_hits_loaded_keys():
    db = make_tiny_db("iam")
    hash_load(db, 300, value_size=64)
    rep = read_random(db, 200, 300)
    assert rep.latency["read"]["count"] == 200


def test_reports_have_throughput_and_space():
    db = make_tiny_db("leveldb")
    rep = hash_load(db, 600, value_size=64)
    assert rep.throughput > 0
    assert rep.space_used_bytes > 0
    row = rep.row()
    assert row["engine"] == "leveldb"
    assert row["ops"] == 600


def test_quiesce_false_leaves_background_work():
    db = make_tiny_db("leveldb")
    rep = hash_load(db, 2000, value_size=64, quiesce=False)
    rep_q = db.quiesce()
    db.check_invariants()


@pytest.mark.parametrize("fn, sizes", [
    (fill_random, (-3,)), (overwrite, (-1, 5)), (overwrite, (5, 0)),
    (read_random, (-1, 5)), (read_random, (5, 0))],
    ids=lambda v: getattr(v, "__name__", None) or ",".join(map(str, v)))
def test_invalid_sizes_are_refused_before_any_op(fn, sizes):
    db = make_tiny_db("iam")
    with pytest.raises(ConfigError):
        fn(db, *sizes)
    assert db.runtime.clock.now == 0.0 and db.scan(None, None) == []
