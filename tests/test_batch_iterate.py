"""WriteBatch atomicity."""

import pytest

from repro.common.errors import ReproError
from tests.conftest import ALL_ENGINES, make_tiny_db


def test_batch_commit_applies_all():
    db = make_tiny_db("iam")
    with db.write_batch() as b:
        b.put(1, 10)
        b.put(2, 20)
        b.delete(3)
    assert db.get(1) == 10 and db.get(2) == 20 and db.get(3) is None


def test_batch_discarded_on_exception():
    db = make_tiny_db("iam")
    db.put(1, 1)
    with pytest.raises(RuntimeError):
        with db.write_batch() as b:
            b.put(1, 99)
            raise RuntimeError("boom")
    assert db.get(1) == 1  # nothing from the failed batch applied


def test_batch_sequences_are_consecutive():
    db = make_tiny_db("iam")
    db.put(0, 1)
    seq0 = db._seq
    b = db.write_batch()
    b.put(1, 1).put(2, 2).delete(1)
    b.commit()
    assert db._seq == seq0 + 3
    assert db.get(1) is None  # the later delete in the batch wins
    assert db.get(2) == 2


def test_batch_reuse_rejected():
    db = make_tiny_db("iam")
    b = db.write_batch()
    b.put(1, 1)
    b.commit()
    with pytest.raises(ReproError):
        b.put(2, 2)
    with pytest.raises(ReproError):
        b.commit()


def test_batch_accounting_matches_singles():
    """A batch costs the same bytes/time as the singles (the simulated WAL
    is buffered, so group commit buys atomicity, not bandwidth)."""
    single = make_tiny_db("iam")
    t0 = single.clock_now
    for i in range(20):
        single.put(i, 64)
    t_single = single.clock_now - t0

    batched = make_tiny_db("iam")
    t0 = batched.clock_now
    with batched.write_batch() as b:
        for i in range(20):
            b.put(i, 64)
    t_batch = batched.clock_now - t0
    assert t_batch == pytest.approx(t_single, rel=1e-6)
    assert batched.metrics.user_bytes == single.metrics.user_bytes
    assert batched.metrics.wal_bytes == single.metrics.wal_bytes


def test_batch_survives_crash():
    db = make_tiny_db("iam")
    with db.write_batch() as b:
        for i in range(10):
            b.put(i, i + 100)
    db.crash_and_recover()
    for i in range(10):
        assert db.get(i) == i + 100


def test_empty_batch_is_noop():
    db = make_tiny_db("iam")
    seq0 = db._seq
    with db.write_batch():
        pass
    assert db._seq == seq0


def test_batch_len_and_clear():
    db = make_tiny_db("iam")
    b = db.write_batch()
    b.put(1, 1).put(2, 2)
    assert len(b) == 2
    b.clear()
    assert len(b) == 0
    b.commit()
    assert db.get(1) is None
