"""Memtable: MVCC versions, ordering, size accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvariantViolation
from repro.common.records import (
    DELETE,
    KEY,
    PUT,
    SEQ,
    encoded_size,
    is_sorted_run,
    make_delete,
    make_put,
)
from repro.memtable import Memtable

KS = 8


def test_add_and_get_latest():
    mt = Memtable(KS)
    mt.add(make_put(1, 1, 10))
    mt.add(make_put(1, 2, 20))
    rec = mt.get(1)
    assert rec[SEQ] == 2 and rec[3] == 20


def test_get_with_snapshot_sees_old_version():
    mt = Memtable(KS)
    mt.add(make_put(1, 5, 10))
    mt.add(make_put(1, 9, 20))
    assert mt.get(1, snapshot=5)[SEQ] == 5
    assert mt.get(1, snapshot=8)[SEQ] == 5
    assert mt.get(1, snapshot=4) is None
    assert mt.get(2) is None


def test_tombstones_are_versions_too():
    mt = Memtable(KS)
    mt.add(make_put(7, 1, 10))
    mt.add(make_delete(7, 2))
    assert mt.get(7)[2] == DELETE
    assert mt.get(7, snapshot=1)[2] == PUT


def test_seq_must_increase_per_key():
    mt = Memtable(KS)
    mt.add(make_put(1, 5, 10))
    with pytest.raises(InvariantViolation):
        mt.add(make_put(1, 5, 10))
    with pytest.raises(InvariantViolation):
        mt.add(make_put(1, 4, 10))


def test_size_accounting():
    mt = Memtable(KS)
    recs = [make_put(i, i + 1, 32) for i in range(10)]
    for r in recs:
        mt.add(r)
    assert mt.nbytes == sum(encoded_size(r, KS) for r in recs)
    assert len(mt) == 10
    assert mt.n_keys == 10
    assert (mt.min_seq, mt.max_seq) == (1, 10)


def test_sorted_records_is_valid_run():
    mt = Memtable(KS)
    for key, seq in [(5, 1), (3, 2), (5, 3), (1, 4), (3, 5)]:
        mt.add(make_put(key, seq, 8))
    run = mt.sorted_records()
    assert run.is_sorted() and is_sorted_run(run.records())
    assert [r[KEY] for r in run.records()] == [1, 3, 3, 5, 5]
    assert len(run) == 5


def test_iter_range_bounds():
    mt = Memtable(KS)
    for k in [1, 3, 5, 7, 9]:
        mt.add(make_put(k, k, 8))
    assert [r[KEY] for r in mt.iter_range(3, 8)] == [3, 5, 7]
    assert [r[KEY] for r in mt.iter_range(None, 4)] == [1, 3]
    assert [r[KEY] for r in mt.iter_range(8, None)] == [9]
    assert [r[KEY] for r in mt.iter_range()] == [1, 3, 5, 7, 9]


def test_approximate_live_records_excludes_tombstoned():
    mt = Memtable(KS)
    mt.add(make_put(1, 1, 8))
    mt.add(make_put(2, 2, 8))
    mt.add(make_delete(1, 3))
    assert mt.approximate_live_records() == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=120))
def test_memtable_matches_dict_model(ops):
    """Memtable latest-read semantics == plain dict; snapshots == history."""
    mt = Memtable(KS)
    model = {}
    history = []
    seq = 0
    for key, is_delete in ops:
        seq += 1
        if is_delete:
            mt.add(make_delete(key, seq))
            model[key] = None
        else:
            mt.add(make_put(key, seq, 8))
            model[key] = seq
        history.append(dict(model))
    for key in range(31):
        rec = mt.get(key)
        if key not in model:
            assert rec is None
        elif model[key] is None:
            assert rec[2] == DELETE
        else:
            assert rec[SEQ] == model[key]
    # Snapshot at the midpoint matches mid-history.
    if history:
        mid = len(history) // 2
        snap_model = history[mid]
        for key in range(31):
            rec = mt.get(key, snapshot=mid + 1)
            if key not in snap_model:
                assert rec is None
            elif snap_model[key] is None:
                assert rec[2] == DELETE
            else:
                assert rec[SEQ] == snap_model[key]
    assert is_sorted_run(mt.sorted_records().records())
