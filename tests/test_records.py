"""Record model: layout, encoding sizes, sort order."""

import pytest
from hypothesis import given, strategies as st

from repro.common.records import (
    DELETE,
    KEY,
    KIND,
    PUT,
    RECORD_OVERHEAD,
    Record,
    SEQ,
    VALUE,
    encoded_size,
    encoded_size_many,
    make_delete,
    make_put,
    sort_key,
    value_nbytes,
)
from tests.conftest import is_sorted_run


def test_make_put_layout():
    rec = make_put(42, 7, 100)
    assert rec[KEY] == 42
    assert rec[SEQ] == 7
    assert rec[KIND] == PUT
    assert rec[VALUE] == 100


def test_make_delete_is_tombstone_with_empty_value():
    rec = make_delete(1, 5)
    assert rec[KIND] == DELETE
    assert rec[VALUE] == 0


def test_record_namedtuple_is_layout_compatible():
    rec = Record(key=3, seq=9, kind=PUT, value=64)
    assert rec == (3, 9, PUT, 64)
    assert (rec.key, rec.seq, rec.kind, rec.value) == (3, 9, PUT, 64)


def test_encoded_size_synthetic_value():
    rec = make_put(1, 1, 100)
    assert encoded_size(rec, key_size=16) == 16 + 100 + RECORD_OVERHEAD


def test_encoded_size_bytes_value():
    rec = make_put(1, 1, b"hello")
    assert encoded_size(rec, key_size=8) == 8 + 5 + RECORD_OVERHEAD


def test_value_nbytes():
    assert value_nbytes(123) == 123
    assert value_nbytes(b"abc") == 3


def test_encoded_size_many_matches_sum():
    recs = [make_put(i, i + 1, 10 * i) for i in range(5)]
    assert encoded_size_many(recs, 8) == sum(encoded_size(r, 8) for r in recs)


def test_tombstone_encodes_smaller_than_put():
    assert encoded_size(make_delete(1, 1), 8) < encoded_size(make_put(1, 1, 64), 8)


def test_sort_key_orders_newest_first_within_key():
    recs = [make_put(1, 5, 0), make_put(1, 9, 0), make_put(0, 1, 0)]
    out = sorted(recs, key=sort_key)
    assert [r[KEY] for r in out] == [0, 1, 1]
    assert out[1][SEQ] == 9  # newest version of key 1 first


def test_is_sorted_run_accepts_valid():
    run = [make_put(1, 9, 0), make_put(1, 4, 0), make_put(2, 7, 0)]
    assert is_sorted_run(run)


def test_is_sorted_run_rejects_key_disorder():
    assert not is_sorted_run([make_put(2, 1, 0), make_put(1, 2, 0)])


def test_is_sorted_run_rejects_seq_ascending_within_key():
    assert not is_sorted_run([make_put(1, 1, 0), make_put(1, 2, 0)])


def test_is_sorted_run_rejects_duplicate_key_seq():
    assert not is_sorted_run([make_put(1, 3, 0), make_put(1, 3, 0)])


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)), max_size=50))
def test_sorted_by_sort_key_is_valid_run(pairs):
    seen = set()
    recs = []
    for key, seq in pairs:
        if (key, seq) in seen:
            continue
        seen.add((key, seq))
        recs.append(make_put(key, seq, 1))
    assert is_sorted_run(sorted(recs, key=sort_key))
