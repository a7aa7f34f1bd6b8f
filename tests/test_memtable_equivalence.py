"""Two-tier memtable vs the frozen seed memtable: record-identical behaviour.

The optimized :class:`repro.memtable.Memtable` replaces per-record
``bisect.insort`` with a lazily consolidated delta tier; these property
tests drive both it and :class:`repro.bench.reference.ReferenceMemtable`
with the same randomized MVCC workloads and require identical observable
state: sorted runs, range scans, snapshot reads, size accounting and
error behaviour.
"""

import pytest
from hypothesis import given, strategies as st

from repro.bench.reference import ReferenceMemtable
from repro.common.errors import InvariantViolation
from repro.common.records import DELETE, PUT
from repro.memtable import Memtable

KEY_SIZE = 16

#: (key, kind, value-size) triples; the global index supplies the seq, so
#: per-key sequence numbers are automatically increasing.
ops_strategy = st.lists(
    st.tuples(st.integers(0, 15),
              st.sampled_from([PUT, PUT, PUT, DELETE]),
              st.integers(0, 300)),
    max_size=120)


def _records(ops):
    return [(key, i + 1, kind, 0 if kind == DELETE else vsize)
            for i, (key, kind, vsize) in enumerate(ops)]


def _loaded(ops):
    recs = _records(ops)
    ref = ReferenceMemtable(KEY_SIZE)
    new = Memtable(KEY_SIZE)
    for rec in recs:
        ref.add(rec)
        new.add(rec)
    return ref, new


def _assert_same_accounting(ref, new):
    assert new.nbytes == ref.nbytes
    assert new.n_records == ref.n_records
    assert new.n_keys == ref.n_keys
    assert new.min_seq == ref.min_seq
    assert new.max_seq == ref.max_seq
    assert len(new) == len(ref)


@given(ops_strategy)
def test_sorted_records_identical(ops):
    ref, new = _loaded(ops)
    assert new.sorted_records().records() == ref.sorted_records()
    _assert_same_accounting(ref, new)
    assert new.approximate_live_records() == ref.approximate_live_records()


@given(ops_strategy, st.integers(-1, 17), st.integers(-1, 17))
def test_iter_range_identical(ops, lo, hi):
    ref, new = _loaded(ops)
    assert list(new.iter_range(lo, hi)) == list(ref.iter_range(lo, hi))
    assert list(new.iter_range(None, hi)) == list(ref.iter_range(None, hi))
    assert list(new.iter_range(lo, None)) == list(ref.iter_range(lo, None))


@given(ops_strategy, st.integers(0, 130))
def test_snapshot_gets_identical(ops, snapshot):
    ref, new = _loaded(ops)
    for key in range(16):
        assert new.get(key) == ref.get(key)
        assert new.get(key, snapshot) == ref.get(key, snapshot)


@given(ops_strategy)
def test_interleaved_reads_do_not_disturb_writes(ops):
    # Consolidation happens on read; reading mid-stream must not change
    # what later reads see.
    recs = _records(ops)
    ref = ReferenceMemtable(KEY_SIZE)
    new = Memtable(KEY_SIZE)
    for i, rec in enumerate(recs):
        ref.add(rec)
        new.add(rec)
        if i % 7 == 0:
            assert new.sorted_records().records() == ref.sorted_records()
    assert list(new.iter_range()) == list(ref.iter_range())


def test_non_increasing_seq_raises_and_state_matches():
    recs = [(1, 5, PUT, 10), (2, 6, PUT, 20), (1, 5, PUT, 30)]
    ref = ReferenceMemtable(KEY_SIZE)
    with pytest.raises(InvariantViolation):
        for rec in recs:
            ref.add(rec)
    new = Memtable(KEY_SIZE)
    with pytest.raises(InvariantViolation):
        for rec in recs:
            new.add(rec)
    # Both stop at the bad record with the first two fully applied.
    assert new.sorted_records().records() == ref.sorted_records()
    _assert_same_accounting(ref, new)
