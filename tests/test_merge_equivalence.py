"""The merge kernel vs the frozen seed merge: record-identical outputs.

``repro.table.merge.merge_runs`` is one columnar kernel (concatenate,
lexsort, keep mask); it must produce exactly the records of
:func:`repro.bench.reference.reference_merge_runs` for any combination of run
count, value type, tombstones, live snapshots and ``drop_tombstones``.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.bench.reference import reference_merge_runs
from repro.common.errors import ConfigError
from repro.common.records import DELETE, PUT, sort_key
from repro.table.merge import merge_runs as merge_run_columns
from repro.table.run import Run


def merge_runs(runs, **kw):
    """The kernel over tuple lists: columnar :class:`Run` inputs, tuples back
    out for comparison with the tuple-list reference."""
    return merge_run_columns([Run.from_records(r) for r in runs], **kw).records()


@st.composite
def runs_and_views(draw):
    n = draw(st.integers(0, 90))
    n_runs = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31))
    rng = random.Random(seed)
    seqs = list(range(1, n + 1))
    rng.shuffle(seqs)  # globally unique seqs, randomly ordered
    runs = [[] for _ in range(n_runs)]
    # Both ends of the key space: keys near 2**64 - 1 sort past 2**63.
    key_base = draw(st.sampled_from([0, 2**64 - 12]))
    real_values = draw(st.booleans())  # some bytes payloads: object values
    for seq in seqs:
        key = key_base + rng.randrange(12)
        kind = DELETE if rng.random() < 0.25 else PUT
        value = 0 if kind == DELETE else rng.randrange(200)
        if real_values and kind == PUT and rng.random() < 0.5:
            value = bytes(rng.randrange(4))
        runs[rng.randrange(n_runs)].append((key, seq, kind, value))
    for run in runs:
        run.sort(key=sort_key)
    if draw(st.booleans()):
        snapshots = draw(st.lists(st.integers(0, n + 2), max_size=4))
    else:
        snapshots = None
    return runs, snapshots


@given(runs_and_views(), st.booleans())
def test_merge_matches_reference(data, drop_tombstones):
    runs, snapshots = data
    assert merge_runs(runs, drop_tombstones=drop_tombstones,
                      snapshots=snapshots) == \
        reference_merge_runs(runs, drop_tombstones=drop_tombstones,
                             snapshots=snapshots)


def test_empty_inputs():
    assert merge_runs([]) == reference_merge_runs([]) == []
    assert merge_runs([[]]) == reference_merge_runs([[]]) == []
    assert merge_runs([[], []]) == reference_merge_runs([[], []]) == []


def test_each_tier_exercised_explicitly():
    # One run (mask only) and two and four runs (lexsort), each under the
    # first-of-key mask and the snapshot mask, with and without tombstone
    # elision -- pinned examples beyond the random sweep.
    a = [(1, 9, PUT, 5), (1, 3, PUT, 5), (2, 4, DELETE, 0)]
    b = [(1, 7, PUT, 6), (3, 2, PUT, 6)]
    c = [(2, 8, PUT, 7)]
    d = [(0, 1, DELETE, 0)]
    for runs in ([a], [a, b], [a, b, c, d]):
        for snaps in (None, [], [3], [3, 7, 100]):
            for drop in (False, True):
                assert merge_runs(runs, drop_tombstones=drop,
                                  snapshots=snaps) == \
                    reference_merge_runs(runs, drop_tombstones=drop,
                                         snapshots=snaps)
    # A key outside uint64 never reaches a merge: a run refuses it.
    for key in (-2, 2**64):
        with pytest.raises(ConfigError, match="outside the key space"):
            Run.from_records([(key, 1, PUT, 5)])
