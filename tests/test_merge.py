"""merge_runs: MVCC garbage collection during merges."""

from hypothesis import given, settings, strategies as st

from repro.common.records import (
    DELETE,
    KEY,
    KIND,
    PUT,
    SEQ,
    is_sorted_run,
    make_delete,
    make_put,
    sort_key,
)
from repro.table.merge import merge_runs as merge_run_columns
from repro.table.run import Run


def merge_runs(runs, **kw):
    """The kernel over tuple lists: columnar runs in, tuples back out."""
    return merge_run_columns([Run.from_records(r) for r in runs], **kw).records()


def test_empty_and_single_run():
    assert merge_runs([]) == []
    run = [make_put(1, 2, 8), make_put(2, 1, 8)]
    assert merge_runs([run]) == run


def test_newest_version_wins():
    a = [make_put(1, 5, 8)]
    b = [make_put(1, 9, 8)]
    out = merge_runs([a, b])
    assert len(out) == 1 and out[0][SEQ] == 9


def test_outdated_versions_removed_without_snapshots():
    run = [make_put(1, 9, 8), make_put(1, 5, 8), make_put(1, 2, 8)]
    out = merge_runs([run])
    assert [r[SEQ] for r in out] == [9]


def test_snapshot_preserves_needed_versions():
    run = [make_put(1, 9, 8), make_put(1, 5, 8), make_put(1, 2, 8)]
    out = merge_runs([run], snapshots=[6])
    assert [r[SEQ] for r in out] == [9, 5]
    out = merge_runs([run], snapshots=[2, 6])
    assert [r[SEQ] for r in out] == [9, 5, 2]
    out = merge_runs([run], snapshots=[1])
    assert [r[SEQ] for r in out] == [9]


def test_one_version_serves_adjacent_snapshots():
    run = [make_put(1, 5, 8)]
    out = merge_runs([run], snapshots=[6, 7, 8])
    assert len(out) == 1


def test_tombstone_kept_at_non_bottom():
    run = [make_delete(1, 9), make_put(1, 5, 8)]
    out = merge_runs([run], drop_tombstones=False)
    assert len(out) == 1 and out[0][KIND] == DELETE


def test_tombstone_dropped_at_bottom():
    run = [make_delete(1, 9), make_put(1, 5, 8)]
    out = merge_runs([run], drop_tombstones=True)
    assert out == []


def test_tombstone_kept_when_snapshot_preserves_older_version():
    """Dropping the tombstone here would resurrect seq 5 for the latest
    view -- it must stay until the snapshot releases (bottom level or not)."""
    run = [make_delete(1, 9), make_put(1, 5, 8)]
    out = merge_runs([run], drop_tombstones=True, snapshots=[5])
    assert [(r[SEQ], r[KIND]) for r in out] == [(9, DELETE), (5, PUT)]


def test_trailing_tombstones_stripped_at_bottom():
    run = [make_delete(1, 9), make_delete(1, 5)]
    out = merge_runs([run], drop_tombstones=True, snapshots=[5])
    assert out == []




def test_merge_many_runs_sorted_output():
    runs = [
        [make_put(1, 3, 8), make_put(5, 1, 8)],
        [make_put(2, 4, 8), make_put(5, 6, 8)],
        [make_put(0, 2, 8)],
    ]
    out = merge_runs(runs)
    assert is_sorted_run(out)
    assert [r[KEY] for r in out] == [0, 1, 2, 5]
    assert out[-1][SEQ] == 6


@st.composite
def runs_strategy(draw):
    n_versions = draw(st.integers(1, 60))
    versions = []
    seqs = draw(st.lists(st.integers(1, 10**6), min_size=n_versions,
                         max_size=n_versions, unique=True))
    for seq in seqs:
        key = draw(st.integers(0, 15))
        kind = draw(st.sampled_from([PUT, DELETE]))
        versions.append((key, seq, kind, 0 if kind == DELETE else 8))
    n_runs = draw(st.integers(1, 5))
    runs = [[] for _ in range(n_runs)]
    for v in versions:
        runs[draw(st.integers(0, n_runs - 1))].append(v)
    return [sorted(r, key=sort_key) for r in runs if r]


@settings(max_examples=80, deadline=None)
@given(runs_strategy(), st.lists(st.integers(0, 10**6), max_size=3),
       st.booleans())
def test_property_visibility_preserved(runs, snapshots, drop):
    """For every view (latest + each snapshot), the visible value of every
    key is identical before and after the merge."""
    out = merge_runs(runs, drop_tombstones=drop, snapshots=snapshots)
    assert is_sorted_run(out)
    all_recs = [r for run in runs for r in run]

    def visible(recs, key, snap):
        cands = [r for r in recs if r[KEY] == key
                 and (snap is None or r[SEQ] <= snap)]
        if not cands:
            return None
        best = max(cands, key=lambda r: r[SEQ])
        return None if best[KIND] == DELETE else best

    keys = {r[KEY] for r in all_recs}
    for snap in [None] + list(snapshots):
        for key in keys:
            assert visible(out, key, snap) == visible(all_recs, key, snap)


@settings(max_examples=40, deadline=None)
@given(runs_strategy())
def test_property_no_snapshot_keeps_one_version_per_key(runs):
    out = merge_runs(runs, drop_tombstones=False, snapshots=None)
    keys = [r[KEY] for r in out]
    assert len(keys) == len(set(keys))
