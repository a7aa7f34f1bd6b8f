"""merge_visible: scan visibility semantics."""

import pytest

from repro.common.errors import ConfigError
from repro.common.records import make_delete, make_put, sort_key
from repro.db.iterator import merge_visible


def test_empty_streams():
    assert list(merge_visible([])) == []
    assert list(merge_visible([[], None])) == []


def test_single_stream_latest_versions():
    stream = [make_put(1, 5, 10), make_put(1, 2, 11), make_put(2, 3, 12)]
    assert list(merge_visible([stream])) == [(1, 10), (2, 12)]


def test_merges_across_streams_newest_wins():
    a = [make_put(1, 9, 1)]
    b = [make_put(1, 4, 2), make_put(3, 6, 3)]
    assert list(merge_visible([a, b])) == [(1, 1), (3, 3)]


def test_tombstones_hide_keys():
    a = [make_delete(1, 9)]
    b = [make_put(1, 4, 7), make_put(2, 5, 8)]
    assert list(merge_visible([a, b])) == [(2, 8)]


def test_snapshot_visibility():
    stream = [make_put(1, 9, 1), make_put(1, 4, 2)]
    assert list(merge_visible([stream], snapshot=5)) == [(1, 2)]
    assert list(merge_visible([stream], snapshot=3)) == []
    # A tombstone newer than the snapshot does not hide the old version.
    streams = [[make_delete(2, 9)], [make_put(2, 4, 5)]]
    assert list(merge_visible(streams, snapshot=5)) == [(2, 5)]


def test_hi_key_exclusive():
    stream = [make_put(k, 1, k) for k in range(5)]
    assert list(merge_visible([stream], hi_key=3)) == [(0, 0), (1, 1), (2, 2)]


def test_limit_counts_only_yielded_pairs():
    stream = sorted([make_delete(0, 9), make_put(1, 1, 1), make_put(2, 2, 2),
                     make_put(3, 3, 3)], key=sort_key)
    assert list(merge_visible([stream], limit=2)) == [(1, 1), (2, 2)]


def test_invisible_version_does_not_consume_key():
    # Newest version invisible at the snapshot; older visible one must win.
    stream = [make_put(1, 10, 99), make_put(1, 3, 42)]
    assert list(merge_visible([stream], snapshot=5)) == [(1, 42)]


def test_newest_invisible_across_streams_older_visible_wins():
    # The invisible newest version lives in a *different* stream than the
    # older visible one; the key must not be marked served too early.
    newer = [make_put(1, 10, 99)]
    older = [make_put(1, 3, 42)]
    assert list(merge_visible([newer, older], snapshot=5)) == [(1, 42)]
    # Same with a newer tombstone on another stream.
    tomb = [make_delete(2, 10)]
    put = [make_put(2, 3, 7)]
    assert list(merge_visible([tomb, put], snapshot=5)) == [(2, 7)]


def test_tombstone_exactly_at_snapshot_boundary():
    # A tombstone with seq == snapshot is visible and hides the key.
    streams = [[make_delete(1, 5)], [make_put(1, 3, 42)]]
    assert list(merge_visible(streams, snapshot=5)) == []
    # One past the snapshot it is invisible; the older put shows through.
    streams = [[make_delete(1, 6)], [make_put(1, 3, 42)]]
    assert list(merge_visible(streams, snapshot=5)) == [(1, 42)]
    # A put exactly at the snapshot is visible.
    assert list(merge_visible([[make_put(2, 5, 9)]], snapshot=5)) == [(2, 9)]


def test_hi_key_with_snapshot_and_limit():
    stream = sorted([make_put(0, 1, 10), make_put(1, 9, 91),  # 91 invisible
                     make_put(1, 2, 11), make_delete(2, 3),
                     make_put(3, 4, 13), make_put(4, 5, 14)], key=sort_key)
    # Invisible versions and tombstones consume neither limit nor bound.
    out = list(merge_visible([stream], snapshot=5, hi_key=4, limit=2))
    assert out == [(0, 10), (1, 11)]
    out = list(merge_visible([stream], snapshot=5, hi_key=4, limit=10))
    assert out == [(0, 10), (1, 11), (3, 13)]
    # hi_key cuts before the limit is reached.
    out = list(merge_visible([stream], snapshot=5, hi_key=1, limit=10))
    assert out == [(0, 10)]


def test_limit_zero_and_unsorted_duplicate_seqs():
    # limit=0 asks for no rows: nothing is yielded and no stream is pulled
    # (a pull is what charges I/O); a negative limit is a caller error.
    pulled = []

    def stream():
        pulled.append(1)
        yield make_put(1, 2, 10)

    assert list(merge_visible([stream()], limit=0)) == []
    assert not pulled
    with pytest.raises(ConfigError):
        list(merge_visible([stream()], limit=-1))
    assert not pulled
