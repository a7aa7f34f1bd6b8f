"""Sequence: block layout, point gets, lazy cursors."""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvariantViolation
from repro.common.options import DeviceProfile, StorageOptions
from repro.common.records import KEY, SEQ, encoded_size, make_delete, make_put
from repro.storage.runtime import Runtime
from repro.table.block import INDEX_ENTRY_BYTES, READAHEAD_BLOCKS, Sequence, finish_sequences
from repro.table.run import Run

KS = 8
BLOCK = 256

PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1e6, write_bandwidth=1e6)


def make_runtime(cache_bytes=0):
    return Runtime(StorageOptions(device=PROFILE, page_cache_bytes=cache_bytes,
                                  block_size=BLOCK))


def make_seq(records, first_block=0):
    """A bare sequence, finished as a job finishes what it appends."""
    seq = Sequence(Run.from_records(records), key_size=KS, block_size=BLOCK,
                   bloom_bits_per_key=14, first_block=first_block)
    finish_sequences([seq], 14)
    return seq


def records_of(n, vsize=64, seq_base=0):
    return [make_put(i, seq_base + n - i, vsize) for i in range(n)]


def test_empty_sequence_rejected():
    with pytest.raises(InvariantViolation):
        make_seq([])


def test_block_layout_and_sizes():
    recs = records_of(12, vsize=64)  # 85 bytes each -> 3 per 256B block
    s = make_seq(recs)
    per = encoded_size(recs[0], KS)
    assert s.nbytes == 12 * per
    assert s.n_blocks == 4
    assert list(s.block_start_idx) == [0, 3, 6, 9]
    assert (s.min_key, s.max_key) == (0, 11)
    assert s.metadata_bytes == s.bloom.nbytes + 4 * INDEX_ENTRY_BYTES


def test_oversized_record_gets_own_block():
    recs = [make_put(0, 2, 500), make_put(1, 1, 10)]
    s = make_seq(recs)
    assert s.n_blocks == 2
    assert make_seq([make_put(0, 2, 500), make_put(1, 1, 500)]).n_blocks == 2


def test_mixed_record_sizes_fill_blocks_greedily():
    # 8 + 13 overhead: 121, 31, 91, 121, 21 bytes against 256-byte blocks.
    recs = [make_put(i, 9 - i, v) for i, v in enumerate([100, 10, 70, 100, 0])]
    s = make_seq(recs)
    assert s.block_start_idx == [0, 3]
    assert s.nbytes == sum(encoded_size(r, KS) for r in recs)


def test_get_present_key():
    rt = make_runtime()
    s = make_seq(records_of(12))
    rec, lat = s.get(rt, 1, 5)
    assert rec[KEY] == 5
    assert lat > 0.0  # one block read
    assert rt.metrics.query_seeks == 1


def test_get_out_of_range_is_free():
    rt = make_runtime()
    s = make_seq(records_of(12))
    rec, lat = s.get(rt, 1, 99)
    assert rec is None and lat == 0.0
    assert rt.metrics.query_seeks == 0


def test_get_bloom_rejects_absent_key_without_io():
    rt = make_runtime()
    s = make_seq([make_put(k, 1, 64) for k in range(0, 1000, 7)])
    misses_free = 0
    for k in range(1, 1000, 7):  # keys not present but in range
        _, lat = s.get(rt, 1, k)
        if lat == 0.0:
            misses_free += 1
    # At 14 bits/key almost all absent keys are rejected by the filter.
    assert misses_free > 130


def test_get_with_snapshot_picks_visible_version():
    recs = [make_put(1, 9, 8), make_put(1, 4, 8), make_put(2, 7, 8)]
    s = make_seq(recs)
    rt = make_runtime()
    rec, _ = s.get(rt, 1, 1, snapshot=5)
    assert rec[SEQ] == 4
    rec, _ = s.get(rt, 1, 1, snapshot=3)
    assert rec is None
    rec, _ = s.get(rt, 1, 1)
    assert rec[SEQ] == 9


def test_lookup_reads_the_blocks_its_span_covers():
    # Key 2's versions run across the block boundary: its hit reads both
    # blocks.  A one-record hit and a false positive -- in a gap, or past
    # the last key -- read the one block the search ends in.
    recs = [make_put(0, 10, 64)] + [make_put(2, s, 64) for s in (9, 8, 7, 6)]
    s = make_seq(recs + [make_put(4, 5, 64)], first_block=7)
    for key, blocks in ((2, [7, 8]), (0, [7]), (4, [8]), (1, [7]), (3, [8]), (5, [8])):
        rt = make_runtime(cache_bytes=100 * BLOCK)
        s.lookup(rt, 1, key)
        assert sorted(b for _, b in rt.cache._lru) == blocks, key


class _RecordingRuntime:
    """What ``lookup`` needs of a runtime: the requests it charges."""

    def __init__(self):
        self.reads = []

    def fg_read_blocks(self, reads):
        self.reads.extend(reads)
        return 0.0


def _reference_lookup(s, key, snapshot):
    """``lookup`` by plain bisects over list copies: (record, blocks read)."""
    keys, starts = list(s.key_view), list(s.block_start_idx)
    i, j = bisect_left(keys, key), bisect_right(keys, key)
    first = s.first_block - 1
    b = first + bisect_right(starts, i)
    if i == j:
        return None, range(b, b + 1)
    blocks = range(b, first + bisect_right(starts, j - 1) + 1)
    visible = [r for r in s.run.records()[i:j] if snapshot is None or r[SEQ] <= snapshot]
    return (visible[0] if visible else None), blocks


@st.composite
def _sequences(draw):
    """A sequence of odd keys with 1-3 versions each, in a uniform layout
    (one value size: ``block_start_idx`` is a range) or a variable one
    (sizes and tombstones mixed: a list)."""
    keys = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=25)))
    versions = [draw(st.integers(1, 3)) for _ in keys]
    seqs = iter(draw(st.permutations(range(1, sum(versions) + 1))))
    uniform = draw(st.booleans())
    size = draw(st.sampled_from([8, 64, 100, 300]))
    recs = []
    for key, n in zip(keys, versions):
        for seq in sorted((next(seqs) for _ in range(n)), reverse=True):
            if uniform:
                recs.append(make_put(2 * key + 1, seq, size))
            elif draw(st.integers(0, 4)) == 0:
                recs.append(make_delete(2 * key + 1, seq))
            else:
                recs.append(make_put(2 * key + 1, seq, draw(st.integers(0, 300))))
    if not uniform:  # two sizes at least, whatever was drawn
        recs.append(make_put(2 * keys[-1] + 3, 0, 1 + recs[0][3]))
    s = make_seq(recs, first_block=draw(st.integers(0, 5)))
    assert (type(s.block_start_idx) is range) == uniform
    return s


@settings(max_examples=150, deadline=None)
@given(_sequences())
def test_lookup_matches_a_plain_bisect_reference(s):
    # Every key from below the first to past the last (present, in a gap,
    # first and last records), latest and at snapshots on, between, below
    # and above its versions: the record and the one block run charged are
    # the plain-bisect reference's.
    recs = s.run.records()
    for key in range(s.min_key - 1, s.max_key + 3):
        seqs = [r[SEQ] for r in recs if r[KEY] == key]
        for snapshot in {None, 0, 1 << 40, *seqs, *(q - 1 for q in seqs)}:
            rt = _RecordingRuntime()
            rec, _ = s.lookup(rt, 3, key, snapshot)
            want, blocks = _reference_lookup(s, key, snapshot)
            assert (rec, rt.reads) == (want, [(3, blocks)]), (key, snapshot)


def test_cursor_yields_range_in_order():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    s = make_seq(records_of(30))
    got = [r[KEY] for r in s.cursor(rt, 1, 10, 19)]
    assert got == list(range(10, 20))


def test_cursor_charges_lazily_with_readahead():
    rt = make_runtime()
    s = make_seq(records_of(60))  # 20 blocks
    cur = s.cursor(rt, 1, None, None)
    next(cur)
    assert rt.metrics.cache_misses == READAHEAD_BLOCKS  # first window only
    for _ in range(3 * READAHEAD_BLOCKS - 1):  # finish its records (3/block)
        next(cur)
    next(cur)
    assert rt.metrics.cache_misses == 2 * READAHEAD_BLOCKS


def test_cursor_consumed_fully_charges_all_blocks():
    rt = make_runtime()
    s = make_seq(records_of(30))
    list(s.cursor(rt, 1))
    assert rt.metrics.cache_misses == s.n_blocks


def test_cursor_empty_range_charges_nothing():
    rt = make_runtime()
    s = make_seq(records_of(10))
    assert list(s.cursor(rt, 1, 50, 60)) == []
    assert rt.metrics.cache_misses == 0


def test_blocks_numbered_from_first_block():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    s = make_seq(records_of(12), first_block=7)
    assert len(list(s.cursor(rt, 1))) == 12
    assert sorted(rt.cache._lru) == [(1, 7), (1, 8), (1, 9), (1, 10)]
