"""Sequence: block layout, point gets, lazy cursors."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.options import DeviceProfile, StorageOptions
from repro.common.records import KEY, SEQ, encoded_size, make_put
from repro.storage.runtime import Runtime
from repro.table.block import INDEX_ENTRY_BYTES, Sequence
from repro.table.run import Run

KS = 8
BLOCK = 256

PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1e6, write_bandwidth=1e6)


def make_runtime(cache_bytes=0):
    return Runtime(StorageOptions(device=PROFILE, page_cache_bytes=cache_bytes,
                                  block_size=BLOCK))


def make_seq(records, first_block=0):
    return Sequence(Run.from_records(records), key_size=KS, block_size=BLOCK,
                    bloom_bits_per_key=14, first_block=first_block)


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


def test_cursor_yields_range_in_order():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    s = make_seq(records_of(30))
    got = [r[KEY] for r in s.cursor(rt, 1, 10, 19)]
    assert got == list(range(10, 20))


def test_cursor_charges_lazily_with_readahead():
    rt = make_runtime()
    s = make_seq(records_of(60))  # 20 blocks
    cur = s.cursor(rt, 1, None, None, readahead_blocks=4)
    next(cur)
    assert rt.metrics.cache_misses == 4  # first readahead window only
    for _ in range(3 * 4 - 1):  # finish the window's records (3/block)
        next(cur)
    next(cur)
    assert rt.metrics.cache_misses == 8


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
    s = make_seq(records_of(12), first_block=7)
    assert list(s.block_numbers()) == [7, 8, 9, 10]
