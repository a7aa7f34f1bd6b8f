"""MSTable: multi-sequence nodes, newest-first reads, space accounting."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.options import DeviceProfile, StorageOptions
from repro.common.records import KEY, SEQ, make_put
from repro.storage.runtime import Runtime
from repro.table.mstable import MSTable
from repro.table.run import Run

KS = 8
BLOCK = 256
PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1e6, write_bandwidth=1e6)


def make_runtime(cache_bytes=0):
    return Runtime(StorageOptions(device=PROFILE, page_cache_bytes=cache_bytes,
                                  block_size=BLOCK))


def make_table(rt):
    return MSTable(rt, key_size=KS, bloom_bits_per_key=14)


def run(keys, seq):
    return Run.from_records([make_put(k, seq, 64) for k in sorted(keys)])


def test_append_sequence_accounting():
    rt = make_runtime()
    t = make_table(rt)
    seq, debt = t.append_sequence(run(range(10), 1), level=2)
    assert debt > 0.0
    assert t.n_sequences == 1
    assert t.data_bytes == seq.nbytes
    assert t.file.nbytes == seq.nbytes + seq.metadata_bytes
    assert rt.metrics.level_write_bytes[2] == t.file.nbytes
    assert t.n_records == 10


def test_appended_blocks_enter_cache():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    t = make_table(rt)
    s1, _ = t.append_sequence(run(range(10), 1), level=1)
    s2, _ = t.append_sequence(run(range(10, 20), 2), level=1)
    assert s2.first_block == s1.n_blocks  # consecutive block numbering
    assert rt.cache.resident_blocks(t.file_id) == s1.n_blocks + s2.n_blocks
    assert t.resident_bytes() == (s1.n_blocks + s2.n_blocks) * BLOCK


def test_get_searches_newest_sequence_first():
    rt = make_runtime()
    t = make_table(rt)
    t.append_sequence(run([1, 2, 3], 1), level=1)
    t.append_sequence(run([2], 5), level=1)
    rec, _ = t.get(2)
    assert rec[SEQ] == 5
    rec, _ = t.get(2, snapshot=3)
    assert rec[SEQ] == 1
    rec, _ = t.get(1)
    assert rec[SEQ] == 1
    rec, _ = t.get(99)
    assert rec is None


def test_get_charges_what_each_sequence_admits():
    # Snapshot and range skips are free and unprobed; a filter pass reads the
    # block even when the key turns out absent (a Bloom false positive).
    rt = make_runtime()
    t = make_table(rt)
    seq, _ = t.append_sequence(run([10, 30], 4), level=1)
    seq.bloom.bits = b"\xff" * seq.bloom.nbytes  # admits every key
    t = MSTable.from_snapshot(rt, t.snap)  # rewrites the probe row
    m = rt.metrics
    assert t.get(10, snapshot=3) == t.get(31) == (None, 0.0)
    assert (m.bloom_probes, m.cache_misses) == (0, 0)
    rec, latency = t.get(20)
    assert rec is None and latency > 0.0
    assert (m.bloom_probes, m.bloom_negatives, m.cache_misses) == (1, 0, 1)
    assert t.get(30)[0] == (30, 4, 0, 64)


def test_min_max_across_sequences():
    rt = make_runtime()
    t = make_table(rt)
    t.append_sequence(run([5, 9], 1), level=1)
    t.append_sequence(run([1, 7], 2), level=1)
    assert (t.min_key, t.max_key) == (1, 9)
    assert [(s.min_seq, s.max_seq) for s in t.sequences] == [(1, 1), (2, 2)]


def test_cursor_merges_sequences_sorted():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    t = make_table(rt)
    t.append_sequence(run([1, 3, 5], 1), level=1)
    t.append_sequence(run([2, 3, 6], 7), level=1)
    out = list(t.cursor())
    keys = [r[KEY] for r in out]
    assert keys == [1, 2, 3, 3, 5, 6]
    # For the duplicate key, the newer version comes first.
    dup = [r for r in out if r[KEY] == 3]
    assert dup[0][SEQ] == 7 and dup[1][SEQ] == 1


def test_build_single_sequence_table():
    t = make_table(make_runtime())
    _, debt = t.append_sequence(run(range(5), 1), level=3)
    assert t.n_sequences == 1
    assert debt > 0.0


def test_delete_releases_file_and_space():
    rt = make_runtime(cache_bytes=100 * BLOCK)
    t = make_table(rt)
    t.append_sequence(run(range(10), 1), level=1)
    assert rt.space_used_bytes() > 0
    t.delete()
    assert rt.space_used_bytes() == 0
    assert rt.cache.resident_blocks(t.file_id) == 0
    t.delete()  # idempotent
    with pytest.raises(InvariantViolation):
        t.append_sequence(run([1], 2), level=1)


def test_compaction_read_debt_discounts_residency():
    rt = make_runtime(cache_bytes=0)
    t = make_table(rt)
    t.append_sequence(run(range(20), 1), level=1)
    cold = t.compaction_read_debt()
    assert cold > 0.0

    rt2 = make_runtime(cache_bytes=1000 * BLOCK)
    t2 = make_table(rt2)
    t2.append_sequence(run(range(20), 1), level=1)
    hot = t2.compaction_read_debt()  # blocks cached by the write
    assert hot == 0.0
