"""What a flush costs the host must not grow with the records it carries.

A rotated memtable travels to disk as one columnar run
(:mod:`repro.table.run`): rotation, partition, merge, split, sequence build
and filter build are array kernels, so the Python-level work of a flush is
set by the *shape* of the tree it lands in -- children touched, sequences
built -- not by the record count.  The budgets below count function calls
(Python and builtin, under ``sys.setprofile``, so the figures repeat to the
digit), like ``tests/test_write_tax.py`` does for the per-put spine.
"""

import random

import pytest

from repro.bench.scale import RECORD_BYTES, SSD_100G, make_db
from repro.common.records import DELETE, PUT, sort_key
from repro.storage.pagecache import PageCache
from repro.table.merge import merge_runs
from repro.table.run import Run
from repro.workloads import hash_load, permute64
from tests.test_write_tax import _calls


def _flush_calls(config, keys):
    """Calls spent rotating + flushing ``keys`` into a fixed preloaded tree,
    plus what the flush did to the structure."""
    db = make_db(config, SSD_100G)
    hash_load(db, 3000)
    db.quiesce()
    before = db.engine.describe()
    for key in keys:
        db.put(key, 256)
    assert db.immutable is None and len(db.memtable) == len(keys)
    calls = _calls(db.flush)
    after = db.engine.describe()
    shape = {name: after[name] - before[name] for name in after
             if type(after[name]) is int}
    return calls, shape


@pytest.mark.parametrize("config", ["I-1t", "L"])
def test_twice_the_records_cost_the_same_flush(config):
    # Parent commit: 298 more calls for 50 more records on I-1t (six per
    # record: run construction, partition, prefix sums, key lists), 201 on L.
    n = 50
    base = [permute64(10_000 + i) for i in range(n)]
    neighbours = [key + 1 for key in base]  # land in the same children
    few, shape_few = _flush_calls(config, base)
    many, shape_many = _flush_calls(config, base + neighbours)
    assert shape_few == shape_many and shape_few["flushes"] == 1
    # What still scales is page-cache admission: one set.add per new data
    # block.  Everything else is a constant.
    block_size = SSD_100G.storage_options().block_size
    new_blocks = -(-n * RECORD_BYTES // block_size)
    assert many - few <= new_blocks + 8, (few, many)


@pytest.mark.parametrize("config, ceiling", [("I-1t", 1089), ("L", 206)])
def test_a_flush_costs_no_more_calls_than_before_the_shared_skeleton(config, ceiling):
    # Parent commit (987e509): 1,089 calls on I-1t (13 appends), 205 on L.
    # The engines' flush is call-neutral on L (`_new_table` stands where
    # `MSTable.build` stood) and 11 calls cheaper on I-1t (no `_ingest`
    # override, no `_after_append` hook); L's one extra call is
    # `IamDB.take_checkpoint`, the checkpoint dict's single owner.
    base = [permute64(10_000 + i) for i in range(50)]
    calls, shape = _flush_calls(config, base)
    assert shape["flushes"] == 1
    assert calls <= ceiling, calls


def test_evicting_admission_is_a_handful_of_calls_per_block():
    # Parent commit: 11 per block (a method call, three len() and _dec for
    # every admission); now popitem + discard + add.
    cache = PageCache(128 * 1024, 1024)
    cache.insert_range(1, 0, 128)
    assert len(cache) == cache.max_blocks
    assert _calls(lambda: cache.insert_many(2, range(64))) <= 6 * 64
    assert cache.evictions == 64 and cache.resident_blocks(2) == 64


@pytest.mark.parametrize("drop_tombstones", [False, True])
def test_a_snapshot_merge_costs_the_same_at_four_times_the_records(drop_tombstones):
    # Parent commit: live snapshots took a per-record tuple loop (a heap
    # merge over three runs), so its calls grew with every record.
    def merge_calls(n):
        rng = random.Random(3)
        recs = [(rng.randrange(n // 2), seq, DELETE if rng.random() < 0.1 else PUT, 256)
                for seq in range(1, n + 1)]
        runs = [Run.from_records(sorted(recs[i::3], key=sort_key)) for i in range(3)]
        return _calls(lambda: merge_runs(runs, drop_tombstones=drop_tombstones,
                                         snapshots=[n // 3, n // 2]))
    few, many = merge_calls(300), merge_calls(1200)
    assert few == many, (few, many)
