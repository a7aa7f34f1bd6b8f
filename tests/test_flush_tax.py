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
from repro.filters.bloom import BloomFilter
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
    # What may still scale is page-cache admission: one popitem per block
    # it evicts.  Everything else is a constant.
    block_size = SSD_100G.storage_options().block_size
    new_blocks = -(-n * RECORD_BYTES // block_size)
    assert many - few <= new_blocks + 8, (few, many)


@pytest.mark.parametrize("config, ceiling", [("I-1t", 639), ("L", 140)],
                         ids=["I-1t-1089", "L-206"])
def test_a_flush_costs_no_more_calls_than_before_the_shared_skeleton(config, ceiling):
    # Parent commit (987e509): 1,089 calls on I-1t (13 appends), 205 on L.
    # The engines' flush is call-neutral on L (`_new_table` stands where
    # `MSTable.build` stood) and 11 calls cheaper on I-1t (no `_ingest`
    # override, no `_after_append` hook); L's one extra call is
    # `IamDB.take_checkpoint`, the checkpoint dict's single owner.  Since
    # then the I-1t flush builds its 13 filters in one pass and checkpoints
    # without a call per table: 704 / 143 calls; now 626 / 137, six fewer
    # per table append (test_one_table_append_stays_in_budget).  Ceilings
    # +2% (the ids keep 1089 / 206).
    base = [permute64(10_000 + i) for i in range(50)]
    calls, shape = _flush_calls(config, base)
    assert shape["flushes"] == 1
    assert calls <= ceiling, calls


def test_one_table_append_stays_in_budget():
    # Parent commit: a background write run was 10 calls (11 sizing its own
    # cache blocks): Runtime.bg_write_run over SimFile.grow,
    # add_level_write, bg_count -> _count, insert_range -> insert_many and
    # io_time.  Now the disk's one bg_append grows, counts and costs it,
    # and the cache is entered through insert_many: 5.  A whole append
    # outside a job (sequence layout and filter build included): 53 -> 47.
    db = make_db("I-1t", SSD_100G)
    runtime = db.runtime
    file = runtime.create_file()
    nbytes = 64 * runtime.options.block_size
    assert _calls(lambda: runtime.bg_write_run(file, nbytes, level=2)) - 1 <= 5
    assert file.nbytes == runtime.disk.bytes_written == nbytes
    assert runtime.metrics.level_write_bytes[2] == nbytes
    assert runtime.cache.resident_blocks(file.file_id) == 64
    table = db.engine._new_table()
    run = Run.from_records([(key, 1, PUT, 256) for key in range(0, 4000, 7)])
    assert _calls(lambda: table.append_sequence(run, level=1)) - 1 <= 47


def test_evicting_admission_is_a_handful_of_calls_per_block():
    # Once 11 per block (a method call, three len() and _dec for every
    # admission), then popitem + discard + add; now popitem alone -- the
    # per-file resident counts settle once per batch.
    cache = PageCache(128 * 1024, 1024)
    cache.insert_many(1, range(128))
    assert len(cache) == cache.max_blocks
    assert _calls(lambda: cache.insert_many(2, range(64))) <= 64 + 8
    assert cache.evictions == 64 and cache.resident_blocks(2) == 64
    assert cache.resident_blocks(1) == 64


def test_invalidating_a_file_costs_the_same_at_four_times_the_blocks():
    # Parent commit: a dict pop and a set discard per resident block.
    def invalidate_calls(n):
        cache = PageCache(4 * n * 1024, 1024)
        cache.insert_many(1, range(n))
        cache.insert_many(2, range(n))
        calls = _calls(lambda: cache.invalidate_file(1))
        assert len(cache) == cache.resident_blocks(2) == n
        assert cache.resident_blocks(1) == 0
        return calls
    few, many = invalidate_calls(64), invalidate_calls(256)
    assert few == many, (few, many)


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


def test_a_flush_job_builds_all_its_filters_in_one_call(monkeypatch):
    # Parent commit: one BloomFilter.build per sequence the job wrote.
    db = make_db("I-1t", SSD_100G)
    hash_load(db, 3000)
    db.quiesce()
    for i in range(50):
        db.put(permute64(10_000 + i), 256)
    builds, build = [], BloomFilter.build
    monkeypatch.setattr(BloomFilter, "build",
                        staticmethod(lambda *args: builds.append(args) or build(*args)))
    appends, jobs = db.engine.appends, db.runtime.pool.completed_jobs
    db.flush()
    assert db.runtime.pool.completed_jobs == jobs + 1  # the flush job alone
    assert len(builds) == 1 and len(builds[0][0]) == db.engine.appends - appends >= 5


def test_a_checkpoint_costs_the_same_at_four_times_the_leaves():
    # Parent commit: a snapshot() call per table; now a checkpoint reads the
    # snapshot each table keeps current.
    dbs = [make_db("I-1t", SSD_100G) for _ in range(2)]
    for db, n in zip(dbs, (8000, 16000)):
        hash_load(db, n)
        db.quiesce()
    few, many = [_calls(lambda: db.take_checkpoint(db._seq)) for db in dbs]
    leaves = [len(db.engine.levels[-1]) for db in dbs]
    assert dbs[0].engine.n == dbs[1].engine.n and leaves[1] >= 4 * leaves[0], leaves
    assert few == many, (few, many)
