"""Reads pay for what they touch, not for how wide a level is.

The paper's range-query cost is levels x sequences-per-node (§5.2/§5.3.2):
a scan seeks once per sorted sequence in the covering node of each level,
whatever the number of nodes beside it.  The host-side walk must have the
same shape, so this guard widens the leaf level fourfold -- leaving the low
end of the key space untouched -- and counts Python calls (``cProfile``, so
the figure repeats to the digit) for one limit-bounded open-ended scan and
one point read at that low end.

Inside a node likewise: a sequence whose range or Bloom filter rejects the
key costs a point read no Python call, and one get derives one hash pair.
"""

import cProfile
import gc
import random

import pytest

from repro.common.options import StorageOptions
from repro.common.records import make_put
from repro.filters.bloom import hash_pair
from repro.lsm.flsm import _Guard
from repro.storage.runtime import Runtime
from repro.table.run import Run
from tests.conftest import make_tiny_db
from tests.test_lsmtrie import make_trie_db


def _store(widen, engine="iam"):
    """A quiesced IAM (or FLSM) store; ``widen`` grafts three more leaf
    levels' worth of nodes (guards) beyond its largest key, so the leaf
    level holds N vs 4N of them over an identical low end."""
    db = make_tiny_db(engine)
    rng = random.Random(23)
    for _ in range(1500):
        db.put(rng.randrange(1 << 20), 40)
    db.quiesce()
    eng = db.engine
    depth = eng._deepest_level() if engine == "flsm" else eng.n
    leaf = eng.guards[depth] if engine == "flsm" else eng.levels[depth]
    n_leaf = len(leaf)
    if widen:
        seq = db._seq
        base = 1 << 21
        for j in range(3 * n_leaf):
            run = Run.from_records([make_put(base + 100 * j + i, seq + 8 * j + i + 1, 40)
                                    for i in range(8)])
            if engine != "flsm":
                eng._create_node_from_run(depth, run)
                continue
            guard = _Guard(base + 100 * j)
            guard.tables.append(eng._new_table())
            guard.tables[0].append_sequence(run, level=depth)
            leaf.append(guard)
            eng._cuts[depth].append(guard.lo)
            eng.level_bytes[depth] += guard.nbytes
        assert len(leaf) == 4 * n_leaf
    db.check_invariants()
    return db, n_leaf


def _calls(fn, name=None):
    """Calls ``fn()`` makes (only to functions called ``name``, if given)."""
    fn()  # warm the page cache
    profiler = cProfile.Profile()
    gc.disable()  # hypothesis hooks gc.callbacks: a collection would be counted
    try:
        profiler.enable()
        fn()
        profiler.disable()
    finally:
        gc.enable()
    return sum(entry.callcount for entry in profiler.getstats()
               if name is None or getattr(entry.code, "co_name", None) == name)


def test_calls_per_read_do_not_grow_with_level_width():
    narrow, n_leaf = _store(widen=False)
    wide, _ = _store(widen=True)
    assert n_leaf >= 20
    key = narrow.engine.levels[narrow.engine.n][0].table.min_key
    assert narrow.scan(0, None, limit=10) == wide.scan(0, None, limit=10)
    assert narrow.get(key) == wide.get(key) == 40
    for read in (lambda db: db.scan(0, None, limit=10),
                 lambda db: db.get(key)):
        few = _calls(lambda: read(narrow))
        many = _calls(lambda: read(wide))
        assert abs(many - few) < 0.10 * few, (few, many)


# The case ids keep the ceilings they were first given (450 / 580).
@pytest.mark.parametrize("limit,ceiling", [(10, 113), (100, 150)],
                         ids=["10-450", "100-580"])
def test_calls_per_scan_budget(limit, ceiling):
    # The planner walks the deepest level first and stops each shallower
    # chain at the cut key, visits each sequence component once before the
    # sort, keeps a table's components as one index range and derives its
    # charges in Python ints; the level walk costs no call per table, the
    # memtable slice is a span of its cached run, the merge order is one
    # stable sort of the key column gathered newest first, the charges go
    # to the runtime as one request, which is one cache pass, the counters
    # settle inline and an idle pool is not pumped; rows of one shared size
    # are zipped with it and a tombstone-free plan gathers no kinds (111 /
    # 148 calls here; 122 / 159 with a kinds and a sizes gather, the
    # reverses and a streams frame; 125 / 162 with a settling call and a
    # Runtime.pump frame; 155 / 192 sorting by (key, ~seq) with a lexsort or a
    # composite key, 161 / 198 with an isinstance per stream, 206 / 249
    # walking top level first with a touch and an admit call per run,
    # 278 / 344 with an index list per table and listed misses, 296 / 374
    # with a request per read-ahead run, 361 / 466 with generator walks and
    # per-block residency sets, 649 / 841 with the three-pass planner).
    db, _ = _store(widen=False)
    assert len(db.scan(0, None, limit=limit)) == limit
    assert _calls(lambda: db.scan(0, None, limit=limit)) <= ceiling


def test_flsm_scan_calls_do_not_grow_with_guard_count():
    # An FLSM level is a chain of guards, walked lazily from the one
    # holding lo: four times the leaf guards leave a low-end scan's calls.
    narrow, n_leaf = _store(widen=False, engine="flsm")
    wide, _ = _store(widen=True, engine="flsm")
    assert n_leaf >= 20
    assert narrow.scan(0, None, limit=10) == wide.scan(0, None, limit=10)
    few = _calls(lambda: narrow.scan(0, None, limit=10))
    many = _calls(lambda: wide.scan(0, None, limit=10))
    assert abs(many - few) < 0.10 * few, (few, many)


# The case ids keep the ceilings they were first given (212 / 304).
@pytest.mark.parametrize("limit,ceiling", [(10, 164), (100, 252)],
                         ids=["10-212", "100-304"])
def test_flsm_calls_per_scan_budget(limit, ceiling):
    # FLSM's guards are planned as chain elements, each a tuple of its
    # fragments (162 / 250 calls here; 173 / 261 gathering the sizes and
    # kinds; 176 / 264 with a settling call and
    # a Runtime.pump frame; 202 / 290 sorting by (key, ~seq),
    # 236 / 1,085 when the planner declined them to the heap merge).
    db, _ = _store(widen=False, engine="flsm")
    assert len(db.scan(0, None, limit=limit)) == limit
    assert _calls(lambda: db.scan(0, None, limit=limit)) <= ceiling


def test_a_planned_scan_is_one_read_request():
    # Every read-ahead run of a planned scan -- several here -- reaches the
    # runtime in one fg_read_blocks call, and the cache in one pass, whose
    # runs with misses each make one fetch (fg_io) and no other entry.
    db, _ = _store(widen=False)
    cache = db.runtime.cache

    def scan():
        return db.scan(0, None, limit=100)

    def cold_scan():
        for f in list(cache._per_file):
            cache.invalidate_file(f)
        return scan()
    assert _calls(scan, "planned_scan") == 1
    assert _calls(scan, "fg_read_blocks") == 1
    assert _calls(scan, "read_request") == 1  # warm: every run hits
    assert _calls(cold_scan, "fg_io") > 4
    assert _calls(cold_scan, "read_request") == 1


@pytest.mark.parametrize("k", [5, 20])
def test_an_all_hit_request_settles_its_counters_once(k):
    # The query counters settle inline, once per request, however many runs
    # it has, and hit-only runs cost the cache pass no resume: past one LRU
    # move per block, a request is the caller's, the runtime's and the cache
    # pass's frames (3k + 5 with a settling call).
    rt = Runtime(StorageOptions(page_cache_bytes=1 << 20, block_size=256))
    m = rt.metrics
    reads = [(f, range(2 * f, 2 * f + 3)) for f in range(k)]
    for f, blocks in reads:
        rt.cache.insert_many(f, blocks)
    assert rt.fg_read_blocks(reads) == 0.0
    assert (m.query_seeks, m.cache_hits, m.cache_misses) == (0, 3 * k, 0)
    assert _calls(lambda: rt.fg_read_blocks(reads)) <= 3 * k + 4
    assert _calls(lambda: rt.fg_read_blocks(reads), "read_request") == 1
    assert (m.query_seeks, m.cache_hits, m.cache_misses) == (0, 5 * 3 * k, 0)


def test_a_scan_stops_shallow_levels_at_the_cut():
    # The deepest level fixes the cut key before the shallower levels are
    # walked, and a chain's walk ends at its first table wholly past the
    # cut: tables grafted beyond it onto the top level (as _store(widen=True)
    # grafts leaf nodes) cost a limit-100 scan no call, one or four of them.
    def scan_calls(n_tables):
        db, _ = _store(widen=False)
        seq = db._seq
        for j in range(n_tables):
            run = [make_put((1 << 21) + 100 * j + i, seq + 8 * j + i + 1, 40)
                   for i in range(8)]
            db.engine._create_node_from_run(1, Run.from_records(run))
        db.check_invariants()
        return (db.scan(0, None, limit=100),
                _calls(lambda: db.scan(0, None, limit=100)))
    (rows, few), (rows4, many) = scan_calls(1), scan_calls(4)
    assert rows == rows4 and len(rows) == 100
    assert few == many, (few, many)


def test_a_scan_pays_no_call_per_memtable_record():
    # The memtable's stream is a span of its sorted run, built once until
    # the next write: a limit-100 scan makes the same calls over N and over
    # 4N in-range memtable records.
    def scan_calls(n):
        db = make_tiny_db("iam", node_capacity=1 << 16)
        for key in random.Random(5).sample(range(1 << 20), n):
            db.put(key, 40)
        assert len(db.memtable) == n and db.immutable is None
        assert len(db.scan(0, None, limit=100)) == 100
        return _calls(lambda: db.scan(0, None, limit=100))
    few, many = scan_calls(200), scan_calls(800)
    assert few == many, (few, many)


def test_multi_get_costs_the_get_loop_plus_a_constant():
    # multi_get *is* the get loop; a batch path must beat the loop to get in.
    db, _ = _store(widen=False)
    rng = random.Random(5)
    keys = [rng.randrange(1 << 20) for _ in range(64)]

    def extra(batch):
        return (_calls(lambda: db.multi_get(batch))
                - _calls(lambda: [db.get(k) for k in batch]))
    assert extra(keys) == extra(keys[:4]) <= 4


def test_multi_get_checks_a_snapshot_once_per_batch():
    # A snapshot is checked once per batch, not once per key: past the
    # batch's constant, a key read at a snapshot costs what a newest read
    # costs.
    db, _ = _store(widen=False)
    rng = random.Random(5)
    keys = [rng.randrange(1 << 20) for _ in range(20)]
    snapshot = db.snapshot()

    def per_key(**kw):
        return (_calls(lambda: db.multi_get(keys, **kw))
                - _calls(lambda: db.multi_get(keys[:4], **kw)))
    assert per_key(snapshot=snapshot) == per_key()
    assert db.multi_get(keys, snapshot) == db.multi_get(keys)


def test_rejected_sequences_add_no_calls_to_a_point_read():
    db, _ = _store(widen=False)
    table = db.engine.levels[db.engine.n][0].table
    below, key, above = sorted(table.sequences[0].key_view)[1:4]
    m = db.metrics

    def probed_get():
        before = m.bloom_probes, m.bloom_negatives
        assert db.get(key) == 40
        return m.bloom_probes - before[0], m.bloom_negatives - before[1]
    probes, negatives = probed_get()
    hit = _calls(lambda: db.get(key))
    # 20: one fence bisect and one table probe per level walked, one data
    # bisect (24 when the hit bisected twice more and settled the counters
    # with a call)
    assert hit <= 22
    # Four newer sequences in the key's own leaf node: two whose range lies
    # past the key, two that straddle it without holding it.
    for keys in [(above,), (above, above + 1), (below, above), (below, above + 1)]:
        table.append_sequence(Run.from_records(
            [make_put(k, db._seq + 1, 41) for k in keys]), level=db.engine.n)
    assert probed_get() == (probes + 2, negatives + 2)
    assert _calls(lambda: db.get(key)) == hit


def test_an_absent_key_pays_one_fence_bisect_per_level():
    # A key past every node's range: each level costs its bisect and
    # nothing else (11 calls on this 4-level store; 12 when a memtable miss
    # was a dict.get call, 21 with a node-finding call, the empty-node
    # property and the Bloom hash's two mix calls).
    db, _ = _store(widen=False)
    assert db.engine.n == 4 and db.get(1 << 40) is None
    assert _calls(lambda: db.get(1 << 40)) <= 11


_OPS = {"get": lambda db, key: db.get(key) == 40,
        "scan": lambda db, key: db.scan(key, None, limit=3)[0] == (key, 40),
        "batch": lambda db, key: db.write_batch().put(key, 41).commit() is None}


@pytest.mark.parametrize("op", sorted(_OPS))
def test_a_get_pumps_a_busy_pool_only(monkeypatch, op):
    # As a write does: a get, a scan or a write batch on an idle pool with
    # no sampler makes no pump call, and one on a pool a wake left
    # unsettled pumps it once (the pool's own pump: without a sampler there
    # is no Runtime.pump frame).
    db, _ = _store(widen=False)
    key = db.engine.levels[db.engine.n][0].table.min_key
    runtime, pumps = db.runtime, []
    pump = runtime.pool.pump
    monkeypatch.setattr(runtime.pool, "pump", lambda: pumps.append(runtime.pool.idle) or pump())
    monkeypatch.setattr(runtime, "pump", lambda: pumps.append("Runtime.pump"))
    assert runtime.pool.idle and runtime.sampler is None
    assert _OPS[op](db, key) and pumps == []
    runtime.pool.wake()
    assert _OPS[op](db, key) and pumps == [False]


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb", "flsm", "lsmtrie"])
def test_one_bloom_hash_per_get(engine):
    db = make_trie_db() if engine == "lsmtrie" else make_tiny_db(engine)
    keys = random.Random(23).sample(range(1 << 20), 1500)
    for key in keys:
        db.put(key, 40)
    db.quiesce()
    probes = db.metrics.bloom_probes
    profiler = cProfile.Profile()
    profiler.enable()
    assert [db.get(key) for key in keys[:50]] == [40] * 50
    profiler.disable()
    assert db.metrics.bloom_probes - probes > 50  # some get probed twice
    assert [entry.callcount for entry in profiler.getstats()
            if entry.code is hash_pair.__code__] == [50]
