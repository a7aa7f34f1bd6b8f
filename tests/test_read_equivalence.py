"""Read paths vs their references: state-identical.

The planned scan assembler in :mod:`repro.table.scanplan` must be
*indistinguishable* from the seed scalar walk in
:mod:`repro.bench.reference` at every observable level: returned rows, the
simulated clock, Bloom counters, and the page-cache trajectory (insertions,
evictions, LRU order).  ``multi_get`` has no second implementation to
compare: its contract -- validate every key, then the ``get`` loop -- is
held on twin stores, bare and clustered, and its edges (duplicate keys,
snapshot boundaries, tombstones, mid-flush rotation, empty stores) are
pinned as literal expectations.  ``MSTable.get``, the one point-read kernel
under every engine, is one fused loop over the table's probe rows; the
newest-first loop of ``Sequence.get`` it replaced is its reference.

Two contracts sit beside the equivalences.  *One tier*: the planner plans
every scan, FLSM's guards included, and no scan reaches the heap merge; a
key outside uint64 or an int snapshot never gets that far -- the write or
the read refuses it.  *Seeks*: a scan from any ``k`` is the reference scan
from ``k``.
"""

import random
from functools import partial
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.reference import reference_scan
from repro.cluster import ClusterDB, ClusterOptions, NetworkOptions
from repro.common.errors import ConfigError
from repro.common.records import make_delete, make_put, sort_key
from repro.db import iterator
from repro.db.snapshot import Snapshot
from repro.filters.bloom import hash_pair
from repro.storage.runtime import Runtime
from repro.table.mstable import MSTable
from repro.table.run import Run
from repro.table.scan import list_stream, merge_scan
from tests.conftest import (make_tiny_db, member_dbs, tiny_iam_options,
                            tiny_storage_options)

#: A fixed, spread-out key pool (arbitrary points in the 64-bit key space).
KEY_POOL = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(24)]

#: A compact pool (small ints), like the keys db_bench's ``fillseq`` writes.
SMALL_POOL = list(range(24))

ENGINES = ("iam", "lsa", "leveldb")


def _at(db, seq):
    """A handle ``db`` pins at sequence ``seq`` (``None``: the newest).  Twins
    hold one history, so the read paths compared here see the same versions
    whether or not a merge kept older ones; pinning a past seq only keeps
    later merges from dropping what it reads."""
    if seq is None:
        return None
    db._snapshots[seq] = db._snapshots.get(seq, 0) + 1
    return Snapshot(db._snapshots, seq)


def _observable_state(db):
    """Everything a read is allowed to change, frozen for comparison."""
    m = db.metrics
    pc = db.runtime.cache
    return (
        db.runtime.clock.now,
        m.bloom_probes,
        m.bloom_negatives,
        m.cache_hits,
        m.cache_misses,
        m.query_seeks,
        pc.insertions,
        pc.evictions,
        list(pc._lru.keys()),
    )


def _twin_dbs(engine, ops, pool):
    """Two identically-built DBs after the same randomized workload."""
    dbs = (make_tiny_db(engine), make_tiny_db(engine))
    for op, key_i, size in ops:
        key = pool[key_i % len(pool)]
        for db in dbs:
            if op == "delete":
                db.delete(key)
            else:
                db.put(key, size)
    return dbs


workload = st.lists(
    st.tuples(st.sampled_from(["put", "put", "put", "delete"]),
              st.integers(0, 23),
              st.integers(1, 200)),
    max_size=120)


def _full_state(store):
    """``_observable_state`` of every DB behind ``store`` (itself, or each
    replica of a cluster) plus latency sample counts per class and pool
    state; for a cluster also its clock, op count and network counters."""
    def samples(m):
        return ({op: r.count for op, r in m.latency.items()},
                {op: h.count for op, h in m.op_hist.items()})
    state = [(_observable_state(db), samples(db.metrics), db.immutable is None,
              db.runtime.pool.completed_jobs, len(db.runtime.pool.queue),
              [(j.name, j.debt_s) for j in db.runtime.pool.active])
             for db in member_dbs(store)]
    if isinstance(store, ClusterDB):
        state.append((store.clock.now, store._ops, samples(store.metrics),
                      store.network.snapshot(),
                      [s.reads for s in store.router.shards]))
    return state


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES + ("flsm", "cluster")), ops=workload,
       quiesce=st.booleans(),
       batch=st.lists(st.integers(0, 23), min_size=1, max_size=40),
       snap_back=st.one_of(st.none(), st.integers(0, 60)),
       bad=st.sampled_from(["k", 1.0, True, None]))
def test_multi_get_is_validate_then_get_loop(engine, ops, quiesce, batch,
                                             snap_back, bad):
    # The whole contract of multi_get, bare and through a real 4x2 cluster:
    # a bad key anywhere refuses the batch and touches nothing; otherwise
    # it *is* the get loop -- rows, clock, cache, sample classes, pool and
    # network -- quiesced or (bare) with a memtable rotation in flight.
    cluster = engine == "cluster"
    small_cache = dict(page_cache_bytes=1024)  # misses move the clock
    if cluster:
        a, b = (ClusterDB(ClusterOptions(
            n_shards=4, n_replicas=2, engine_options=tiny_iam_options(),
            storage_options=tiny_storage_options(**small_cache)))
            for _ in range(2))
    else:
        a, b = (make_tiny_db(engine, storage_kw=small_cache) for _ in range(2))
    for store in (a, b):
        store.metrics.enable_histograms()
        for op, key_i, size in ops:
            if op == "delete":
                store.delete(KEY_POOL[key_i])
            else:
                store.put(KEY_POOL[key_i], size)
    if quiesce:
        a.quiesce()
        b.quiesce()
    elif not cluster:
        # Write a few keys on until a memtable rotation is in flight: reads
        # of the others go to disk, move the clock and let pumps retire it.
        i = 0
        while a.immutable is None:
            a.put(KEY_POOL[i % 6], 300 + i)
            b.put(KEY_POOL[i % 6], 300 + i)
            i += 1
    kw_a, kw_b = {}, {}
    if snap_back is not None and not cluster and a._seq > 0:
        seq = max(1, a._seq - snap_back)
        kw_a["snapshot"], kw_b["snapshot"] = _at(a, seq), _at(b, seq)
    keys = [KEY_POOL[i] for i in batch]
    with pytest.raises(ConfigError):
        a.multi_get(keys + [bad], **kw_a)
    assert _full_state(a) == _full_state(b)
    assert a.multi_get(keys, **kw_a) == [b.get(k, **kw_b) for k in keys]
    assert _full_state(a) == _full_state(b)
    a.close()
    b.close()


#: Ints the uint64 columns cannot hold: no store holds one as a key, but
#: each is a valid scan bound (a negative one replaces ``lo``, a wide one
#: ``hi``).
ODD_KEYS = (-1, -(2 ** 63), 2 ** 64, 2 ** 70)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES + ("flsm",)), ops=workload,
       small_keys=st.booleans(), quiesce=st.booleans(),
       odd=st.one_of(st.none(), st.sampled_from(ODD_KEYS)),
       lo_i=st.one_of(st.none(), st.integers(0, 23)),
       span=st.one_of(st.none(), st.integers(0, 23)),
       limit=st.one_of(st.none(), st.integers(1, 40)),
       snap_back=st.one_of(st.none(), st.integers(0, 60)))
def test_scan_matches_scalar_reference(engine, ops, small_keys, quiesce, odd,
                                       lo_i, span, limit, snap_back):
    pool = SMALL_POOL if small_keys else KEY_POOL
    db_ref, db_opt = _twin_dbs(engine, ops, pool)
    if quiesce:
        db_ref.quiesce()
        db_opt.quiesce()
    snapshot = None
    if snap_back is not None and db_ref._seq > 0:
        snapshot = max(1, db_ref._seq - snap_back)
    lo = None if lo_i is None else pool[lo_i]
    hi = None if span is None else (lo or 0) + sorted(pool[:24])[span] + 1
    if odd is not None and odd < 0:
        lo = odd
    elif odd is not None:
        hi = odd
    want = reference_scan(db_ref, lo, hi, limit=limit,
                          snapshot=_at(db_ref, snapshot))
    got = db_opt.scan(lo, hi, limit=limit, snapshot=_at(db_opt, snapshot))
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


#: The five engines that scan (LSM-trie declines scans).
SCAN_ENGINES = ("iam", "lsa", "leveldb", "rocksdb", "flsm")
HOT = KEY_POOL[:3]


def _components_holding(db, key):
    """How many of the scan's components hold a version of ``key``: each
    memtable, each sequence of a chain node (an L0 file's stream, a guard's
    fragment); walks the descriptions, charging nothing."""
    n = sum(key in mem.sorted_records().keys.tolist()
            for mem in (db.memtable, db.immutable) if mem is not None)
    for s in db.engine.scan_cursors(None, None):
        if hasattr(s, "run"):
            n += key in s.run.keys.tolist()
            continue
        for node in s.walk():
            for table in (node if isinstance(node, tuple) else (node,) if node else ()):
                n += sum(key in seq.key_view for seq in table.sequences)
    return n


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(SCAN_ENGINES),
       rounds=st.lists(st.tuples(st.integers(0, 60),
                                 st.sampled_from(["", "flush", "quiesce"])),
                       min_size=2, max_size=7),
       snap_round=st.one_of(st.none(), st.integers(0, 6)),
       limit=st.one_of(st.none(), st.integers(1, 30)))
def test_scan_takes_each_key_from_its_newest_component(engine, rounds,
                                                       snap_round, limit):
    # The planner gathers components newest first and sorts keys alone, so
    # a key's newest version must sit in its newest component.  Every round
    # rewrites the hot keys (a value no other write used), writes ``n``
    # cold keys and flushes, quiesces or neither, so the hot keys keep a
    # version in each level, L0 file and guard fragment the rounds leave;
    # the last writes leave one in the immutable memtable and one in the
    # memtable.  A live snapshot (taken at ``snap_round``) makes merges keep
    # older versions; scans read both at it and at the newest.
    dbs = (make_tiny_db(engine), make_tiny_db(engine))
    snaps = [None, None]
    value = cold = 0
    for r, (n, step) in enumerate(rounds):
        for i, db in enumerate(dbs):
            if r == snap_round:
                snaps[i] = db.snapshot()
            for k, h in enumerate(HOT):
                db.put(h, value + 1 + k)
            for c in range(cold, cold + n):
                db.put(KEY_POOL[3 + c % 21] ^ (c << 40), 40)
            if step:
                getattr(db, step)()
        value += 10
        cold += n
    db_ref, db_opt = dbs
    for db in dbs:
        db.flush()
    while db_ref.immutable is None or db_ref.memtable.get(HOT[0]) is None:
        cold += 1  # until a rotation is in flight and a rewrite follows it
        for db in dbs:
            db.put(KEY_POOL[3 + cold % 21] ^ (cold << 40), 40)
            db.put(HOT[0], value + cold)
    assert _components_holding(db_ref, HOT[0]) >= 3
    views = [(None, None)] + ([tuple(snaps)] if snaps[0] else [])
    for (snap_ref, snap_opt), (lo, lim) in product(views, ((None, None),
                                                           (min(HOT), limit))):
        want = reference_scan(db_ref, lo, None, limit=lim, snapshot=snap_ref)
        assert db_opt.scan(lo, None, limit=lim, snapshot=snap_opt) == want
        assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


@pytest.mark.parametrize("engine", ["iam", "leveldb", "flsm"])
@pytest.mark.parametrize("case", ["sizes", "bytes", "tombstones"])
def test_scan_of_components_that_disagree_is_the_generator_tier(engine, case):
    # Every component is uniform in itself, but they do not share one
    # value size, or one holds real bytes, or tombstones: the planner's
    # shared-size output and its kinds skip must step aside.  Rows, clock,
    # Bloom and cache counters and the LRU equal the generator tier's.
    dbs = [make_tiny_db(engine, storage_kw=dict(page_cache_bytes=2048))
           for _ in range(2)]
    newer = {"sizes": 64, "bytes": b"x" * 40, "tombstones": None}[case]
    for db in dbs:
        for i in range(200):
            db.put(KEY_POOL[i % 24] ^ (i << 40), 40)
        db.flush()
        db.quiesce()
        for k, key in enumerate(KEY_POOL[:12]):
            if newer is None:
                db.delete(key ^ (k << 40))
            else:
                db.put(key ^ (k << 40), newer)
            if k == 5:  # half of them in a flushed component
                db.flush()
                db.quiesce()
    db_ref, db_opt = dbs
    for lo, limit in ((None, None), (None, 30), (KEY_POOL[3], 40)):
        # The generator tier over the streams a scan plans.
        want = merge_scan([list_stream(mem.sorted_records(), lo, None) for mem in
                           (db_ref.memtable, db_ref.immutable) if mem is not None]
                          + db_ref.engine.scan_cursors(lo, None), limit=limit)
        assert db_opt.scan(lo, None, limit=limit) == want
        assert _observable_state(db_opt) == _observable_state(db_ref)
    values = {value for _, value in db_opt.scan()}
    assert values == ({40} if newer is None else {40, newer})
    assert len(db_opt.scan()) == 200 - 12 * (newer is None)
    for db in dbs:
        db.close()


# ------------------------------------------------------------- pinned edges
def _loaded(n=60):
    db = make_tiny_db("iam")
    for i in range(n):
        db.put(KEY_POOL[i % len(KEY_POOL)], 100 + i)
    return db


def test_multi_get_duplicate_keys_in_batch():
    # The same key several times in one batch: one answer per request slot.
    db = _loaded()
    db.quiesce()
    k = KEY_POOL[3]
    assert db.multi_get([k, k, KEY_POOL[5], k, k]) == [151, 151, 153, 151, 151]
    db.close()


def test_multi_get_snapshot_boundary():
    # Exactly at the snapshot seq the version is visible; one below the
    # write it is not.
    db = make_tiny_db("iam")
    k = KEY_POOL[0]
    before = db.snapshot()
    db.put(k, 111)
    at_v1 = db.snapshot()
    db.put(k, 222)
    db.quiesce()
    assert db.multi_get([k, k], at_v1) == [111, 111]
    assert db.multi_get([k, k], before) == [None, None]
    assert db.multi_get([k, k]) == [222, 222]
    db.close()


def test_multi_get_tombstoned_keys():
    db = _loaded()
    db.delete(KEY_POOL[2])
    db.delete(KEY_POOL[7])
    db.quiesce()
    assert db.multi_get([KEY_POOL[2], KEY_POOL[4], KEY_POOL[7], KEY_POOL[9]]) \
        == [None, 152, None, 157]
    db.close()


def test_multi_get_mid_flush_rotation():
    # Keep writing until a memtable rotation is in flight, then read through
    # all three tiers: active memtable, immutable, and on-disk sequences.
    db = _loaded()
    db.quiesce()
    model = {KEY_POOL[i % 24]: 100 + i for i in range(60)}
    i = 0
    while db.immutable is None and i < 4000:
        db.put(KEY_POOL[i % 24], 300 + i)
        model[KEY_POOL[i % 24]] = 300 + i
        i += 1
    assert db.immutable is not None, "never caught a rotation in flight"
    assert db.multi_get(KEY_POOL) == [model[k] for k in KEY_POOL]
    db.close()


def test_multi_get_empty_db_and_empty_batch():
    db = make_tiny_db("iam")
    before = _observable_state(db)
    assert db.multi_get([]) == []
    assert _observable_state(db) == before
    assert db.multi_get(KEY_POOL[:6]) == [None] * 6
    db.close()


def test_scan_empty_db():
    db_ref, db_opt = make_tiny_db("leveldb"), make_tiny_db("leveldb")
    assert db_opt.scan(KEY_POOL[0], None, limit=5) == \
        reference_scan(db_ref, KEY_POOL[0], None, limit=5) == []
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


# ------------------------------------------------------------ trivial cluster
def _trivial_cluster_pair():
    cluster = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(),
        network=NetworkOptions.zero()))
    bare = make_tiny_db("iam")
    return cluster, bare


def test_scan_limit_zero_and_negative_bare_equals_trivial_cluster():
    # limit=0 asks for no rows -- [] with nothing read or charged, on a bare
    # DB exactly as through the router; a negative limit is a caller error
    # on both, raised before anything is touched.
    cluster, bare = _trivial_cluster_pair()
    for i, key in enumerate(KEY_POOL):
        cluster.put(key, 50 + i)
        bare.put(key, 50 + i)
    cluster.quiesce()
    bare.quiesce()
    before = _observable_state(bare)
    cluster_before = (cluster._ops, cluster.metrics.latency["scan"].count)
    assert cluster.scan(None, None, limit=0) == bare.scan(None, None, limit=0) == []
    assert cluster.scan(KEY_POOL[3], None, limit=0) == bare.scan(KEY_POOL[3], None, limit=0) == []
    for db in (cluster, bare):
        with pytest.raises(ConfigError):
            db.scan(None, None, limit=-1)
    assert _observable_state(bare) == before
    assert (cluster._ops, cluster.metrics.latency["scan"].count) == cluster_before
    assert cluster.clock.now == bare.runtime.clock.now
    assert cluster.scan(None, None, limit=1) == bare.scan(None, None, limit=1)
    assert len(bare.scan(None, None, limit=1)) == 1
    cluster.close()
    bare.close()


# ------------------------------------------------------------ lazy level chains
# A scan hands each level to the assembler as a lazy walk over the captured
# slice of its members (nodes / files), skipping empty nodes only as the
# consumer reaches them.  These inputs aim at the places a lazy walk can go
# wrong -- where it starts, what it skips, where it stops, and starting over.
WIDE_KEYS = [k * 1000 for k in range(700)]


def _wide_pair(engine, n=1800, seed=17):
    """Twin stores deep and wide enough that every level is a real chain."""
    dbs = (make_tiny_db(engine), make_tiny_db(engine))
    rng = random.Random(seed)
    for _ in range(n):
        key = rng.choice(WIDE_KEYS)
        kill = rng.random() < 0.1
        size = rng.randrange(10, 90)
        for db in dbs:
            if kill:
                db.delete(key)
            else:
                db.put(key, size)
    for db in dbs:
        db.quiesce()
    return dbs


def _assert_scan_matches(db_ref, db_opt, lo, hi, limit=None, snapshot=None):
    want = reference_scan(db_ref, lo, hi, limit=limit,
                          snapshot=_at(db_ref, snapshot))
    got = db_opt.scan(lo, hi, limit=limit, snapshot=_at(db_opt, snapshot))
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    return got


def _fences(db):
    """Per sorted level, the (lo, hi) fence of every member, in order."""
    eng = db.engine
    if hasattr(eng, "n"):  # LSA / IAM: node ranges
        return [[(nd.range_lo, nd.range_hi) for nd in eng.levels[i]]
                for i in range(1, eng.n + 1)]
    return [[(t.min_key, t.max_key) for t in lst]
            for lst in eng.levels[1:] if lst]


def _widest(db):
    return max(_fences(db), key=len)


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_scan_lo_in_gap_between_members(engine):
    db_ref, db_opt = _wide_pair(engine)
    level = _widest(db_ref)
    gaps = [(a[1], b[0]) for a, b in zip(level, level[1:]) if a[1] + 1 < b[0]]
    assert len(gaps) >= 3, "store shape changed: no fence gaps to aim at"
    for left_hi, right_lo in (gaps[0], gaps[len(gaps) // 2], gaps[-1]):
        lo = left_hi + 1
        for hi, limit in ((None, 7), (None, None), (right_lo + 5000, None)):
            _assert_scan_matches(db_ref, db_opt, lo, hi, limit)


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_scan_lo_past_last_member(engine):
    db_ref, db_opt = _wide_pair(engine)
    ends = sorted(level[-1][1] for level in _fences(db_ref))
    # Past the last member of some levels but not others, then of all.
    for lo in (ends[0] + 1, ends[-1], ends[-1] + 1):
        _assert_scan_matches(db_ref, db_opt, lo, None, 5)
        _assert_scan_matches(db_ref, db_opt, lo, None)
    assert db_opt.scan(ends[-1] + 1, None) == []


@pytest.mark.parametrize("engine", ["iam", "lsa"])
def test_scan_skips_empty_nodes_at_head_and_middle(engine):
    db_ref, db_opt = _wide_pair(engine)
    for db in (db_ref, db_opt):
        eng = db.engine
        for nodes in eng.levels[1:eng.n + 1]:
            # Empty the head, a run of two in the middle, and the tail.
            for idx in {0, len(nodes) // 2, len(nodes) // 2 + 1, len(nodes) - 1}:
                nodes[idx].drop_table()
    for lo, hi, limit in ((None, None, None), (None, None, 20), (0, None, 150),
                          (WIDE_KEYS[340], None, 40),
                          (WIDE_KEYS[300], WIDE_KEYS[420], None)):
        _assert_scan_matches(db_ref, db_opt, lo, hi, limit)


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_scan_hi_inside_first_member(engine):
    db_ref, db_opt = _wide_pair(engine)
    lo, last = _widest(db_ref)[0]
    for hi in (lo, lo + 1, (lo + last) // 2, last, last + 1):
        _assert_scan_matches(db_ref, db_opt, lo, hi)
        _assert_scan_matches(db_ref, db_opt, None, hi, 3)


def _truncation_widths(monkeypatch):
    """The truncation width of every planning attempt from here on."""
    from repro.table import scanplan
    widths, real = [], scanplan._attempt
    monkeypatch.setattr(scanplan, "_attempt",
                        lambda *args: widths.append(args[-1]) or real(*args))
    return widths


@pytest.mark.parametrize("engine", ["iam", "leveldb"])
def test_scan_retry_rewalks_chain_from_start(engine, monkeypatch):
    # A long tombstone run defeats the first, narrow plan (limit + 64 records
    # per sequence cannot prove the scan ends below the cut), so the planner
    # widens eightfold and walks every chain again from its head.
    db_ref, db_opt = _wide_pair(engine)
    for key in WIDE_KEYS[100:400]:
        for db in (db_ref, db_opt):
            db.delete(key)
    for db in (db_ref, db_opt):
        db.quiesce()
    attempts = _truncation_widths(monkeypatch)
    got = _assert_scan_matches(db_ref, db_opt, WIDE_KEYS[100], None, 2)
    assert len(got) == 2 and got[0][0] >= WIDE_KEYS[400]
    assert len(attempts) >= 2 and attempts[1] == 8 * attempts[0]


def test_scan_across_both_block_index_arms(monkeypatch):
    # A uniform-size sequence keeps its block index as a ``range`` (chunk =
    # i // step), a mixed-size one as a list (bisected): one level holding
    # both, bytes values included, under full, bounded and retried scans.
    dbs = (make_tiny_db("iam"), make_tiny_db("iam"))
    rng = random.Random(7)
    later = [(k, bytes(rng.randrange(1, 120))) for k in rng.choices(WIDE_KEYS, k=200)]
    for db in dbs:
        for key in WIDE_KEYS:
            db.put(key, 40)
        db.quiesce()
        for key, value in later:
            db.put(key, value)
        for key in WIDE_KEYS[100:400]:
            db.delete(key)
        db.quiesce()
    db_ref, db_opt = dbs
    eng = db_opt.engine
    arms = [{(type(s.block_start_idx) is range, s.run.vals is not None)
             for nd in eng.levels[li] if nd.table is not None
             for s in nd.table.sequences} for li in range(1, eng.n + 1)]
    assert any({(True, False), (False, True)} <= level for level in arms), arms
    attempts = _truncation_widths(monkeypatch)
    snapshot = db_ref._seq - 150
    for lo, hi, limit in ((None, None, None), (None, None, 7), (WIDE_KEYS[90], None, 30),
                          (WIDE_KEYS[100], None, 2), (WIDE_KEYS[50], WIDE_KEYS[500], None)):
        for snap in (None, snapshot):
            _assert_scan_matches(db_ref, db_opt, lo, hi, limit, snap)
    assert 8 * 96 in attempts  # the tombstone run defeated a narrow plan


# ---------------------------------------------------- keys outside uint64
# A key outside uint64 is declined by the write, a snapshot outside it by
# the read, before anything moves; what follows is planned like any scan.
@pytest.mark.parametrize("flushed", [False, True], ids=["memtable", "sequence"])
@pytest.mark.parametrize("odd,plain", [(-7, 7), (2 ** 64 + 7, 2 ** 64 - 7)],
                         ids=["negative", "wide"])
@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_key_outside_uint64_is_declined_then_merged(engine, odd, plain, flushed):
    # Twin WIDE_KEYS stores (tombstones included) both take the uint64 key
    # at the odd key's end of the key space; one of them is also offered
    # the odd key, which the write declines before anything moves.  Every
    # scan reaching toward it -- the odd key itself as the bound -- leaves
    # the twins indistinguishable, the memtable holding the plain key or it
    # flushed to a sequence.
    db_ref, db_opt = _wide_pair(engine, n=700)
    for db in (db_ref, db_opt):
        db.put(plain, 55)
    before = _observable_state(db_opt), db_opt._seq, len(db_opt.memtable)
    with pytest.raises(ConfigError, match="outside the key space"):
        db_opt.put(odd, 55)
    assert (_observable_state(db_opt), db_opt._seq, len(db_opt.memtable)) == before
    if flushed:
        for db in (db_ref, db_opt):
            db.quiesce()
    snapshot = db_ref._seq - 200  # the plain key is newer: invisible
    near = (odd, WIDE_KEYS[9]) if odd < 0 else (WIDE_KEYS[690], odd)
    rows = _assert_scan_matches(db_ref, db_opt, None, None)
    assert (plain, 55) in rows and len(rows) < 701  # tombstones elided
    _assert_scan_matches(db_ref, db_opt, *near, limit=7)
    assert (plain, 55) in _assert_scan_matches(db_ref, db_opt, *near)
    rows = _assert_scan_matches(db_ref, db_opt, None, None, snapshot=snapshot)
    assert (plain, 55) not in rows


def test_snapshot_outside_uint64_is_declined_then_merged():
    # Like a key outside uint64, an int snapshot -- in uint64 or not -- is
    # declined by the entry point (the scan, and the reference with it)
    # before anything is charged; views at the range's two ends are planned.
    db_ref, db_opt = _wide_pair("iam", n=300)
    for snapshot in (-1, 2 ** 64, 0, 2 ** 64 - 1):
        before = _observable_state(db_opt), _observable_state(db_ref)
        for scan in (db_opt.scan, partial(reference_scan, db_ref)):
            with pytest.raises(ConfigError, match="snapshot"):
                scan(None, None, limit=7, snapshot=snapshot)
        assert (_observable_state(db_opt), _observable_state(db_ref)) == before
    for snapshot in (0, 2 ** 64 - 1):
        _assert_scan_matches(db_ref, db_opt, None, None, 7, snapshot)


def test_wide_key_in_the_chain_tail_is_declined():
    # A limit-bounded plan reads one table past its record budget -- only
    # to place that table's first charges.  A run holding a key outside
    # uint64 is declined when it is built, so no table carries one; the top
    # uint64 key, in *that* table or one further on, is planned.
    per_table, budget, base, top = 32, 96, 1 << 30, 2 ** 64 - 1
    with pytest.raises(ConfigError, match="outside the key space"):
        Run.from_records([make_put(top + 1, 1, 40)])
    for n_tables in (budget // per_table + 1, budget // per_table + 2):
        db_ref, db_opt = make_tiny_db("iam"), make_tiny_db("iam")
        for db in (db_ref, db_opt):
            for i in range(300):
                db.put(i * 11, 40)
            db.quiesce()
            eng, seq = db.engine, db._seq
            for t in range(n_tables):
                keys = [base + 1000 * t + i for i in range(per_table)]
                if t == n_tables - 1:
                    keys[-1] = top
                run = [make_put(k, seq + per_table * t + i + 1, 40)
                       for i, k in enumerate(keys)]
                eng._create_node_from_run(eng.n, Run.from_records(run))
            db.check_invariants()
        _assert_scan_matches(db_ref, db_opt, base, None, limit=3)
        got = _assert_scan_matches(db_ref, db_opt, base, None)
        assert got[-1] == (top, 40)


@pytest.mark.parametrize("hi_at", ["first", "between", "second"])
def test_chain_tail_fill_skips_sequences_starting_past_hi(hi_at):
    # Three nodes of 32 tombstones spend a limit-3 plan's 96-record budget,
    # so the fourth node is dropped; the memtable's rows sort after the
    # tombstones, so the chain still advances into it.  Its fill charges a
    # first chunk for each sequence whose first key is <= hi_key: hi_key
    # sits at the first sequence's first key, between the two, or at the
    # second's.
    base = 1 << 30
    first, second = base + 5000, base + 5010
    hi = {"first": first, "between": first + 5, "second": second}[hi_at]
    db_ref, db_opt = make_tiny_db("iam"), make_tiny_db("iam")
    for db in (db_ref, db_opt):
        for i in range(300):
            db.put(i * 11, 40)
        db.quiesce()
        for i in range(5):
            db.put(base + 3500 + i, 40)
        eng, seq = db.engine, db._seq
        for t in range(3):
            eng._create_node_from_run(eng.n, Run.from_records(
                [make_delete(base + 1000 * t + i, seq + 32 * t + i + 1)
                 for i in range(32)]))
        seq += 96
        eng._create_node_from_run(eng.n, Run.from_records(
            [make_put(first + 2 * i, seq + i + 1, 40) for i in range(32)]))
        node = eng.levels[eng.n][-1]
        eng._append_to_child(eng.n, node, Run.from_records(
            [make_put(second + 2 * i, seq + 33 + i, 40) for i in range(32)]))
        db.check_invariants()
    got = _assert_scan_matches(db_ref, db_opt, base, hi, limit=3)
    assert got == [(base + 3500 + i, 40) for i in range(3)]
    table = node.table
    lru = list(db_opt.runtime.cache._lru)
    a, b = ((table.file_id, s.first_block) for s in table.sequences)
    # Only a charged sequence's first block moves to the MRU end.
    assert (lru.index(a) > lru.index(b)) == (hi_at != "second")


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_shallow_table_past_the_cut_is_fill_only(engine, monkeypatch):
    # The planner walks the deepest level first: 400 dense keys from ``band``
    # down there fix the cut key of a plan from ``band``, and the top
    # stream's first table -- two later flushes, 60 keys from ``band +
    # 10**5`` -- lies wholly past it.  That table is dropped at the cut and
    # charged only its fill, seeking to block 0 (the cut key is >= lo).
    # Held against the reference under a hi_key between its sequences'
    # first keys, a snapshot from before it was written, and a limit whose
    # first plan a tombstone run defeats (the ``cap *= 8`` retry).
    band = 5 * 10 ** 6
    dense = [band + 10 * i for i in range(400)]
    db_ref, db_opt = _wide_pair(engine)
    for db in (db_ref, db_opt):
        for key in dense:
            db.put(key, 30)
        db.quiesce()
        for key in dense[100:350]:
            db.delete(key)
        db.quiesce()
        for part in range(2):
            for i in range(part, 60, 2):
                db.put(band + 10 ** 5 + 7 * i, 30)
            db.flush()
        db.quiesce()
    snapshot = db_ref._seq - 60
    top = db_opt.engine.scan_cursors(band, None)[0]
    table = next(t for t in top.walk() if t is not None and t.sequences)
    assert table.min_key >= band + 10 ** 5
    attempts = _truncation_widths(monkeypatch)
    requests = []
    read = db_opt.runtime.fg_read_blocks
    monkeypatch.setattr(db_opt.runtime, "fg_read_blocks",
                        lambda reads: requests.append(reads) or read(reads))
    for hi, limit, snap in ((None, 10, None), (band + 10 ** 5 + 3, 10, None),
                            (None, 10, snapshot), (None, 100, None)):
        got = _assert_scan_matches(db_ref, db_opt, band, hi, limit, snap)
        assert got[-1][0] < band + 10 ** 5
        # The dropped table's charges: one fill per sequence reaching hi.
        assert ({blocks.start for *_, fid, blocks in requests.pop() if fid == table.file_id}
                == {s.first_block for s in table.sequences
                    if hi is None or s.key_view[0] <= hi})
    got = _assert_scan_matches(db_ref, db_opt, dense[100], None, 2)
    assert [k for k, _ in got] == dense[350:352]
    assert 8 * 96 in attempts


@pytest.mark.parametrize("kwargs", [{}, {"limit": 7}, {"snapshot": 900},
                                    {"limit": 7, "snapshot": 900}],
                         ids=["all", "limit", "snapshot", "limit+snapshot"])
def test_flsm_guards_are_planned(kwargs, monkeypatch):
    # FLSM hands out one guard chain per level, each guard a tuple of its
    # overlapping fragments: the planner plans it, and no scan reaches the
    # heap merge.  uint64 keys throughout.
    merges = []
    real = iterator.merge_visible
    monkeypatch.setattr(iterator, "merge_visible",
                        lambda *args, **kw: merges.append(kw) or real(*args, **kw))
    db_ref, db_opt = _wide_pair("flsm")
    for lo, hi in ((None, None), (WIDE_KEYS[40], WIDE_KEYS[650]),
                   (WIDE_KEYS[300] + 1, None)):
        _assert_scan_matches(db_ref, db_opt, lo, hi, **kwargs)
    assert merges == []


def test_flsm_lo_inside_a_middle_multi_table_guard():
    # The level's chain starts at the guard holding lo, and every fragment
    # of that guard seeks to lo: past one fragment's first key, at
    # another's, and at the guard's own cut.
    db_ref, db_opt = _wide_pair("flsm")
    level = max(db_opt.engine.guards, key=lambda lvl: sum(len(g.tables) > 1 for g in lvl))
    guard = level[len(level) // 2]
    assert len(level) >= 5 and len(guard.tables) >= 2, "store shape changed"
    firsts = sorted(t.min_key for t in guard.tables)
    end = max(t.max_key for t in guard.tables)
    for lo in (firsts[0] + 1, firsts[1], guard.lo):
        for hi, limit in ((None, 3), (None, 30), (None, None), (end + 1, None),
                          (end + 20000, 9)):
            _assert_scan_matches(db_ref, db_opt, lo, hi, limit)


def _flsm_l0_of_three_flushes():
    """Twin FLSM stores: 400 dense keys from ``band`` down the levels, then
    an L0 guard of three overlapping flushes, 60 keys from ``band + 10**5``."""
    band = 5 * 10 ** 6
    db_ref, db_opt = _wide_pair("flsm")
    for db in (db_ref, db_opt):
        for i in range(400):
            db.put(band + 10 * i, 30)
        db.quiesce()
        db.engine._compact(0)  # empty L0 as its compaction would
        for part in range(3):
            for i in range(part, 60, 3):
                db.put(band + 10 ** 5 + 7 * i, 30)
            db.flush()
        db.quiesce()
        db.check_invariants()
    tables = db_opt.engine.guards[0][0].tables
    assert len(tables) == 3 and max(t.min_key for t in tables) < min(t.max_key for t in tables)
    return db_ref, db_opt, band, tables


def test_flsm_l0_guard_of_three_overlapping_flushes():
    db_ref, db_opt, band, _ = _flsm_l0_of_three_flushes()
    top = band + 10 ** 5
    snapshot = db_ref._seq - 20  # before the last flush
    for lo, hi, limit in ((top, None, None), (top + 70, None, 5), (top + 3, top + 200, None),
                          (band + 3990, None, 12), (None, None, None)):
        for snap in (None, snapshot):
            _assert_scan_matches(db_ref, db_opt, lo, hi, limit, snap)


def test_flsm_guard_past_the_cut_is_fill_only(monkeypatch):
    # The dense band fixes the cut key of a plan from ``band``, and L0's one
    # guard lies wholly past it: the guard is dropped at the cut and charged
    # only its fill, each sequence's first chunk under its own table's id.
    db_ref, db_opt, band, tables = _flsm_l0_of_three_flushes()
    requests = []
    read = db_opt.runtime.fg_read_blocks
    monkeypatch.setattr(db_opt.runtime, "fg_read_blocks",
                        lambda reads: requests.append(reads) or read(reads))
    fids = {t.file_id: t for t in tables}
    for hi, limit, snap in ((None, 10, None), (band + 10 ** 5 + 10, 10, None),
                            (None, 10, db_ref._seq - 30), (None, 100, None)):
        got = _assert_scan_matches(db_ref, db_opt, band, hi, limit, snap)
        assert got[-1][0] < band + 10 ** 5
        assert (sorted((fid, blocks.start) for *_, fid, blocks in requests.pop() if fid in fids)
                == sorted((t.file_id, s.first_block) for t in tables for s in t.sequences
                          if hi is None or s.key_view[0] <= hi))


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_scan_drain_and_limit_across_chain(engine):
    db_ref, db_opt = _wide_pair(engine)
    lo, hi = WIDE_KEYS[40], WIDE_KEYS[650]
    # A drain is the scalar scan, charge for charge; so is its first page.
    _assert_scan_matches(db_ref, db_opt, lo, hi)
    _assert_scan_matches(db_ref, db_opt, lo, hi, limit=5)


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb", "flsm"])
def test_scan_from_any_target_is_the_reference_scan(engine):
    # Scans from member starts and ends, into a fence gap, backwards, at
    # lo_key -- then whatever a seeded walk comes up with, empty limits
    # included; past hi_key nothing is left.
    db_ref, db_opt = _wide_pair(engine)
    lo, hi = WIDE_KEYS[40], WIDE_KEYS[650]
    schedule = [(WIDE_KEYS[350], 9), (WIDE_KEYS[333] + 1, 9),
                (WIDE_KEYS[60], 30), (lo, 3), (WIDE_KEYS[500], 0)]
    if engine != "flsm":
        level = _widest(db_opt)
        gap = next(a[1] + 1 for a, b in zip(level[2:], level[3:]) if a[1] + 1 < b[0])
        schedule += [(level[len(level) // 2][0] + 1, 9), (level[-3][1] + 1, 9),
                     (level[2][0], 9), (level[1][1] + 1, 9), (gap, 9)]
    rng = random.Random(29)
    schedule += [(rng.randrange(lo, hi), rng.choice([0, 1, 4, 25])) for _ in range(25)]
    for target, n in schedule:
        if n == 0:  # (the frozen seed merge yields one row at limit=0)
            assert db_opt.scan(target, hi, limit=0) == []
        else:
            _assert_scan_matches(db_ref, db_opt, target, hi, limit=n)
    assert db_opt.scan(hi + 1, hi) == []


# --------------------------------------- the fused point read vs Sequence.get
#: uint64 keys (two of them adjacent, and both ends of the key space); a
#: read also probes one int either side of it.
POINT_KEYS = st.sampled_from(KEY_POOL[:10] + [KEY_POOL[0] + 1, 0, 7, 2 ** 64 - 1])
PROBE_KEYS = st.one_of(POINT_KEYS, st.sampled_from([-5, 2 ** 64 + 3]))
POINT_VALUES = st.one_of(st.integers(1, 300), st.binary(min_size=1, max_size=9))


def _sequence_get_loop(table, key, snapshot, hashes):
    """``MSTable.get`` as it was before the probe rows: the reference."""
    latency = 0.0
    for seq in reversed(table.sequences):
        if snapshot is not None and seq.min_seq > snapshot:
            continue
        rec, lat = seq.get(table.runtime, table.file_id, key, snapshot, hashes)
        latency += lat
        if rec is not None:
            return rec, latency
    return None, latency


@settings(max_examples=120, deadline=None)
@given(specs=st.lists(st.lists(st.tuples(POINT_KEYS, st.booleans(), POINT_VALUES),
                               min_size=1, max_size=12), min_size=1, max_size=6),
       bloom_bits=st.sampled_from([0, 1, 14]), blind=st.sets(st.integers(0, 5)),
       cache_blocks=st.sampled_from([0, 2, 64]),
       reads=st.lists(st.tuples(PROBE_KEYS, st.one_of(st.none(), st.integers(0, 80)),
                                st.booleans()), min_size=1, max_size=30))
def test_fused_table_get_is_the_sequence_get_loop(specs, bloom_bits, blind,
                                                  cache_blocks, reads):
    # One table of several sequences with rising sequence numbers (a key
    # drawn twice has two versions; the ``blind`` ones get an all-ones filter,
    # every probe a false positive), rebuilt twice from its snapshot so that
    # each twin, on a runtime of its own, writes its own probe rows.
    scratch = MSTable(Runtime(tiny_storage_options()), key_size=8,
                      bloom_bits_per_key=bloom_bits)
    seqno = 0
    for i, spec in enumerate(specs):
        recs = []
        for key, dead, value in spec:
            seqno += 1
            recs.append(make_delete(key, seqno) if dead else make_put(key, seqno, value))
        seq, _ = scratch.append_sequence(Run.from_records(sorted(recs, key=sort_key)), level=1)
        if i in blind:
            seq.bloom.bits = b"\xff" * seq.bloom.nbytes
    storage = tiny_storage_options(page_cache_bytes=cache_blocks * 256)
    fused, loop = (MSTable.from_snapshot(Runtime(storage), scratch.snap)
                   for _ in range(2))
    states = [SimpleNamespace(runtime=t.runtime, metrics=t.runtime.metrics)
              for t in (fused, loop)]
    for key, snapshot, hashed in reads:  # snapshot 0 is older than every sequence
        hashes = hash_pair(key) if hashed else None
        rec, latency = fused.get(key, snapshot, hashes)
        assert (rec, latency) == _sequence_get_loop(loop, key, snapshot, hashes)
        if rec is not None:
            assert [type(f) for f in rec[:3]] == [int] * 3 and type(rec[3]) in (int, bytes)
        assert _observable_state(states[0]) == _observable_state(states[1])
