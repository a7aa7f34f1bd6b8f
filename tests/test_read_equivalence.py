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

Two contracts sit beside the equivalences.  *Declines*: whatever the scan
planner cannot plan (a snapshot outside uint64, an engine that hands out
plain generators) it must decline before charging anything, and the heap
merge that answers instead is held to the same reference; a key outside
uint64 never gets that far -- the write refuses it.  *Seeks*: an
``iterate`` reopened at any ``k`` is the reference scan from ``k``.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.reference import reference_scan
from repro.cluster import ClusterDB, ClusterOptions, NetworkOptions
from repro.common.errors import ConfigError
from repro.common.records import make_delete, make_put, sort_key
from repro.db import iamdb
from repro.filters.bloom import hash_pair
from repro.storage.runtime import Runtime
from repro.table.mstable import MSTable
from repro.table.run import Run
from tests.conftest import (make_tiny_db, member_dbs, tiny_iam_options,
                            tiny_storage_options)

#: A fixed, spread-out key pool (arbitrary points in the 64-bit key space).
KEY_POOL = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(24)]

#: A compact pool (small ints) -- exercises the composite-sort fast path.
SMALL_POOL = list(range(24))

ENGINES = ("iam", "lsa", "leveldb")


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
    kw = {}
    if snap_back is not None and not cluster and a._seq > 0:
        kw["snapshot"] = max(1, a._seq - snap_back)
    keys = [KEY_POOL[i] for i in batch]
    with pytest.raises(ConfigError):
        a.multi_get(keys + [bad], **kw)
    assert _full_state(a) == _full_state(b)
    assert a.multi_get(keys, **kw) == [b.get(k, **kw) for k in keys]
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
    want = reference_scan(db_ref, lo, hi, limit=limit, snapshot=snapshot)
    got = db_opt.scan(lo, hi, limit=limit, snapshot=snapshot)
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


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
    db.put(k, 111)
    seq_v1 = db._seq
    db.put(k, 222)
    db.quiesce()
    assert db.multi_get([k, k], seq_v1) == [111, 111]
    assert db.multi_get([k, k], seq_v1 - 1) == [None, None]
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
    assert cluster.scan(None, None, limit=0) == bare.scan(None, None, limit=0) == []
    assert cluster.scan(KEY_POOL[3], None, limit=0) == bare.scan(KEY_POOL[3], None, limit=0) == []
    for db in (cluster, bare):
        with pytest.raises(ConfigError):
            db.scan(None, None, limit=-1)
    assert _observable_state(bare) == before
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
    want = reference_scan(db_ref, lo, hi, limit=limit, snapshot=snapshot)
    got = db_opt.scan(lo, hi, limit=limit, snapshot=snapshot)
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


@pytest.mark.parametrize("engine", ["iam", "leveldb"])
def test_scan_retry_rewalks_chain_from_start(engine, monkeypatch):
    # A long tombstone run defeats the first, narrow plan (limit + 64 records
    # per sequence cannot prove the scan ends below the cut), so the planner
    # widens eightfold and walks every chain again from its head.
    from repro.table import scanplan

    db_ref, db_opt = _wide_pair(engine)
    for key in WIDE_KEYS[100:400]:
        for db in (db_ref, db_opt):
            db.delete(key)
    for db in (db_ref, db_opt):
        db.quiesce()
    attempts = []
    real = scanplan._attempt

    def counting(*args):
        attempts.append(args[-1])  # the truncation width
        return real(*args)

    monkeypatch.setattr(scanplan, "_attempt", counting)
    got = _assert_scan_matches(db_ref, db_opt, WIDE_KEYS[100], None, 2)
    assert len(got) == 2 and got[0][0] >= WIDE_KEYS[400]
    assert len(attempts) >= 2 and attempts[1] == 8 * attempts[0]


def test_scan_across_both_block_index_arms(monkeypatch):
    # A uniform-size sequence keeps its block index as a ``range`` (chunk =
    # i // step), a mixed-size one as a list (bisected): one level holding
    # both, bytes values included, under full, bounded and retried scans.
    from repro.table import scanplan

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
    attempts = []
    real = scanplan._attempt

    def counting(*args):
        attempts.append(args[-1])
        return real(*args)

    monkeypatch.setattr(scanplan, "_attempt", counting)
    snapshot = db_ref._seq - 150
    for lo, hi, limit in ((None, None, None), (None, None, 7), (WIDE_KEYS[90], None, 30),
                          (WIDE_KEYS[100], None, 2), (WIDE_KEYS[50], WIDE_KEYS[500], None)):
        for snap in (None, snapshot):
            _assert_scan_matches(db_ref, db_opt, lo, hi, limit, snap)
    assert 8 * 96 in attempts  # the tombstone run defeated a narrow plan


# --------------------------------------------------------- planner declines
# The planner declines only on what it observes in its input, always before
# the first charge; the heap merge over the same streams answers instead and
# answers to the same reference.  Each case pins the verdict both ways -- a
# decline here, a plan on the uint64 twin -- so the test keeps its meaning if
# the planner ever learns to plan what it declines today.  A key outside
# uint64 is declined earlier, by the write, and what follows is planned.
def _planner_verdicts(monkeypatch):
    """Per ``db.scan`` from here on: True = planned, False = declined."""
    verdicts = []
    real = iamdb.planned_scan

    def spy(streams, **kw):
        out = real(streams, **kw)
        verdicts.append(out is not None)
        return out

    monkeypatch.setattr(iamdb, "planned_scan", spy)
    return verdicts


@pytest.mark.parametrize("flushed", [False, True], ids=["memtable", "sequence"])
@pytest.mark.parametrize("odd,plain", [(-7, 7), (2 ** 64 + 7, 2 ** 64 - 7)],
                         ids=["negative", "wide"])
@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_key_outside_uint64_is_declined_then_merged(engine, odd, plain,
                                                    flushed, monkeypatch):
    # Twin WIDE_KEYS stores (tombstones included) both take the uint64 key
    # at the odd key's end of the key space; one of them is also offered
    # the odd key, which the write declines before anything moves.  Every
    # scan reaching toward it -- the odd key itself as the bound -- is then
    # planned, and the twins stay indistinguishable, the memtable holding
    # the plain key or it flushed to a sequence.
    verdicts = _planner_verdicts(monkeypatch)
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
    assert verdicts == [True] * 4


def test_snapshot_outside_uint64_is_declined_then_merged(monkeypatch):
    verdicts = _planner_verdicts(monkeypatch)
    db_ref, db_opt = _wide_pair("iam", n=300)
    for snapshot in (-1, 2 ** 64, 0, 2 ** 64 - 1):
        _assert_scan_matches(db_ref, db_opt, None, None, 7, snapshot)
    assert verdicts == [False, False, True, True]


def test_wide_key_in_the_chain_tail_is_declined(monkeypatch):
    # A limit-bounded plan reads one table past its record budget -- only
    # to place that table's first charges.  A run holding a key outside
    # uint64 is declined when it is built, so no table carries one; the top
    # uint64 key, in *that* table or one further on, is planned.
    verdicts = _planner_verdicts(monkeypatch)
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
        assert verdicts == [True, True]
        del verdicts[:]


@pytest.mark.parametrize("kwargs", [{}, {"limit": 7}, {"snapshot": 900},
                                    {"limit": 7, "snapshot": 900}],
                         ids=["all", "limit", "snapshot", "limit+snapshot"])
def test_flsm_streams_are_declined_then_merged(kwargs, monkeypatch):
    # FLSM's guards are not chains of disjoint tables: it hands out plain
    # generators, which the planner does not know.  uint64 keys throughout.
    verdicts = _planner_verdicts(monkeypatch)
    db_ref, db_opt = _wide_pair("flsm")
    for lo, hi in ((None, None), (WIDE_KEYS[40], WIDE_KEYS[650]),
                   (WIDE_KEYS[300] + 1, None)):
        _assert_scan_matches(db_ref, db_opt, lo, hi, **kwargs)
    assert verdicts == [False] * 3


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_db_iterator_drain_and_seek_across_chain(engine):
    db_ref, db_opt = _wide_pair(engine)
    lo, hi = WIDE_KEYS[40], WIDE_KEYS[650]
    # A drain is the scalar scan, charge for charge.
    assert list(db_opt.iterate(lo, hi)) == reference_scan(db_ref, lo, hi)
    assert _observable_state(db_opt) == _observable_state(db_ref)
    it = db_opt.iterate(lo, hi)
    assert [next(it) for _ in range(5)] == reference_scan(db_ref, lo, hi, limit=5)


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb", "flsm"])
def test_iterate_reopened_at_any_target_is_the_reference_scan(engine):
    # A seek is a fresh iterate: over member starts and ends, into a fence
    # gap, backwards, at lo_key -- then whatever a seeded walk comes up
    # with, empty pulls included; past hi_key nothing is left.
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
        got = [r for _, r in zip(range(n), db_opt.iterate(target, hi))]
        # (The frozen seed merge yields one row at limit=0.)
        assert got == (reference_scan(db_ref, target, hi, limit=n) if n else [])
    assert list(db_opt.iterate(hi + 1, hi)) == []


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb"])
def test_iterators_created_before_flush_drained_after(engine):
    # The iterators capture the memtable's records and each level's member
    # slice when they are created; a flush of those same records before the
    # drain must not change what they return (the flushed copies carry the
    # same keys and sequence numbers, so they collapse in the merge).
    db = make_tiny_db(engine)
    for i, key in enumerate(WIDE_KEYS[:60]):
        db.put(key, 10 + i)
    db.quiesce()
    for i, key in enumerate(WIDE_KEYS[20:50:3]):
        db.put(key, 200 + i)
    db.delete(WIDE_KEYS[5])
    lo, hi = WIDE_KEYS[2], WIDE_KEYS[55]
    want = db.scan(lo, hi)
    lazy = db.iterate(lo, hi)
    assert next(lazy) == want[0]
    db.flush()
    assert [want[0]] + list(lazy) == want
    assert db.scan(lo, hi) == want


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
    fused, loop = (MSTable.from_snapshot(Runtime(storage), scratch.snapshot())
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
