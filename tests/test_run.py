"""The columnar sorted run and the typed-column rule, kernel by kernel.

* ``Run.from_records(r).records() == r`` at both ends of the uint64 key
  space and for every value type, with plain Python element types on the
  way out.
* The columnar ``partition_records`` and ``split_run`` against frozen copies
  of the scalar loops they replaced (``tests/frozen_kernels.py``).
* End to end: what a store hands back is what was put in -- ``bytes`` stay
  ``bytes`` however digit-like, every key and value is a Python ``int`` or
  ``bytes`` (never a numpy scalar), non-integer keys and ints outside
  ``[0, 2**64)`` are refused at the door before anything moves, and keys
  across the whole of uint64 work through flush, merge, scan and crash
  recovery, with scan bounds of any sign or size.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterDB, ClusterOptions
from repro.common.errors import ConfigError
from repro.common.records import DELETE, PUT, sort_key
from repro.core.node import LsaNode, partition_records
from repro.table.run import Run, split_run
from tests.conftest import (
    ALL_ENGINES,
    make_tiny_db,
    member_dbs,
    tiny_iam_options,
    tiny_storage_options,
)
from tests.frozen_kernels import frozen_partition_records, frozen_split_run

#: Both ends of the key space: from ``2**64 - 256`` up the top bit is set,
#: where a signed conversion or comparison would go wrong.
KEY_BASES = (0, 2**64 - 256)

values = st.one_of(st.integers(0, 300),                      # synthetic sizes
                   st.binary(max_size=6),                    # real payloads
                   st.sampled_from([b"21", b"007", b"0"]))   # digit-like bytes


@st.composite
def sorted_records(draw, max_keys=40, key_span=255, value=values):
    """A valid sorted run as tuples: (key asc, seq desc), unique (key, seq)."""
    base = draw(st.sampled_from(KEY_BASES))
    keys = draw(st.lists(st.integers(0, key_span), max_size=max_keys))
    recs = []
    for seq, key in enumerate(keys, start=1):
        if draw(st.integers(0, 9)) == 0:
            recs.append((base + key, seq, DELETE, 0))
        else:
            recs.append((base + key, seq, PUT, draw(value)))
    return sorted(recs, key=sort_key)


def plain(value):
    return type(value) in (int, bytes)


# ------------------------------------------------------------------ the Run
@given(sorted_records())
def test_round_trip_keeps_records_and_plain_types(recs):
    run = Run.from_records(recs)
    assert len(run) == run.n == len(recs)
    out = run.records()
    assert out == recs
    assert all(plain(field) for rec in out for field in rec)
    assert [run.key_at(i) for i in range(run.n)] == [r[0] for r in recs]
    assert list(run.key_view()) == [r[0] for r in recs]
    assert run.is_sorted()
    assert run.encoded_size(8) == sum(
        8 + 13 + (r[3] if type(r[3]) is int else len(r[3])) for r in recs)


@given(sorted_records())
def test_typed_column_rule(recs):
    run = Run.from_records(recs)
    assert run.keys.tolist() == [r[0] for r in recs]
    real = any(type(r[3]) is not int for r in recs)
    assert (run.vals is not None) == real  # b"21" is a payload, not size 21
    assert run.sizes.tolist() == [r[3] if type(r[3]) is int else len(r[3])
                                  for r in recs]


@given(sorted_records(), st.data())
def test_slices_and_gathers_are_runs(recs, data):
    run = Run.from_records(recs)
    i = data.draw(st.integers(0, len(recs)))
    j = data.draw(st.integers(i, len(recs)))
    assert run.slice(i, j).records() == recs[i:j]
    picks = data.draw(st.lists(st.integers(0, max(0, len(recs) - 1)),
                               max_size=10)) if recs else []
    assert run.take(np.array(picks, dtype=np.intp)).records() == [recs[p] for p in picks]


@pytest.mark.parametrize("key", ["k1", b"k1", 1.5, True, None, (1, 2)])
def test_non_integer_record_keys_are_refused(key):
    with pytest.raises(ConfigError):
        Run.from_records([(key, 1, PUT, 8)])


def test_unsorted_run_is_detected():
    assert not Run.from_records([(2, 1, PUT, 8), (1, 2, PUT, 8)]).is_sorted()
    assert not Run.from_records([(1, 1, PUT, 8), (1, 2, PUT, 8)]).is_sorted()
    assert not Run.from_records([(2**64 - 1, 1, PUT, 8), (2**63, 2, PUT, 8)]).is_sorted()


# ---------------------------------------------------------------- partition
@st.composite
def children_and_records(draw):
    base = draw(st.sampled_from(KEY_BASES))
    n = draw(st.integers(1, 7))
    lo = 10  # room for records below the first child
    children = []
    for _ in range(n):
        # step 0 shares the previous range_lo; width 0 is a one-key range;
        # step == previous width + 1 makes the two ranges adjacent.
        lo += draw(st.integers(0, 12))
        children.append(LsaNode(base + lo, base + lo + draw(st.integers(0, 12))))
    keys = draw(st.lists(st.integers(0, lo + 25), max_size=60))
    recs = sorted(((base + key, seq, PUT, 8) for seq, key in enumerate(keys, 1)),
                  key=sort_key)
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return children, recs, weights


@settings(max_examples=300)
@given(children_and_records(), st.sampled_from(["leaf", "weighted", "unweighted"]))
def test_partition_matches_the_frozen_scalar_loop(case, mode):
    children, recs, weights = case
    kw = {"leaf": mode == "leaf",
          "child_weights": weights if mode == "weighted" else None}
    parts = partition_records(Run.from_records(recs), children, **kw)
    assert [part.records() for part in parts] == \
        frozen_partition_records(recs, children, **kw)


# -------------------------------------------------------------------- split
@settings(max_examples=300)
@given(sorted_records(max_keys=60, key_span=12), st.integers(1, 700))
def test_split_run_matches_the_frozen_scalar_loop(recs, max_bytes):
    # key_span 12 over up to 60 records: keys hold several versions, so cuts
    # land inside a key; values up to 300 B against chunks from 1 B: records
    # larger than a chunk.
    chunks = [chunk.records() for chunk in split_run(Run.from_records(recs), 8, max_bytes)]
    assert chunks == list(frozen_split_run(recs, 8, max_bytes))
    for a, b in zip(chunks, chunks[1:]):
        assert a[-1][0] != b[0][0]  # never between two versions of a key


def test_split_run_pinned_cases():
    def split(recs, max_bytes):
        return [c.records() for c in split_run(Run.from_records(recs), 8, max_bytes)]
    one_key = [(1, 9 - i, PUT, 50) for i in range(5)]  # 71 B each
    assert split(one_key, 100) == [one_key]
    straddle = [(1, 3, PUT, 50), (2, 9, PUT, 50), (2, 8, PUT, 50), (3, 1, PUT, 50)]
    assert split(straddle, 150) == [straddle[:3], straddle[3:]]
    big = [(1, 1, PUT, 500), (2, 2, PUT, 5), (3, 3, PUT, 500)]
    assert split(big, 100) == [big[:1], big[1:2], big[2:]]
    assert split([], 100) == []


# ---------------------------------------------- what a store hands back
def make_store(kind, n_shards=3):
    if kind != "cluster":
        return make_tiny_db(kind)
    return ClusterDB(ClusterOptions(
        n_shards=n_shards, n_replicas=2, engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options()))


@pytest.mark.parametrize("kind", ALL_ENGINES + ("cluster",))
def test_scan_returns_what_get_returns(kind):
    """``put(3, b"21"); scan()`` once answered ``(3, 21)``: numpy parsing the
    payload was taken for "it is a synthetic size"."""
    store = make_store(kind)
    rng = random.Random(19)
    model = {}
    span = 1 << 40  # spread over the cluster's shards
    for i in range(600):
        key = rng.randrange(200) * span
        value = rng.choice([b"21", b"007", b"0", b"12", rng.randrange(1, 90),
                            bytes(rng.randrange(5))])
        store.put(key, value)
        model[key] = value
        if i == 450:
            store.quiesce()  # the rest stays in the memtables
    rows = store.scan()
    assert rows == sorted(model.items())
    assert [v for _, v in rows] == [store.get(k) for k, _ in rows]
    assert store.multi_get([k for k, _ in rows]) == [v for _, v in rows]
    assert all(type(v) is type(model[k]) for k, v in rows)
    lo, hi = 50 * span, 120 * span
    assert store.scan(lo, hi, limit=20) == sorted(
        (k, v) for k, v in model.items() if lo <= k < hi)[:20]


def test_memtable_resident_digit_bytes_scan_as_bytes():
    db = make_tiny_db("iam")
    db.put(3, b"21")
    assert db.scan(3, 8) == [(3, b"21")] and db.get(3) == b"21"
    db.flush()
    assert db.scan(3, 8) == [(3, b"21")] and db.multi_get([3]) == [b"21"]


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_every_key_and_value_read_back_is_a_plain_python_object(engine):
    db = make_tiny_db(engine)
    rng = random.Random(7)
    for _ in range(800):
        db.put(rng.randrange(400), rng.choice([rng.randrange(1, 90), b"ab"]))
    db.quiesce()
    for _ in range(40):
        db.put(rng.randrange(400), 33)
    keys = list(range(0, 400, 7))
    assert all(v is None or plain(v) for v in map(db.get, keys))
    assert all(v is None or plain(v) for v in db.multi_get(keys))
    for rows in (db.scan(), db.scan(10, 200, limit=30), list(db.iterate(10, 200)),
                 list(db.iterate(100, 300))):
        assert rows and all(plain(k) and plain(v) for k, v in rows)
    synthetic = [(k, v) for k, v in db.scan() if type(v) is int]
    assert json.loads(json.dumps(synthetic)) == [list(row) for row in synthetic]


# ------------------------------------------------------------------- keys
@pytest.mark.parametrize("key", ["k1", b"k1", 1.5, True, None])
def test_write_entry_points_refuse_non_integer_keys(key):
    db = make_tiny_db("iam")
    for write in (lambda: db.put(key, 8), lambda: db.delete(key),
                  lambda: db.write_batch().put(key, 8),
                  lambda: db.write_batch().delete(key)):
        with pytest.raises(ConfigError, match="keys must be Python ints"):
            write()
    assert db._seq == 0  # refused before anything was numbered or logged


def _read_side_state(store):
    """What a refused read must leave alone: clock, cache, counters."""
    dbs, extra = member_dbs(store), ()
    if isinstance(store, ClusterDB):
        extra = (store.clock.now, store._ops, store.network.messages,
                 [(sh.reads, sh.writes, sh.scans) for sh in store.router.shards],
                 list(store._acked_audit.items()))
    return extra, [(db.runtime.clock.now, db._seq, m.bloom_probes,
                    m.bloom_negatives, m.cache_hits, m.cache_misses, m.query_seeks,
                    {op: lat.count for op, lat in m.latency.items()},
                    list(db.runtime.cache._lru))
                   for db in dbs for m in (db.metrics,)]


@pytest.mark.parametrize("kind", ["iam", "leveldb", "flsm", "cluster"])
def test_read_entry_points_refuse_non_integer_keys(kind):
    """Once: a raw ``TypeError: '<' not supported between 'str' and 'int'``
    out of a fence bisect (bare) or out of the router's shard bisect, which
    on a cluster also sat in front of the write check.  The engine's ``get``
    hashes its key unconditionally: a bad key must never reach it."""
    store = make_store(kind, n_shards=4)
    for i in range(400):
        store.put(i << 54, 16)  # spread over the cluster's shards
    store.flush()
    before = _read_side_state(store)

    def entered(*args):
        raise AssertionError("engine.get entered with a refused key")
    for db in member_dbs(store):
        db.engine.get = entered
    calls = [lambda: store.get("k"), lambda: store.multi_get([1, "k"]),
             lambda: store.get(1.0),
             lambda: store.scan("a", None), lambda: store.scan(1, "z"),
             lambda: store.scan(1, 7.5), lambda: store.scan("a", None, limit=0),
             lambda: list(store.iterate("a")), lambda: store.get(True),
             lambda: store.get(np.uint64(1))]
    if kind == "cluster":
        calls += [lambda: store.put("k", 1), lambda: store.delete("k")]
    else:
        calls += [lambda: store.iterate(None, "z")]
    for call in calls:
        with pytest.raises(ConfigError, match="keys must be Python ints"):
            call()
    assert _read_side_state(store) == before
    for db in member_dbs(store):
        del db.engine.get
    assert store.get(3 << 54) == 16 and len(store.scan(1, 1 << 60)) == 63


@pytest.mark.parametrize("key", [-1, 2**64])
def test_keys_outside_uint64_are_refused_before_anything_moves(key):
    """Once stored, in an object key column beside the uint64 one: now the
    write and point-read entry points refuse them before anything is
    numbered, logged, buffered or charged."""
    db = make_tiny_db("iam")
    for i in range(40):
        db.put(i, 16)

    def state():
        return (db._seq, db.wal.nbytes, len(db.memtable), db.memtable.nbytes,
                db.runtime.clock.now)
    before = state()
    batch = db.write_batch()
    for refused in (lambda: db.put(key, 8), lambda: db.delete(key),
                    lambda: batch.put(key, 8), lambda: batch.delete(key),
                    lambda: db.get(key), lambda: db.multi_get([3, key])):
        with pytest.raises(ConfigError, match="outside the key space"):
            refused()
    assert len(batch) == 0
    assert state() == before


def test_string_keys_no_longer_kill_the_flush_job():
    """Once: accepted, then a raw TypeError out of the Bloom build in some
    later put's pump, and the rotated memtable's acknowledged records gone."""
    db = make_tiny_db("iam")
    for i in range(300):
        db.put(i, 16)
    with pytest.raises(ConfigError):
        db.put("k00001", 16)
    for i in range(300, 600):
        db.put(i, 16)
    db.quiesce()
    assert all(db.get(i) == 16 for i in range(600))


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_integers_of_any_sign_or_size_work_end_to_end(engine):
    """As keys, ints from both ends of uint64 -- the top bit set and clear --
    load, flush, merge, get, scan and crash-recover, and ints outside it are
    refused; as scan bounds, ints of any sign or size work."""
    db = make_tiny_db(engine)
    rng = random.Random(5)
    model = {}
    for _ in range(2500):
        key = rng.randrange(400) + rng.choice([0, 2**63 - 200, 2**64 - 400])
        if rng.random() < 0.1:
            db.delete(key)
            model.pop(key, None)
        else:
            model[key] = rng.choice([rng.randrange(1, 90), b"xy"])
            db.put(key, model[key])
    db.quiesce()
    described = db.engine.describe()
    assert described.get("merges", 0) + described.get("compactions", 0) > 0
    for _ in range(30):  # leave something in the memtable and the WAL
        key = 2**64 - rng.randrange(1, 400)
        model[key] = 44
        db.put(key, 44)
    for key in (-1, 2**64, 10**30):
        for refused in (lambda: db.put(key, 1), lambda: db.get(key)):
            with pytest.raises(ConfigError, match="outside the key space"):
                refused()

    def in_range(lo, hi):
        return sorted((k, v) for k, v in model.items() if lo <= k < hi)

    def check():
        assert all(db.get(k) == v for k, v in model.items())
        assert db.multi_get(list(model)) == list(model.values())
        assert db.scan() == sorted(model.items())
        assert db.scan(-50, 2**64 + 50, limit=25) == in_range(-50, 2**64)[:25]
        assert db.scan(2**64 - 50, 2**70) == in_range(2**64 - 50, 2**64)
        assert list(db.iterate(-10, 10)) == in_range(0, 10)
        assert list(db.iterate(2**63 - 10, 2**63 + 10)) == in_range(2**63 - 10, 2**63 + 10)
        db.check_invariants()

    check()
    db.crash_and_recover()
    check()
