"""The public argument contract, checked once in ``repro.common.records``.

Keys are ints in ``[0, 2**64)``; values are ``bytes`` or an int in that range
(a synthetic size); scan bounds are any int or ``None``; a ``limit`` is
``None`` or an int ``>= 0``; a snapshot is ``None`` or a ``Snapshot``
handle, never an int; a key iterable is read once.  Every entry point
of both facades, ``WriteBatch`` and the time-travel reader either answers as
a dict model does or raises :class:`ConfigError` with nothing moved: no
sequence number, op count, clock tick, WAL or user byte, or latency sample.
"""

from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterDB, ClusterOptions
from repro.cluster.network import NetworkOptions
from repro.common.errors import ConfigError
from repro.objstore import ObjStoreOptions
from tests.conftest import make_tiny_db, member_dbs, tiny_iam_options, tiny_storage_options

KEYS = [0, 1, 5, 2**63, 2**64 - 1]
U64 = 2**64
#: Drawn as a bare store's snapshot: its live handle on the flushed prefix.
HANDLE = "snapshot()"


def _store(kind):
    if kind == "bare":
        return make_tiny_db("iam")
    return ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1, engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(), network=NetworkOptions.zero(),
        objstore=ObjStoreOptions()))


def _state(store):
    """What a refused call must leave alone."""
    outer = ()
    if isinstance(store, ClusterDB):
        outer = (store._ops, store.clock.now, store.network.messages)
    return outer, {op: lat.count for op, lat in store.metrics.latency.items()}, [
        (db._seq, db.runtime.clock.now, db.wal.nbytes, db.metrics.user_bytes,
         {op: lat.count for op, lat in db.metrics.latency.items()})
        for db in member_dbs(store)]


# ------------------------------------------------ defects measured before
@pytest.mark.parametrize("kind", ["bare", "cluster"])
def test_multi_get_reads_an_iterator_like_a_list(kind):
    store = _store(kind)
    store.put(1, b"a")
    store.put(2, 7)
    assert store.multi_get(iter([1, 2])) == store.multi_get([1, 2]) == [b"a", 7]


@pytest.mark.parametrize("kind", ["bare", "cluster"])
@pytest.mark.parametrize("value", [-3, None, 2.5, True, "s", [1], U64])
def test_values_outside_the_contract_are_refused_before_anything_moves(kind, value):
    # Once: -3 was acked and wedged the next flush with a raw OverflowError;
    # None / 2.5 / True raised a raw TypeError after taking a sequence
    # number; "s" and [1] were stored and read back.
    store = _store(kind)
    store.put(1, 8)
    before = _state(store)
    with pytest.raises(ConfigError, match="values must be"):
        store.put(2, value)
    assert _state(store) == before
    store.flush()
    assert store.scan() == [(1, 8)] and store.get(2) is None


def test_a_batch_refuses_a_bad_value_and_commits_the_rest():
    # Once: accepted, then ``commit`` raised a raw TypeError after taking two
    # sequence numbers, and the whole batch was lost.
    db = make_tiny_db("iam")
    batch = db.write_batch().put(1, b"a")
    with pytest.raises(ConfigError, match="values must be"):
        batch.put(2, None)
    batch.delete(3).commit()
    assert db._seq == 2 and db.scan() == [(1, b"a")]


@pytest.mark.parametrize("kind", ["bare", "cluster"])
def test_scan_limits_other_than_a_count_are_refused(kind):
    # Once: 1.5 raised a raw IndexError out of the planner, "3" a raw
    # TypeError, and True returned one row.
    store = _store(kind)
    for key in range(5):
        store.put(key, 8)
    before = _state(store)
    for limit in (1.5, "3", True, -1):
        with pytest.raises(ConfigError, match="scan limit"):
            store.scan(0, None, limit=limit)
    assert _state(store) == before


# ------------------------------------------------------- the dict model
def _key_ok(x):
    return type(x) is int and 0 <= x < U64


def _value_ok(x):
    return type(x) is bytes or _key_ok(x)


class Model:
    """Every accepted write in order; write ``i`` has sequence number ``i+1``."""

    def __init__(self):
        self.log = []
        self.handle = None, None  # (Snapshot, its sequence number)

    def view(self, seq=None):
        out = {}
        for key, value in self.log[:seq]:
            out[key] = value
        return {k: v for k, v in out.items() if v is not None}

    def scan(self, lo, hi, limit, seq):
        rows = sorted((k, v) for k, v in self.view(seq).items()
                      if (lo is None or k >= lo) and (hi is None or k < hi))
        return rows[:limit]


KEY_LISTS = st.lists(st.sampled_from(KEYS), max_size=3)
ODD = st.one_of(st.sampled_from([-1, U64]), st.integers(), st.booleans(), st.floats(),
                st.text(max_size=2), st.binary(max_size=2), KEY_LISTS, KEY_LISTS.map(iter))


def _mostly(good):
    """``good`` four times in five (so calls get through), else anything."""
    return st.tuples(st.integers(0, 4), good, ODD).map(lambda t: t[2 if t[0] == 0 else 1])


ARG = _mostly(st.sampled_from(KEYS + [None, HANDLE]))
#: ``(op, key iterable, a, b, c, d)``: ``multi_get`` takes the iterable in place of ``a``.
OPS = st.tuples(st.sampled_from(["put", "delete", "get", "multi_get", "scan", "batch", "as_of"]),
                _mostly(st.one_of(KEY_LISTS, KEY_LISTS.map(iter))), ARG, ARG, ARG, ARG)


def _plan(store, model, op, keys, a, b, c, d):
    """``(call, want)``: ``call`` runs one op on ``store``, ``want`` is the
    model's answer, or ``ConfigError`` where the contract refuses the
    arguments.  A write the contract accepts goes into the model."""
    bare = not isinstance(store, ClusterDB)
    snap, seq = b if bare else None, None
    if snap is HANDLE:
        snap, seq = model.handle
    snap_ok = snap is None or seq is not None
    view = model.view(seq)
    if op == "multi_get":
        a = keys
        if isinstance(a, Iterator):
            keys = list(a)
            a = iter(keys)
    if op == "put":
        ok = _key_ok(a) and _value_ok(b)
        model.log += [(a, b)] if ok else []
        return (lambda: store.put(a, b)), None if ok else ConfigError
    if op == "delete":
        model.log += [(a, None)] if _key_ok(a) else []
        return (lambda: store.delete(a)), None if _key_ok(a) else ConfigError
    if op == "batch" and bare:
        ok = _key_ok(a) and _value_ok(b) and _key_ok(c)
        model.log += [(a, b), (c, None)] if ok else []
        return (lambda: store.write_batch().put(a, b).delete(c).commit()), \
            None if ok else ConfigError
    if op == "get":
        want = view.get(a) if _key_ok(a) and snap_ok else ConfigError
        return (lambda: store.get(a, snap) if bare else store.get(a)), want
    if op == "multi_get":
        try:
            keys = [*keys]
        except TypeError:
            keys = [None]
        want = [view.get(k) for k in keys] \
            if snap_ok and all(map(_key_ok, keys)) else ConfigError
        return (lambda: store.multi_get(a, snap) if bare else store.multi_get(a)), want
    if op == "scan":
        ok = snap_ok and all(x is None or type(x) is int for x in (a, c)) \
            and (d is None or type(d) is int and d >= 0)
        want = model.scan(a, c, d, seq) if ok else ConfigError
        if bare:
            return (lambda: store.scan(a, c, limit=d, snapshot=snap)), want
        return (lambda: store.scan(a, c, limit=d)), want
    if op == "as_of" and not bare:  # AsOfReader.get, through the facade
        seq = None
        if _key_ok(b):
            cut = store.manifest_logs[0].cut(b)
            reader = store._as_of_readers.get((0, b))
            seq = cut.seq if cut is not None else getattr(reader, "seq", None)
        want = model.view(seq).get(a) if seq is not None and _key_ok(a) \
            else ConfigError
        if b is None:  # an ordinary read
            want = model.view().get(a) if _key_ok(a) else ConfigError
        return (lambda: store.get(a, as_of_cut=b)), want
    return (lambda: None), None


@settings(max_examples=100, deadline=None)
@given(st.lists(OPS, max_size=12))
def test_every_entry_point_answers_like_the_model_or_refuses_touching_nothing(ops):
    for kind in ("bare", "cluster"):
        store, model = _store(kind), Model()
        for i, key in enumerate(KEYS):  # a flushed prefix: cut 1 holds it
            store.put(key, 16 + i)
            model.log.append((key, 16 + i))
        store.flush()
        if kind == "bare":
            model.handle = store.snapshot(), len(model.log)
        for op in ops:
            call, want = _plan(store, model, *op)
            before = _state(store)
            try:
                got = call()
            except ConfigError:
                assert _state(store) == before, (kind, op)
                got = ConfigError
            assert got == want, (kind, op)


def test_an_int_snapshot_is_refused_and_a_handle_keeps_its_history():
    # The flushed prefix of the model test, then two writes of key 0 rotate
    # the memtable and merge into L1.  An int pins no history: with no
    # handle live, that merge dropped key 0's version 1, and a read at
    # sequence 1 found nothing where the same read a moment earlier found
    # 16.  So an int is refused before anything moves, and a handle reads
    # the history it pins.
    db = make_tiny_db("iam")
    for i, key in enumerate(KEYS):
        db.put(key, 16 + i)
    db.flush()
    snap = db.snapshot()
    db.put(0, 2**63)
    db.put(0, 2**63)
    assert db.get(0) == 2**63 and db.get(0, snap) == 16
    before = _state(db)
    for read in (lambda: db.get(0, 1), lambda: db.multi_get([0], 1),
                 lambda: db.scan(0, 2, snapshot=1)):
        with pytest.raises(ConfigError, match="snapshot"):
            read()
        assert _state(db) == before
