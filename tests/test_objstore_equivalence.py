"""Zero-latency shared storage adds no simulated work and no behavior.

The hypothesis behind the mirror-mode tier: all data stays on the local
SimDisk, the object store only holds mirrored copies.  With the zero store
(``ObjStoreOptions.zero()``: no latency, infinite bandwidth, no framing)
every store request takes 0 simulated seconds, so

* a bare :class:`~repro.db.iamdb.IamDB` with an
  :class:`~repro.objstore.tiering.ObjStoreTier` attached is byte-identical
  to one without (same per-op results, KV state, seq, clock, WA, space);
* a 1-shard/1-replica cluster with the zero store on a zero network is
  byte-identical to the same cluster without shared storage (which
  ``tests/test_cluster_equivalence.py`` already pins to a bare DB); and
* a follower spawned via objstore bootstrap ends in exactly the state a
  WAL/file-shipping follower ends in -- same contents, same seq.

Hypothesis drives all three with randomized mixed workloads including
explicit flushes, so checkpoints (and therefore mirroring) actually fire.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import tiny_iam_options, tiny_storage_options
from tests.frozen_kernels import frozen_ship_follower
from repro.cluster import ClusterDB, ClusterOptions, NetworkOptions
from repro.db.iamdb import IamDB
from repro.objstore import ObjStoreOptions, ObjStoreTier, SharedManifestLog, SimObjectStore

#: (op code, key index, size/limit) triples over a small shared key pool.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "put", "put", "delete", "get", "scan",
                               "flush"]),
              st.integers(0, 23),
              st.integers(1, 200)),
    max_size=80)

#: A fixed, spread-out key pool (arbitrary points in the 64-bit key space).
KEY_POOL = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(24)]


def _bare():
    return IamDB("iam", engine_options=tiny_iam_options(),
                 storage_options=tiny_storage_options())


def _mirrored():
    db = _bare()
    store = SimObjectStore(db.runtime.clock, ObjStoreOptions.zero())
    log = SharedManifestLog(store, "shard0/")
    tier = ObjStoreTier(db, log)
    return db, store, tier


def _drive(a, b, ops):
    """Apply the same op stream to both stacks, checking per-op results."""
    for op, key_i, size in ops:
        key = KEY_POOL[key_i]
        if op == "put":
            a.put(key, size)
            b.put(key, size)
        elif op == "delete":
            a.delete(key)
            b.delete(key)
        elif op == "get":
            assert a.get(key) == b.get(key)
        elif op == "flush":
            a.flush()
            b.flush()
        else:
            lo = KEY_POOL[size % len(KEY_POOL)]
            limit = 1 + size % 8
            assert (a.scan(lo, None, limit=limit)
                    == b.scan(lo, None, limit=limit))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_zero_store_tier_equals_bare_db(ops):
    mirrored, store, _tier = _mirrored()
    bare = _bare()
    _drive(mirrored, bare, ops)
    assert mirrored.scan() == bare.scan()
    assert mirrored._seq == bare._seq
    assert mirrored.runtime.clock.now == bare.runtime.clock.now
    assert mirrored.write_amplification() == bare.write_amplification()
    assert mirrored.space_used_bytes() == bare.space_used_bytes()
    # The mirror did real work -- it just cost zero simulated time.  Only
    # a flush that drains a non-empty memtable uploads anything, so the
    # stream must contain a put *followed by* a flush.
    codes = [op for op, _, _ in ops]
    if "put" in codes and "flush" in codes[codes.index("put") + 1:]:
        assert store.puts > 0
    mirrored.close()
    bare.close()


def _cluster(with_store: bool):
    kw = {}
    if with_store:
        kw["objstore"] = ObjStoreOptions.zero()
    return ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(),
        network=NetworkOptions.zero(), **kw))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_zero_store_cluster_equals_plain_cluster(ops):
    with_store = _cluster(True)
    plain = _cluster(False)
    _drive(with_store, plain, ops)
    assert with_store.scan() == plain.scan()
    a = with_store.router.shards[0].group.leader.db
    b = plain.router.shards[0].group.leader.db
    assert a._seq == b._seq
    assert with_store.clock.now == plain.clock.now
    assert with_store.write_amplification() == plain.write_amplification()
    assert with_store.space_used_bytes() == plain.space_used_bytes()
    with_store.close()
    plain.close()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_objstore_follower_equals_shipped_follower(ops):
    """Bootstrap-from-store and leader-shipping converge to one state."""
    via_store = _cluster(True)
    via_ship = _cluster(True)
    _drive(via_store, via_ship, ops)
    via_store.flush()
    via_ship.flush()
    via_store.quiesce()
    via_ship.quiesce()
    boot_a = via_store.spawn_follower(0)
    boot_b = frozen_ship_follower(via_ship.router.shards[0].group,
                                  via_ship._make_replica())
    via_ship._pump_all()
    assert boot_a["seq"] == boot_b["seq"]
    fol_a = via_store.router.shards[0].group.replicas[-1].db
    fol_b = via_ship.router.shards[0].group.replicas[-1].db
    assert fol_a._seq == fol_b._seq
    assert fol_a.scan() == fol_b.scan()
    assert via_store.clock.now == via_ship.clock.now
    via_store.close()
    via_ship.close()
