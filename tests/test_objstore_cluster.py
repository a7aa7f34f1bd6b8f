"""Cluster integration of the shared-storage tier.

Pins the headline contracts of the objstore subsystem: follower bootstrap
costs the leader zero network bytes for the flushed prefix, time-travel
reads serve the exact historical state, leader failover recovers the tier
off the shared manifest log, the report surfaces store telemetry, and
compaction offload drains compaction device time on the shared disk.
"""

import pytest

from tests.conftest import tiny_iam_options, tiny_storage_options
from repro.cluster import ClusterDB, ClusterOptions
from repro.cluster.rebalance import REBALANCE_CHECK_OPS
from repro.common.errors import ConfigError
from repro.objstore import ObjStoreOptions


def _cluster(*, replicas=2, store=None, **kw):
    return ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=replicas,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(),
        objstore=store if store is not None else ObjStoreOptions(),
        **kw))


KEYS = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(40)]


def _load(cluster, model, n, base=0):
    for i in range(n):
        key = KEYS[i % len(KEYS)]
        value = base + 16 + (i % 50)
        cluster.put(key, value)
        model[key] = value


def _leader_link_bytes(cluster):
    leader = cluster.router.shards[0].group.leader.node_id
    return sum(v for (src, _dst), v in cluster.network.link_bytes.items()
               if src == leader)


def test_follower_bootstrap_ships_zero_leader_bytes_for_flushed_prefix():
    cluster = _cluster()
    model = {}
    _load(cluster, model, 150)
    cluster.flush()
    cluster.quiesce()
    before = _leader_link_bytes(cluster)
    boot = cluster.spawn_follower(0)
    after = _leader_link_bytes(cluster)
    # Everything flushed came from shared storage, nothing from the leader.
    assert boot["mode"] == "objstore"
    assert boot["wal_tail_records"] == 0
    assert after == before
    assert boot["objects_fetched"] > 0
    assert boot["store_bytes_down"] > 0
    follower = cluster.router.shards[0].group.replicas[-1].db
    assert follower._seq == cluster.router.shards[0].group.leader.db._seq
    for key, want in sorted(model.items()):
        assert follower.get(key) == want
    cluster.check_invariants()
    cluster.close()


def test_follower_bootstrap_ships_only_the_unflushed_tail():
    cluster = _cluster()
    model = {}
    _load(cluster, model, 120)
    cluster.flush()
    cluster.quiesce()
    _load(cluster, model, 7, base=500)  # a small unflushed WAL tail
    # The tiny memtable may have flushed again mid-tail; whatever the
    # latest cut covers at spawn time is the flushed prefix.
    flushed_seq = cluster.manifest_logs[0].latest_cut().seq
    boot = cluster.spawn_follower(0)
    assert boot["bootstrap_seq"] == flushed_seq
    assert boot["wal_tail_records"] == \
        cluster.router.shards[0].group.leader.db._seq - flushed_seq
    follower = cluster.router.shards[0].group.replicas[-1].db
    for key, want in sorted(model.items()):
        assert follower.get(key) == want
    cluster.close()


def test_time_travel_reads_serve_the_recorded_cut():
    cluster = _cluster(objstore_retain_cuts=64)
    model = {}
    _load(cluster, model, 150)
    cluster.flush()
    cluster.quiesce()
    frozen = dict(model)
    cut_id = cluster.manifest_logs[0].latest_cut().cut_id
    # Overwrite everything; the cut must still serve the old values.
    _load(cluster, model, 150, base=100)
    cluster.flush()
    cluster.quiesce()
    for key in sorted(frozen):
        assert cluster.get(key, as_of_cut=cut_id) == frozen[key]
        assert cluster.get(key) == model[key]
    assert model[KEYS[0]] != frozen[KEYS[0]]
    cluster.close()


def test_a_time_travel_read_fills_its_misses_from_the_store():
    # An as-of reader's page-cache misses are ranged GETs on the store, one
    # per run of missing blocks, charged at store latency; its own disk
    # reads nothing.
    cluster = _cluster(objstore_retain_cuts=64,
                       store=ObjStoreOptions(latency_s=0.01))
    model = {}
    _load(cluster, model, 150)
    cluster.flush()
    cluster.quiesce()
    cut_id = cluster.manifest_logs[0].latest_cut().cut_id
    assert cluster.get(KEYS[0], as_of_cut=cut_id) == model[KEYS[0]]
    runtime = cluster._as_of_readers[(0, cut_id)].runtime
    for file_id in list(runtime.cache._per_file):
        runtime.cache.invalidate_file(file_id)
    gets, misses = runtime.objstore.gets, runtime.metrics.cache_misses
    t0 = runtime.clock.now
    assert cluster.get(KEYS[1], as_of_cut=cut_id) == model[KEYS[1]]
    assert runtime.objstore.gets > gets and runtime.metrics.cache_misses > misses
    assert runtime.clock.now - t0 >= 0.01
    assert runtime.disk.bytes_read == 0
    cluster.close()


def test_time_travel_requires_a_retained_cut():
    cluster = _cluster()
    model = {}
    _load(cluster, model, 30)
    cluster.flush()
    cluster.quiesce()
    with pytest.raises(ConfigError):
        cluster.get(KEYS[0], as_of_cut=10_000)
    plain = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options()))
    with pytest.raises(ConfigError):
        plain.get(KEYS[0], as_of_cut=1)
    plain.close()
    cluster.close()


def test_refused_time_travel_reads_touch_nothing():
    # Validated like a snapshot: a cut that is not an int in [0, 2**64),
    # or not retained, is refused before the op is counted -- so a
    # scheduled kill cannot fire on it -- and nothing is sent or sampled.
    cluster = _cluster(replicas=1)
    model = {}
    _load(cluster, model, 30)
    cluster.flush()
    cluster.quiesce()
    cut_id = cluster.manifest_logs[0].latest_cut().cut_id

    def state():
        return (cluster._ops, cluster.clock.now, cluster.network.messages,
                cluster.metrics.latency["read"].count)
    before = state()
    for bad in (True, float(cut_id), str(cut_id), -1, 2 ** 64, 10 ** 6):
        with pytest.raises(ConfigError, match="as_of_cut"):
            cluster.get(KEYS[0], as_of_cut=bad)
        assert state() == before
    assert cluster.get(KEYS[0], as_of_cut=cut_id) == model[KEYS[0]]
    assert state() != before
    cluster.close()


def test_a_time_travel_read_follows_a_rebalance_in_its_own_op():
    # The shard is resolved once, before the op is counted; when the op's
    # rebalance check retires it, the read goes to the shard that now owns
    # the key (whose log lacks the cut), never to the retired shard's
    # cached reader.
    cluster = _cluster(replicas=1, objstore_retain_cuts=64)
    model = {}
    _load(cluster, model, 150)
    cluster.flush()
    cluster.quiesce()
    cut_id = cluster.manifest_logs[0].latest_cut().cut_id
    assert cluster.get(KEYS[0], as_of_cut=cut_id) == model[KEYS[0]]
    old = cluster.router.shards[0]
    assert (old.shard_id, cut_id) in cluster._as_of_readers
    cluster.rebalancer.maybe_rebalance = lambda: cluster.rebalancer.split(old)
    cluster._ops = REBALANCE_CHECK_OPS - 1  # the next op runs the check
    with pytest.raises(ConfigError, match="not a retained manifest cut"):
        cluster.get(KEYS[0], as_of_cut=cut_id)
    owner = cluster.router.shard_for(KEYS[0])
    assert old.retired and owner is not old
    assert cluster.network.link_bytes[(0, owner.group.leader.node_id)] > 0
    cluster.close()


def test_failover_recovers_the_tier_off_the_shared_log():
    cluster = _cluster(replicas=3)
    model = {}
    _load(cluster, model, 150)
    cluster.flush()
    cluster.quiesce()
    report = cluster.crash_leader(0)
    assert "objstore_recovery" in report
    recovery = report["objstore_recovery"]
    assert recovery["cuts"] > 0
    cluster.check_invariants()
    for key, want in sorted(model.items()):
        assert cluster.get(key) == want
    # The promoted leader mirrors under its own node tag: further
    # checkpoints keep appending to the same shared log.
    before = cluster.manifest_logs[0].latest_cut().cut_id
    _load(cluster, model, 80, base=2000)
    cluster.flush()
    cluster.quiesce()
    assert cluster.manifest_logs[0].latest_cut().cut_id > before
    cluster.check_invariants()
    cluster.close()


def test_stats_surface_the_objstore_section():
    cluster = _cluster()
    model = {}
    _load(cluster, model, 100)
    cluster.flush()
    cluster.quiesce()
    stats = cluster.stats()
    section = stats["objstore"]
    assert section["objects"] > 0
    assert section["bytes_up"] > 0
    assert section["manifest_logs"][0]["latest_cut_id"] >= 1
    assert section["compaction_offload"] is False
    cluster.close()


def test_compaction_offload_runs_and_uses_the_shared_disk():
    from tests.conftest import tiny_lsm_options

    # The leveldb engine compacts through background pool jobs, so its
    # compaction debt visibly lands on the shared offload disk.
    offloaded = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=2, engine="leveldb",
        engine_options=tiny_lsm_options(),
        storage_options=tiny_storage_options(),
        objstore=ObjStoreOptions(), compaction_offload=True))
    model = {}
    _load(offloaded, model, 300)
    offloaded.flush()
    offloaded.quiesce()
    assert offloaded.offload_disk is not None
    # Compaction device time drained on the shared disk, not the leader's.
    assert offloaded.offload_disk.busy_until > 0.0
    for key, want in sorted(model.items()):
        assert offloaded.get(key) == want
    offloaded.check_invariants()
    assert offloaded.stats()["objstore"]["compaction_offload"] is True
    offloaded.close()


def test_compaction_offload_requires_the_store():
    with pytest.raises(ConfigError):
        ClusterOptions(n_shards=1, n_replicas=1, compaction_offload=True)
