"""The cluster layer: network, routing, replication, failover, rebalance.

Behavioural tests for :mod:`repro.cluster` on tiny engine configurations:
the simulated fabric's latency/bandwidth/FIFO accounting, the router's
key->shard map and scatter-gather scans, admission control under write-path
degradation, quorum-acked replication with zero acked-write loss across
failover, split/merge rebalance with exclusive file ownership, and the
byte-identical determinism of the cluster report.
"""

import json
import random
import sys

import pytest

from tests.conftest import tiny_iam_options, tiny_storage_options
from repro.cluster import (
    ClusterDB,
    ClusterOptions,
    KEY_SPACE_HI,
    KEY_SPACE_LO,
    LeaderKill,
    NetworkOptions,
    SimNetwork,
    even_ranges,
    parse_cluster_fault_spec,
)
from repro.cluster.invariants import (
    check_cluster_invariants,
    check_file_ownership,
    check_partition,
)
from repro.cluster.replica import ReplicaGroup
from repro.common.errors import ConfigError, StoreClosedError
from repro.objstore import ObjStoreOptions
from repro.storage.simdisk import SimClock

VALUE = 64


def tiny_cluster(n_shards=3, n_replicas=2, **kw) -> ClusterDB:
    return ClusterDB(ClusterOptions(
        n_shards=n_shards, n_replicas=n_replicas,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(), **kw))


def spread_keys(rng, n):
    return [rng.randrange(KEY_SPACE_HI) for _ in range(n)]


# --------------------------------------------------------------------- network

def test_network_charges_latency_and_bandwidth():
    clock = SimClock()
    net = SimNetwork(clock, NetworkOptions(
        latency_s=1e-3, bandwidth=1e6, frame_bytes=0))
    elapsed = net.send(0, 1, 1000)
    assert elapsed == pytest.approx(1e-3 + 1000 / 1e6)
    assert clock.now == pytest.approx(elapsed)
    assert net.messages == 1
    assert net.bytes_sent == 1000


def test_network_links_are_fifo():
    clock = SimClock()
    net = SimNetwork(clock, NetworkOptions(
        latency_s=0.0, bandwidth=1e3, frame_bytes=0))
    # Two reserved background transfers on one link queue behind each other.
    first = net.reserve(0, 1, 1000)   # 1 s of serialization
    second = net.reserve(0, 1, 1000)  # starts only after the first
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    # The reverse link is independent.
    assert net.reserve(1, 0, 1000) == pytest.approx(1.0)


def test_zero_network_never_advances_clock():
    clock = SimClock()
    net = SimNetwork(clock, NetworkOptions.zero())
    net.send(0, 1, 10_000)
    net.rpc(0, 1, 512, 512)
    assert clock.now == 0.0
    assert net.messages == 3


def test_reading_the_link_report_makes_no_link_and_a_zero_byte_ack_does():
    net = SimNetwork(SimClock(), NetworkOptions.zero())
    assert net.snapshot()["link_bytes"] == {} and net.link_bytes == {}
    assert net.send(1, 0, 0) == 0.0  # an ack on the zero network
    assert net.snapshot()["link_bytes"] == {"1->0": 0} and net.link_bytes == {(1, 0): 0}


def test_network_snapshot_is_sorted_and_deterministic():
    clock = SimClock()
    net = SimNetwork(clock, NetworkOptions())
    net.send(2, 1, 10)
    net.send(0, 1, 20)
    snap = net.snapshot()
    assert list(snap["link_bytes"]) == sorted(snap["link_bytes"])
    assert snap["link_bytes"] == {"0->1": 84, "2->1": 74}


@pytest.mark.parametrize("options", [
    NetworkOptions(), NetworkOptions.zero(),
    NetworkOptions(latency_s=3e-5, bandwidth=1e9 / 3, frame_bytes=0)])
@pytest.mark.parametrize("nbytes", [0, 1, 4096 + 7])
def test_send_and_reserve_charge_one_cost_model(options, nbytes):
    # send computes _charge's model in place; reserve still calls it.
    sender = SimNetwork(SimClock(), options)
    reserver = SimNetwork(SimClock(), options)
    service = sender.send(0, 1, nbytes)  # a fresh link: no queueing
    assert reserver.reserve(0, 1, nbytes).hex() == service.hex()
    assert sender.clock.now.hex() == service.hex()
    for net in (sender, reserver):
        assert (net.link_bytes, net.messages, net.bytes_sent) == (
            {(0, 1): nbytes + options.frame_bytes}, 1,
            nbytes + options.frame_bytes)


def test_bytes_and_int_values_of_one_size_cost_the_same_on_the_wire():
    # A read ships the value's payload size back, whatever its type.
    charged = []
    for value in (b"v" * 1000, 1000):
        cluster = tiny_cluster(n_shards=2, n_replicas=2)
        cluster.put(5, value)
        assert cluster.get(5) == value and cluster.scan() == [(5, value)]
        charged.append((cluster.network.bytes_sent, cluster.clock.now))
    assert charged[0] == charged[1]


@pytest.mark.parametrize("key", [-1, KEY_SPACE_HI, 2 ** 70])
def test_out_of_range_keys_are_config_errors_that_touch_nothing(key):
    cluster = tiny_cluster(n_shards=2, n_replicas=2)
    cluster.arm_faults(None, [LeaderKill(shard=0, at_op=2)])
    cluster.put(1, VALUE)
    net = cluster.network

    def state():
        return cluster._ops, cluster.clock.now, net.messages, net.bytes_sent
    before = state()
    for op in (lambda: cluster.put(key, VALUE), lambda: cluster.delete(key),
               lambda: cluster.get(key), lambda: cluster.multi_get([1, key])):
        with pytest.raises(ConfigError):
            op()
    assert state() == before and not cluster.failover_reports


# ------------------------------------------------------------------ partitions

def test_even_ranges_tile_the_key_space():
    for n in (1, 2, 3, 7, 16):
        ranges = even_ranges(n)
        assert len(ranges) == n
        assert ranges[0][0] == KEY_SPACE_LO
        assert ranges[-1][1] == KEY_SPACE_HI
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
    with pytest.raises(ConfigError):
        even_ranges(0)


def test_router_maps_every_key_to_exactly_one_shard(rng):
    cluster = tiny_cluster(n_shards=4, n_replicas=1)
    check_partition(cluster)
    for key in spread_keys(rng, 200) + [KEY_SPACE_LO, KEY_SPACE_HI - 1]:
        shard = cluster.router.shard_for(key)
        assert shard.lo <= key < shard.hi
    cluster.close()


# ------------------------------------------------------- routing vs model dict

def test_cluster_matches_model_dict(rng):
    cluster = tiny_cluster(n_shards=3, n_replicas=2)
    keys = spread_keys(rng, 128)
    model = {}
    for i in range(600):
        key = keys[rng.randrange(len(keys))]
        roll = rng.random()
        if roll < 0.55:
            cluster.put(key, VALUE)
            model[key] = VALUE
        elif roll < 0.65:
            cluster.delete(key)
            model.pop(key, None)
        elif roll < 0.85:
            assert cluster.get(key) == model.get(key)
        else:
            lo = keys[rng.randrange(len(keys))]
            got = cluster.scan(lo, None, limit=10)
            want = sorted((k, v) for k, v in model.items() if k >= lo)[:10]
            assert got == want
    assert cluster.scan() == sorted(model.items())
    cluster.check_invariants()
    cluster.close()


def test_scatter_gather_scan_respects_limit_and_order(rng):
    cluster = tiny_cluster(n_shards=4, n_replicas=1)
    keys = sorted(set(spread_keys(rng, 300)))
    for key in keys:
        cluster.put(key, VALUE)
    rows = cluster.scan(limit=25)
    assert [k for k, _ in rows] == keys[:25]
    # A full scan concatenates shard results in global key order.
    assert [k for k, _ in cluster.scan()] == keys
    cluster.close()


def test_admission_control_paces_degraded_shard(rng):
    cluster = tiny_cluster(n_shards=2, n_replicas=1)
    key = spread_keys(rng, 1)[0]
    shard = cluster.router.shard_for(key)
    cluster.put(key, VALUE)
    assert cluster.metrics.events.get("router:admission-delay", 0) == 0
    # Degrade the owning shard's write pipeline: the router must pace.
    shard.group.leader.db.runtime.pool.failed_streak = 3
    before = cluster.clock.now
    cluster.put(key, VALUE)
    assert cluster.metrics.events["router:admission-delay"] == 1
    assert cluster.clock.now - before >= 0.0005 * 4  # base * 2**(streak-1)
    cluster.close()


def test_admission_pause_caps_on_arbitrarily_long_streaks(rng):
    """Regression: ``2.0 ** (streak - 1)`` overflowed past streak ~1025.

    A shard whose pool keeps giving up for long enough used to crash the
    router with ``OverflowError``; the exponent is now capped and the
    delay clamps at ``ADMISSION_MAX_S`` -- while short streaks keep the
    exact legacy float doubling.
    """
    from repro.cluster.router import ADMISSION_BASE_S, ADMISSION_MAX_S

    cluster = tiny_cluster(n_shards=1, n_replicas=1)
    key = spread_keys(rng, 1)[0]
    shard = cluster.router.shard_for(key)
    pool = shard.group.leader.db.runtime.pool
    for streak in (1, 2, 7):  # small streaks: exact legacy doubling
        pool.failed_streak = streak
        before = cluster.clock.now
        cluster.put(key, VALUE)
        paused = cluster.clock.now - before
        expected = min(ADMISSION_BASE_S * (2.0 ** (streak - 1)),
                       ADMISSION_MAX_S)
        assert paused >= expected
    for streak in (1025, 10 ** 6):  # used to raise OverflowError
        pool.failed_streak = streak
        before = cluster.clock.now
        cluster.put(key, VALUE)
        assert cluster.clock.now - before >= ADMISSION_MAX_S
    cluster.close()


# ------------------------------------------------------- replication, failover

def test_replication_keeps_replicas_sequence_identical(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=3)
    for key in spread_keys(rng, 100):
        cluster.put(key, VALUE)
    group = cluster.router.shards[0].group
    seqs = [r.db._seq for r in group.live_replicas()]
    assert len(set(seqs)) == 1
    assert group.acked_seq == seqs[0] == 100
    cluster.close()


def test_a_put_ships_to_live_followers_and_counts_quorum_in_the_loop(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=3)
    group = cluster.router.shards[0].group
    quorums = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is ReplicaGroup.put.__code__:
            quorums.append(frame.f_locals["quorum"])

    # One follower of three dead, then both: the quorum is the live group's.
    for seq, (dead, live_followers) in enumerate(((2, 1), (1, 0)), 1):
        group.replicas[dead].alive = False
        before = cluster.network.messages
        sys.setprofile(profile)
        try:
            cluster.put(spread_keys(rng, 1)[0], VALUE)
        finally:
            sys.setprofile(None)
        assert cluster.network.messages - before == 2 + 2 * live_followers
        assert group.acked_seq == group.leader.db._seq == seq
        assert quorums == [group.quorum()] == [live_followers + 1]
        quorums.clear()
    assert [r.db._seq for r in group.replicas] == [2, 1, 0]
    cluster.close()


def test_a_write_to_a_closed_replica_raises_before_it_moves(rng):
    # The replica twin of test_put_on_a_closed_store_still_raises: the
    # group applies the router's record without IamDB.put's own check.
    cluster = tiny_cluster(n_shards=1, n_replicas=2)
    key = spread_keys(rng, 1)[0]
    cluster.put(key, VALUE)
    dbs = [r.db for r in cluster.router.shards[0].group.replicas]
    dbs[0].close()

    def state():
        return [(len(db.wal), len(db.memtable), db._seq) for db in dbs]

    before = state()
    for write in (lambda: cluster.put(key + 1, VALUE),
                  lambda: cluster.delete(key)):
        with pytest.raises(StoreClosedError):
            write()
        assert state() == before


def test_a_cluster_delete_reads_none_on_every_replica(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=3)
    keys = spread_keys(rng, 40)
    for key in keys:
        cluster.put(key, VALUE)
    for key in keys[::2]:
        cluster.delete(key)
    group = cluster.router.shards[0].group
    want = [None if i % 2 == 0 else VALUE for i in range(len(keys))]
    assert [cluster.get(key) for key in keys] == want
    for replica in group.live_replicas():
        assert [replica.db.get(key) for key in keys] == want
    seqs = {r.db._seq for r in group.live_replicas()}
    assert seqs == {group.acked_seq} == {60}
    cluster.close()


def test_failover_loses_no_acked_write(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=3)
    keys = spread_keys(rng, 80)
    for key in keys:
        cluster.put(key, VALUE)
    group = cluster.router.shards[0].group
    old_leader = group.leader.node_id
    report = cluster.crash_leader(0)
    assert report["dead_node"] == old_leader
    assert report["promoted_node"] != old_leader
    assert report["recovered_seq"] >= report["acked_seq"] == 80
    for key in keys:
        assert cluster.get(key) == VALUE
    check_cluster_invariants(cluster)
    # Writes keep flowing through the promoted leader.
    cluster.put(keys[0], VALUE + 1)
    assert cluster.get(keys[0]) == VALUE + 1
    cluster.close()


def test_single_replica_leader_kill_is_skipped(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=1)
    cluster.put(spread_keys(rng, 1)[0], VALUE)
    report = cluster.crash_leader(0)
    assert report["skipped"] == "no live follower"
    assert cluster.metrics.events["failover:skipped"] == 1
    # The surviving single copy keeps serving.
    assert cluster.router.shards[0].group.leader.alive
    cluster.close()


def test_scheduled_kill_fires_at_op(rng):
    cluster = tiny_cluster(n_shards=2, n_replicas=2)
    cluster.arm_faults(None, [LeaderKill(shard=1, at_op=20)])
    keys = spread_keys(rng, 40)
    model = {}
    for key in keys:
        cluster.put(key, VALUE)
        model[key] = VALUE
    assert len(cluster.failover_reports) == 1
    assert cluster.failover_reports[0]["shard"] == 1
    for key, want in model.items():
        assert cluster.get(key) == want
    cluster.close()


# ------------------------------------------------------------------- rebalance

def test_split_and_merge_preserve_data_and_ownership(rng):
    cluster = tiny_cluster(n_shards=2, n_replicas=2)
    model = {}
    for key in spread_keys(rng, 150):
        cluster.put(key, VALUE)
        model[key] = VALUE
    fat = max(cluster.router.shards, key=lambda s: s.data_bytes())
    cluster.rebalancer.split(fat)
    assert len(cluster.router.shards) == 3
    check_cluster_invariants(cluster)
    assert cluster.scan() == sorted(model.items())

    left, right = cluster.router.shards[0], cluster.router.shards[1]
    cluster.rebalancer.merge(left, right)
    assert len(cluster.router.shards) == 2
    check_cluster_invariants(cluster)
    check_file_ownership(cluster)
    assert cluster.scan() == sorted(model.items())
    snap = cluster.rebalancer.snapshot()
    assert snap["splits"] == 1 and snap["merges"] == 1
    assert snap["moved_bytes"] > 0
    cluster.close()


def _assert_each_leader_is_its_live_first_replica(cluster):
    for shard in cluster.router.shards:
        assert shard.group.leader is shard.group.replicas[0]
        assert shard.group.leader.alive
    check_cluster_invariants(cluster)


def test_the_leader_field_follows_failover_bootstrap_and_rebalance(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=2, objstore=ObjStoreOptions())
    for key in spread_keys(rng, 120):
        cluster.put(key, VALUE)
    promoted = cluster.crash_leader(0)["promoted_node"]
    _assert_each_leader_is_its_live_first_replica(cluster)
    cluster.spawn_follower(0)  # appends a follower: the leader stays
    assert cluster.router.shards[0].group.leader.node_id == promoted
    _assert_each_leader_is_its_live_first_replica(cluster)
    cluster.rebalancer.split(cluster.router.shards[0])
    _assert_each_leader_is_its_live_first_replica(cluster)
    cluster.rebalancer.merge(*cluster.router.shards)
    _assert_each_leader_is_its_live_first_replica(cluster)
    cluster.close()


def test_auto_split_triggers_on_size(rng):
    cluster = tiny_cluster(n_shards=2, n_replicas=1, split_threshold_bytes=8_000)
    model = {}
    for i, key in enumerate(spread_keys(rng, 600), start=1):
        cluster.put(key, VALUE)
        model[key] = VALUE
        # The check runs every REBALANCE_CHECK_OPS (512) routed ops.
        assert cluster.rebalancer.splits == (i >= 512)
    assert len(cluster.router.shards) == 3
    check_cluster_invariants(cluster)
    assert cluster.scan() == sorted(model.items())
    cluster.close()


def test_failover_after_rebalance_ingest(rng):
    """A split-created shard must survive a leader kill (durable ingest)."""
    cluster = tiny_cluster(n_shards=1, n_replicas=2)
    model = {}
    for key in spread_keys(rng, 120):
        cluster.put(key, VALUE)
        model[key] = VALUE
    cluster.rebalancer.split(cluster.router.shards[0])
    report = cluster.crash_leader(0)
    assert report["recovered_seq"] >= report["acked_seq"]
    assert cluster.scan() == sorted(model.items())
    check_cluster_invariants(cluster)
    cluster.close()


# ----------------------------------------------------------------- fault specs

def test_parse_cluster_fault_spec_splits_kills_and_device_faults():
    dev, kills = parse_cluster_fault_spec("kill=1:400,rate=0.002,seed=5")
    assert dev == "rate=0.002,seed=5"
    assert kills == [LeaderKill(shard=1, at_op=400)]
    dev, kills = parse_cluster_fault_spec("kill=0:10,kill=2:5")
    assert dev is None
    assert kills == [LeaderKill(2, 5), LeaderKill(0, 10)]
    with pytest.raises(ConfigError):
        parse_cluster_fault_spec("kill=3")


# ---------------------------------------------------------------- determinism

def _run_once(seed):
    cluster = tiny_cluster(n_shards=3, n_replicas=2)
    cluster.arm_faults(None, [LeaderKill(shard=1, at_op=150)])
    rng = random.Random(seed)
    keys = spread_keys(rng, 96)
    for i in range(300):
        key = keys[rng.randrange(len(keys))]
        roll = rng.random()
        if roll < 0.6:
            cluster.put(key, VALUE)
        elif roll < 0.7:
            cluster.delete(key)
        else:
            cluster.get(key)
    cluster.quiesce()
    stats = cluster.stats()
    cluster.close()
    return json.dumps(stats, sort_keys=True, separators=(",", ":"))


def test_cluster_report_is_byte_identical_across_runs():
    assert _run_once(7) == _run_once(7)


def test_cluster_report_shape():
    cluster = tiny_cluster(n_shards=2, n_replicas=2)
    rng = random.Random(3)
    for key in spread_keys(rng, 60):
        cluster.put(key, VALUE)
    cluster.get(spread_keys(rng, 1)[0])
    stats = cluster.stats()
    assert stats["n_shards"] == 2 and stats["n_replicas"] == 2
    assert stats["ops_routed"] == 61
    assert set(stats["load_imbalance"]) == {"ops_max_over_mean",
                                            "bytes_max_over_mean"}
    assert stats["load_imbalance"]["ops_max_over_mean"] >= 1.0
    assert "insert" in stats["tail_latency"]
    assert stats["metrics"]["user_bytes"] > 0
    assert len(stats["shards"]) == 2
    json.dumps(stats)  # the whole report is JSON-serializable
    cluster.close()


def test_closed_cluster_rejects_ops(rng):
    cluster = tiny_cluster(n_shards=1, n_replicas=1)
    cluster.close()
    with pytest.raises(StoreClosedError):
        cluster.put(1, VALUE)
