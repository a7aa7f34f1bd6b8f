"""The per-operation tax of the write spine, and the memo that pays for it.

A put on an idle store is the paper's two steps (§5.2: log append, memtable
insert) plus a gate, a pump and the accounting.  The budgets below count
function calls -- Python and builtin, under ``sys.setprofile``, so the
figures repeat to the digit -- and pin that this fixed cost depends on what
changed since the last operation, not on re-deriving what did not.

The state that buys the idle pump is the pool's provider memo
(``BackgroundPool._provider_idle``), the ``settled`` flag that lets a pump
skip the thread fill, and the ``idle`` flag that callers test instead of
calling the pool: the second half of this file proves none of them hides
work -- in every write-path-golden configuration, across cluster
configurations, and after each kind of structure change outside a job.
"""

import gc
import random
import sys

import pytest

from repro.bench.scale import SSD_100G, make_db
from repro.cluster import ClusterDB, ClusterOptions, attach_cluster_trace
from repro.cluster.network import SimNetwork
from repro.common.errors import StoreClosedError
from repro.common.options import DeviceProfile, FaultOptions
from repro.db.iamdb import IamDB
from repro.faults.crash import CrashPoints, SimulatedCrash
from repro.metrics import MetricsRegistry
from repro.objstore import (
    ObjStoreOptions,
    ObjStoreTier,
    SharedManifestLog,
    SimObjectStore,
)
from repro.objstore.tiering import bootstrap_from_store
from repro.storage.background import BackgroundJob, BackgroundPool
from repro.storage.simdisk import SimDisk
from tests.conftest import tiny_lsm_options, tiny_storage_options
from tests.write_path_golden import CASES, make_golden_db


def _calls(fn):
    """Python + builtin function calls made by ``fn()`` (itself included)."""
    n = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            n[0] += 1

    gc.disable()  # hypothesis hooks gc.callbacks: a collection would be counted
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return n[0] - 1  # the closing sys.setprofile(None) is a builtin call too


# ------------------------------------------------------------ call budgets

def _hundred_idle_puts(config, draining=False):
    """Calls made by 100 puts on a fresh store that stay in its memtable
    (beside a submitted job that drains throughout, if ``draining``)."""
    db = make_db(config, SSD_100G)
    job = db.runtime.pool.submit("probe", lambda: 1.0) if draining else None

    def hundred_puts():
        for i in range(100):
            db.put(i * 7919, 256)

    calls = _calls(hundred_puts)
    assert db.engine.flushes == 0  # the budget is the spine, not a flush
    assert job is None or 0.0 < job.debt_s < 1.0
    return calls


@pytest.mark.parametrize("config, budget", [("I-1t", 24), ("L", 34)])
def test_put_on_an_idle_store_stays_in_budget(config, budget):
    # Parent commit: 42 calls per put on I-1t, 51 on L.
    assert _hundred_idle_puts(config) <= 100 * budget


@pytest.mark.parametrize("config, budget", [("I-1t", 22), ("L", 25)])
def test_put_records_its_latency_in_one_append(config, budget):
    # Parent commit: 22.08 calls per put on I-1t, 25.12 on L (the latency
    # went record_latency -> record -> append; now it is one append).
    assert _hundred_idle_puts(config) <= 100 * budget


@pytest.mark.parametrize("config", ["I-1t", "L"])
def test_histograms_add_no_calls_per_op(config):
    # Parent commit: +6 calls per put and +3 per get and scan, the second
    # collector each op fed; the histograms are now folded on read.
    plain, hist = make_db(config, SSD_100G), make_db(config, SSD_100G)
    hist.metrics.enable_histograms()
    for op in (lambda db: [db.put(i * 7919, 256) for i in range(50)],
               lambda db: [db.get(i * 7919) for i in range(50)],
               lambda db: [db.scan(i * 7919, limit=10) for i in range(50)]):
        assert _calls(lambda: op(hist)) == _calls(lambda: op(plain))
    assert hist.metrics.hist_percentiles()["scan"]["count"] == 50.0


def test_hist_percentiles_calls_do_not_grow_with_samples():
    # It runs inside the counted region of every benchmark row (the
    # workload report reads it), so a fold is a fixed number of calls.
    def registry(n_ops):
        m = MetricsRegistry()
        m.enable_histograms()
        rng = random.Random(5)
        for _ in range(n_ops):
            m.record_latency(rng.choice(("insert", "read", "scan")),
                             rng.lognormvariate(-9.0, 1.5))
        return m

    small, large = registry(1_000), registry(10_000)
    assert _calls(small.hist_percentiles) == _calls(large.hist_percentiles)
    assert large.hist_percentiles()["get"]["count"] > 3_000


@pytest.mark.parametrize("config", ["I-1t", "L"])
def test_idle_pump_is_one_call(config):
    # Parent commit: 2 calls (Runtime.pump called into the pool to learn
    # that it was idle).
    db = make_db(config, SSD_100G)
    db.runtime.pump()  # the provider answers None once
    assert db.runtime.pool.idle
    assert _calls(db.runtime.pump) <= 1


def test_pump_with_one_draining_job_stays_in_budget():
    # Parent commit: 16 calls (a thread fill before each pass, and a
    # second pass whose grant was refused).
    db = make_db("I-1t", SSD_100G)
    job = db.runtime.pool.submit("probe", lambda: 1.0)
    db.runtime.clock.advance(1e-3)
    assert _calls(db.runtime.pump) <= 5
    assert 0.0 < job.debt_s < 1.0  # it really drained, and is not done


@pytest.mark.parametrize("config, budget", [("I-1t", 26), ("L", 29)])
def test_put_beside_a_draining_job_stays_in_budget(config, budget):
    # Parent commit: 36.02 calls per put on I-1t, 39.02 on L.
    assert _hundred_idle_puts(config, draining=True) <= 100 * budget


def test_idle_cluster_pump_all_stays_in_budget():
    # Parent commit: 18 calls at 4x2, two idle-pump calls per node; an
    # idle node now costs an attribute test, at any node count.
    for shards, replicas in [(4, 2), (16, 3)]:
        cluster = ClusterDB(ClusterOptions(n_shards=shards,
                                           n_replicas=replicas))
        cluster._pump_all()
        assert _calls(cluster._pump_all) <= 2


def _quiesced_cluster(shards, histograms=False):
    cluster = ClusterDB(ClusterOptions(n_shards=shards, n_replicas=2))
    if histograms:
        cluster.enable_histograms()
    cluster.put(12345, 100)  # makes the links the measured ops use
    cluster.quiesce()
    return cluster


def test_cluster_ops_cost_the_same_at_any_node_count():
    # Parent commit: +2 calls per extra node on every op (its idle pump).
    small, large = _quiesced_cluster(2), _quiesced_cluster(8)
    for op in (lambda db: db.put(12345, 100), lambda db: db.get(12345)):
        assert _calls(lambda: op(small)) == _calls(lambda: op(large))


def test_cluster_histograms_add_no_calls_per_op():
    # Parent commit: +18 calls per put and +11 per get at 2x2 (the router
    # tier and every replica that applied the op observed it).
    plain, hist = _quiesced_cluster(2), _quiesced_cluster(2, histograms=True)
    for op in (lambda db: db.put(12345, 100), lambda db: db.get(12345)):
        assert _calls(lambda: op(hist)) == _calls(lambda: op(plain))


def test_one_hardware_request_stays_in_budget():
    # One queueing rule (SimResource) under all three.  Parent commit: a
    # grant 3 calls, a refused grant 2 (max and min builtins); a link
    # send's 4, a store put's 4 and the disk's 4 / 2 must not rise.
    disk = SimDisk(DeviceProfile("t", 1e-4, 1e-5, 1e6, 1e6))
    net, store = SimNetwork(disk.clock), SimObjectStore(disk.clock)
    net.send(0, 1, 100)  # a link is made at its first message
    assert _calls(lambda: net.send(0, 1, 100)) - 1 <= 4
    assert _calls(lambda: store.put("a", 100)) - 1 <= 4
    assert _calls(lambda: disk.fg_io(nbytes_read=4096, seeks=1)) - 1 <= 4
    assert _calls(lambda: disk.sync_drain(0.5)) - 1 <= 2
    disk.clock.advance(1.0)
    assert _calls(lambda: disk.bg_grant(0.0, 0.25)) - 1 <= 1
    assert disk.busy_until < disk.clock.now  # it granted, and idle remains
    assert _calls(lambda: disk.bg_grant(disk.clock.now + 1.0, 0.25)) - 1 <= 1


def test_put_on_a_closed_store_still_raises():
    db = make_db("I-1t", SSD_100G)
    db.put(1, 16)
    db.close()
    with pytest.raises(StoreClosedError):
        db.put(2, 16)
    with pytest.raises(StoreClosedError):
        db.delete(1)


def test_crash_points_still_see_every_wal_append():
    db = make_db("I-1t", SSD_100G)
    counter = CrashPoints()
    db.runtime.arm_crash_points(counter)
    for i in range(50):
        db.put(i, 16)
    db.delete(0)
    assert counter.counts["post-wal-append"] == 51
    db.runtime.arm_crash_points(CrashPoints("post-wal-append", 3))
    db.put(100, 16)
    db.put(101, 16)
    with pytest.raises(SimulatedCrash):
        db.put(102, 16)


# ------------------------------------------------------------ memo soundness

def _check_settled(pool, skips):
    """Make ``pool`` prove each settled skip, counted in ``skips[0]``: when
    a pump reads ``settled`` as true, and so skips a fill, the threads are
    full, or nothing is queued and the provider (the engine's
    ``pick_background_job``) is memoised idle and really answers None."""

    class Checked(type(pool)):
        @property
        def settled(self):
            if self._settled:
                skips[0] += 1
                assert len(self.active) >= self.threads or (
                    not self.queue and self._provider_idle
                    and (self.provider is None or self.provider() is None)), (
                    "a settled pool skipped a fill that had work")
            return self._settled

        @settled.setter
        def settled(self, value):
            self._settled = value

    pool._settled = pool.__dict__.pop("settled")
    pool.__class__ = Checked


def _check_every_skip(db):
    """Make the pool prove each provider skip: whenever it enters a fill or
    a pump believing the provider idle, the engine's picker must agree --
    and a pool that calls itself idle holds no job."""
    pool, engine = db.runtime.pool, db.engine
    skips = [0]

    def checked(inner):
        def call():
            assert not (pool.idle and (pool.active or pool.queue))
            if pool._provider_idle and pool.provider is not None:
                skips[0] += 1
                assert engine.pick_background_job() is None, (
                    "the provider memo hid a background job")
            return inner()
        return call

    pool._fill_threads = checked(pool._fill_threads)
    pool.pump = checked(pool.pump)
    db.runtime.pump = checked(db.runtime.pump)
    settled_skips = [0]
    _check_settled(pool, settled_skips)
    return skips, settled_skips


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_never_hides_a_job_in_golden_configurations(case):
    config, runner, kw = CASES[case]
    db = make_golden_db(config, **kw)
    skips, settled_skips = _check_every_skip(db)
    runner(db)
    assert skips[0] > 0 and settled_skips[0] > 0
    db.close()


def test_an_enqueue_unsettles_the_pool():
    # The queue is a fill's input: a job entering it unsettles the pool
    # even where no fill follows at once.
    disk = SimDisk(DeviceProfile("t", 0.0, 0.0, 1e6, 1e6))
    pool = BackgroundPool(disk, 2)
    pool.submit("running", lambda: 100.0)
    assert pool.settled and not pool.idle  # a free thread, nothing to give it
    job = BackgroundJob("queued", lambda: 1.0)
    pool._enqueue(job, high_priority=False)
    pool.pump()
    assert job in pool.active


def _spy_on_provider(pool):
    """Count provider consultations without waking the pool."""
    asked = [0]
    inner = pool.provider

    def provider():
        asked[0] += 1
        return inner()

    pool.provider = provider
    return asked


def _leveldb(clock=None):
    return IamDB("leveldb", engine_options=tiny_lsm_options(),
                 storage_options=tiny_storage_options(), clock=clock)


def _owe_a_compaction(put, db):
    """Write through ``put`` until ``db``'s newest checkpoint holds a full
    L0 -- taken when the trigger-th flush retired, just before the picker
    compacted those files away -- then settle ``db``'s pool."""
    trigger = db.engine.options.l0_compaction_trigger
    i = 0
    while db.engine.flushes < trigger:
        i += 1
        put((0x9E3779B97F4A7C15 * i) % 2 ** 64, 64)
    db.runtime.quiesce()
    db.runtime.pump()
    assert db.runtime.pool._provider_idle
    assert len(db.engine.levels[0]) < trigger
    return trigger


def test_first_pump_after_crash_recovery_consults_the_provider():
    db = _leveldb()
    trigger = _owe_a_compaction(db.put, db)
    db.crash_and_recover()
    assert len(db.engine.levels[0]) == trigger  # the checkpoint's full L0
    asked = _spy_on_provider(db.runtime.pool)
    db.runtime.pump()
    assert asked[0] >= 1
    assert len(db.engine.levels[0]) < trigger  # ... and the compaction ran


def test_first_pump_after_objstore_bootstrap_consults_the_provider():
    source = _leveldb()
    store = SimObjectStore(source.runtime.clock, ObjStoreOptions.zero())
    log = SharedManifestLog(store, "shard0/")
    ObjStoreTier(source, log)
    trigger = _owe_a_compaction(source.put, source)
    fresh = _leveldb(clock=source.runtime.clock)
    fresh.runtime.pump()
    assert fresh.runtime.pool._provider_idle
    asked = _spy_on_provider(fresh.runtime.pool)
    bootstrap_from_store(fresh, log)
    assert len(fresh.engine.levels[0]) == trigger
    fresh.runtime.pump()
    assert asked[0] >= 1
    assert len(fresh.engine.levels[0]) < trigger


def test_first_pump_after_shipped_follower_restore_consults_the_provider():
    cluster = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1, engine="leveldb",
        engine_options=tiny_lsm_options(),
        storage_options=tiny_storage_options()))
    group = cluster.router.shards[0].group
    trigger = _owe_a_compaction(cluster.put, group.leader.db)
    replica = cluster._make_replica()
    replica.db.runtime.pump()
    assert replica.db.runtime.pool._provider_idle
    asked = _spy_on_provider(replica.db.runtime.pool)
    group.add_follower(replica, mode="ship")
    replica.db.runtime.pump()
    assert replica.db.engine.flushes == 0  # no job of its own woke the pool
    assert asked[0] >= 1
    assert len(replica.db.engine.levels[0]) < trigger


def _assert_nothing_to_pump(pool):
    assert not pool.active and not pool.queue and pool._provider_idle
    assert pool.provider is None or pool.provider() is None, (
        "an idle pool hid a background job")


def _check_every_node_skip(cluster):
    """Make the cluster prove each skip: every node ``_pump_all`` passes
    over, and every pool a fill finds idle, has nothing a pump would do;
    every settled skip is checked as in :func:`_check_settled`."""
    skips, settled_skips = [0], [0]

    def watch(replica):
        pool = replica.db.runtime.pool
        fill = pool._fill_threads

        def checked_fill():
            if pool.idle:
                _assert_nothing_to_pump(pool)
            return fill()
        pool._fill_threads = checked_fill
        _check_settled(pool, settled_skips)
        return replica

    def checked_pump_all():
        for shard in cluster.router.shards:
            for replica in shard.group.replicas:
                runtime = replica.db.runtime
                if (replica.alive and runtime.pool.idle
                        and runtime.sampler is None):
                    skips[0] += 1
                    _assert_nothing_to_pump(runtime.pool)
        pump_all()

    pump_all, make = cluster._pump_all, cluster._make_replica
    cluster._pump_all = checked_pump_all
    cluster._make_replica = lambda: watch(make())
    for shard in cluster.router.shards:
        for replica in shard.group.replicas:
            watch(replica)
    return skips, settled_skips


def _mixed_ops(cluster, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        key = (0x9E3779B97F4A7C15 * rng.randrange(1, 400)) % 2 ** 64
        if rng.random() < 0.8:
            cluster.put(key, 64)
        else:
            cluster.get(key)


def _kill_a_leader(cluster):
    _owe_a_compaction(cluster.put, cluster.router.shards[0].group.replicas[1].db)
    cluster.crash_leader(0)  # its promoted follower restores on an idle pool


SKIP_CASES = {  # topology, then what happens between two runs of ops
    "leader-kill": ({"n_shards": 1, "n_replicas": 3}, _kill_a_leader),
    "transient-faults": ({}, lambda c: c.arm_faults(
        FaultOptions(seed=5, rate=0.2), [])),
    "split-merge": ({}, lambda c: c.rebalancer.merge(
        *c.rebalancer.split(c.router.shards[0]))),
    "objstore-follower": ({"n_shards": 1, "n_replicas": 1,
                           "objstore": ObjStoreOptions()},
                          lambda c: c.spawn_follower(0, mode="objstore")),
    "compaction-offload": ({"objstore": ObjStoreOptions(),
                            "compaction_offload": True}, lambda c: None),
    "traced": ({}, attach_cluster_trace),
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_cluster_skips_only_nodes_with_nothing_to_pump(case):
    topology, between = SKIP_CASES[case]
    cluster = ClusterDB(ClusterOptions(**{
        "n_shards": 2, "n_replicas": 2, **topology}, engine="leveldb",
        engine_options=tiny_lsm_options(),
        storage_options=tiny_storage_options()))
    skips, settled_skips = _check_every_node_skip(cluster)
    _mixed_ops(cluster, 200, seed=3)
    between(cluster)
    _mixed_ops(cluster, 200, seed=4)
    cluster.quiesce()
    assert skips[0] > 0 and settled_skips[0] > 0
    cluster.check_invariants()


def test_pump_after_set_provider_consults_the_provider():
    disk = SimDisk(DeviceProfile("t", 0.0, 0.0, 1e6, 1e6))
    pool = BackgroundPool(disk, 1)
    asked = []
    pool.set_provider(lambda: asked.append(1))
    pool.pump()
    pool.pump()
    assert len(asked) == 1  # answered None once; not asked again
    pool.set_provider(pool.provider)  # even the same one: a swap is a wake
    pool.pump()
    pool.pump()
    assert len(asked) == 2
    pool.set_provider(None)  # no provider: nothing to ask, and no crash
    pool.pump()
    assert len(asked) == 2 and pool._provider_idle


class _DoomedJobsFail:
    """Injector stub: every activation of a job named "doomed" faults."""

    options = FaultOptions(max_retries=1, backoff_base_s=1.0, backoff_max_s=1.0)
    giveups = 0

    def job_attempt_fails(self, job):
        return job.name == "doomed"


def test_compaction_give_up_wakes_the_provider():
    # The one event no golden configuration reaches with the memo set: a
    # re-queued compaction gives up, its on_complete frees what it held,
    # and the provider -- idle until then -- has work again.
    disk = SimDisk(DeviceProfile("t", 0.0, 0.0, 1e6, 1e6))
    pool = BackgroundPool(disk, 1)
    pool.injector = _DoomedJobsFail()
    held = []
    names = iter(["doomed", "retry"])

    def provider():
        if held:
            return None
        held.append(1)
        return BackgroundJob(next(names), lambda: 100.0, on_complete=held.clear)

    pool.set_provider(provider)
    pool.pump()  # "doomed" faults once and backs off; the provider is idle
    assert pool._provider_idle and [j.name for j in pool.queue] == ["doomed"]
    disk.clock.now = 2.0
    pool.pump()  # second fault: give-up, on_complete, provider asked again
    assert [j.name for j in pool.active] == ["retry"]
