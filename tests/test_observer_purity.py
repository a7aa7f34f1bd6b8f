"""Observers never perturb the simulation, and every span that opens closes.

Each observer entry point below is called between ops on all six engines
and on a 2x2 object-store cluster.  None may move the simulated clock,
charge a device, link or store byte, or touch background-pool or page-cache
state; they may only fill their own buffers (sampler rows, sanitizer
counters).  After ``quiesce`` and ``finish`` every tracer has closed each
span it opened.
"""

from __future__ import annotations

import random

import pytest

from repro.check.sanitizer import SanitizerOptions
from repro.cluster import ClusterDB, ClusterOptions, attach_cluster_trace
from repro.cluster.invariants import check_cluster_invariants
from repro.common.options import SSD, StorageOptions
from repro.db.iamdb import ENGINE_TABLE, IamDB
from repro.faults.crash import tiny_store
from repro.objstore import ObjStoreOptions, SimObjectStore
from repro.obs.session import attach_trace
from repro.obs.tracer import Tracer
from repro.storage.runtime import Runtime

#: The observer entry points of one DB (session = its trace session).
DB_OBSERVERS = {
    "IamDB.stats": lambda db, s: db.stats(),
    "IamDB.check_invariants": lambda db, s: db.check_invariants(),
    "engine.check_invariants": lambda db, s: db.engine.check_invariants(),
    "engine.describe": lambda db, s: db.engine.describe(),
    "engine.scan_cursors": lambda db, s: db.engine.scan_cursors(None, None),
    "Sanitizer.check_tree": lambda db, s: db.sanitizer.check_tree(db.engine),
    "Sanitizer.check_db": lambda db, s: db.sanitizer.check_db(),
    "Sanitizer.summary": lambda db, s: db.sanitizer.summary(),
    "MetricsRegistry.snapshot": lambda db, s: db.metrics.snapshot(),
    "MetricsRegistry.stall_breakdown": lambda db, s: db.metrics.stall_breakdown(),
    "MetricsRegistry.hist_percentiles": lambda db, s: db.metrics.hist_percentiles(),
    "MetricsRegistry.render_prom": lambda db, s: db.metrics.render_prom(),
    "TimeseriesSampler.finalize": lambda db, s: s.sampler.finalize(),
}

#: The cluster's own observer entry points.
CLUSTER_OBSERVERS = {
    "ClusterDB.stats": lambda c: c.stats(),
    "ClusterDB.check_invariants": lambda c: c.check_invariants(),
    "Shard.stats": lambda c: [shard.stats() for shard in c.router.shards],
    "check_cluster_invariants": check_cluster_invariants,
}


def db_state(db):
    """Everything an observer must leave alone on one DB's stack."""
    rt = db.runtime
    disk, pool, cache = rt.disk, rt.pool, rt.cache
    return (rt.clock.now, disk.busy_until, disk.bytes_read, disk.bytes_written,
            disk.read_ops, disk.write_ops, disk.seeks, disk.live_bytes,
            [(j.job_id, j.state, j.debt_s) for j in pool.active],
            [j.job_id for j in pool.queue], pool.completed_jobs,
            pool.settled, pool.idle, pool.failed_streak, pool.bg_drained_s,
            cache.hits, cache.insertions, cache.evictions, list(cache._lru),
            db.metrics.snapshot())


def cluster_state(cluster):
    store = cluster.objstore
    return (cluster.clock.now, cluster.network.messages,
            cluster.network.bytes_sent, cluster.network.link_bytes,
            store.puts, store.gets, store.lists, store.deletes,
            store.bytes_up, store.bytes_down, store.busy_until,
            [db_state(r.db) for sh in cluster.router.shards
             for r in sh.group.replicas])


def drive(rng, store, n_ops, observe, scans=True):
    keys = sorted(rng.getrandbits(64) for _ in range(600))
    for i in range(n_ops):
        key = keys[rng.randrange(600)]
        roll = rng.random()
        if roll < 0.6:
            store.put(key, 64)
        elif roll < 0.7:
            store.delete(key)
        elif roll < 0.9 or not scans:
            store.get(key)
        else:
            store.scan(key, key + 2 ** 58, limit=6)
        if i % 40 == 39:
            observe()


@pytest.mark.parametrize("engine", sorted(ENGINE_TABLE))
def test_observers_leave_a_db_untouched_and_spans_balance(engine):
    db = IamDB(engine, sanitizer_options=SanitizerOptions(halt_on_violation=True),
               **tiny_store(engine))
    session = attach_trace(db)
    observers = {name: call for name, call in DB_OBSERVERS.items()
                 if engine != "lsmtrie" or name != "engine.scan_cursors"}

    def observe():
        for name, call in observers.items():
            before = db_state(db)
            call(db, session)
            assert db_state(db) == before, name

    drive(random.Random(7), db, 800, observe, scans=engine != "lsmtrie")
    db.flush()
    observe()
    db.quiesce()
    session.finish()
    tracer = session.tracer
    assert tracer.spans_opened > 0
    assert (tracer.spans_opened, tracer.open_spans) == (tracer.spans_closed, {})


def test_observers_leave_an_objstore_cluster_untouched_and_spans_balance():
    cluster = ClusterDB(ClusterOptions(n_shards=2, n_replicas=2,
                                       objstore=ObjStoreOptions(),
                                       **tiny_store("iam")))
    trace = attach_cluster_trace(cluster)

    def observe():
        for name, call in CLUSTER_OBSERVERS.items():
            before = cluster_state(cluster)
            call(cluster)
            assert cluster_state(cluster) == before, name
        for _, _, session in trace._sessions:
            before = cluster_state(cluster)
            session.sampler.finalize()
            assert cluster_state(cluster) == before, "TimeseriesSampler.finalize"

    drive(random.Random(11), cluster, 900, observe, scans=False)
    cluster.flush()
    observe()
    cluster.quiesce()
    trace.finish()
    assert cluster.objstore.puts > 0
    leaders = [session.tracer for _, _, session in trace._sessions]
    assert len(leaders) == 2 and all(t.spans_opened > 0 for t in leaders)
    for tracer in [trace.tracer] + leaders:
        assert (tracer.spans_opened, tracer.open_spans) == (tracer.spans_closed, {})


def test_every_object_store_request_closes_its_span_queued_or_not():
    # A cluster's manifest puts always queue behind its mirror uploads, so
    # the idle-store branch is driven here directly.
    rt = Runtime(StorageOptions(device=SSD, page_cache_bytes=4096, block_size=256))
    rt.attach_objstore(SimObjectStore(rt.clock, ObjStoreOptions()))
    tracer = Tracer(rt.clock)
    rt.attach_tracer(tracer)
    for busy in (False, True):
        if busy:
            rt.objstore_reserve_put("mirror", 1 << 20)
        rt.objstore_put(f"log{busy}", 100)
        rt.objstore_get(f"log{busy}")
        rt.objstore_read_fill(4096, 2)
        rt.objstore_list("log")
        rt.objstore_delete(f"log{busy}")
    assert "objstore-append" in rt.metrics.stalls  # the busy round queued
    assert (tracer.spans_opened, tracer.open_spans) == (8, {})
    assert tracer.spans_closed == 8
