"""Observer fingerprint: one sha256 over everything a seeded run answers and
reports while every observer is called between its ops.

Each of the six engines (tiny stores) and a 2x2 object-store cluster runs a
seeded put / delete / get / scan mix under a trace session; every 50 ops the
observers run (``stats``, ``check_invariants``, the sampler's ``finalize``)
and their output is hashed with every read's answer, the clock, the disk and
network counters and the tracer's event counts.  Two trees print the same
digest iff no observable output of this run differs between them, which is
how ``kill_table.py`` shows that a surviving mutant is equivalent.

Run from a checkout: ``PYTHONPATH=src python3 benchmarks/mutants/fingerprint.py``.
"""

from __future__ import annotations

import hashlib
import random

from repro.cluster import ClusterDB, ClusterOptions, attach_cluster_trace
from repro.db.iamdb import ENGINE_TABLE, IamDB
from repro.faults.crash import tiny_store
from repro.objstore import ObjStoreOptions
from repro.obs.session import attach_trace


def drive(h, store, rng, observe, scans):
    keys = sorted(rng.getrandbits(64) for _ in range(500))
    for i in range(700):
        key = keys[rng.randrange(len(keys))]
        roll = rng.random()
        if roll < 0.6:
            store.put(key, 32 + i % 64)
        elif roll < 0.7:
            store.delete(key)
        elif roll < 0.9 or not scans:
            h.update(repr(store.get(key)).encode())
        else:
            h.update(repr(store.scan(key, key + 2 ** 58, limit=6)).encode())
        if i % 50 == 49:
            h.update(repr(observe()).encode())


def main() -> None:
    h = hashlib.sha256()
    for engine in sorted(ENGINE_TABLE):
        db = IamDB(engine, **tiny_store(engine))
        session = attach_trace(db)

        def observe(db=db, session=session):
            db.check_invariants()
            session.sampler.finalize()
            return db.stats(), len(session.sampler.rows)

        drive(h, db, random.Random(engine), observe, scans=engine != "lsmtrie")
        db.quiesce()
        session.finish()
        disk = db.runtime.disk
        h.update(repr((engine, observe(), db.runtime.clock.now, disk.bytes_read,
                       disk.bytes_written, disk.seeks, session.tracer.counts,
                       session.tracer.spans_opened, session.tracer.spans_closed,
                       session.sampler.rows)).encode())

    cluster = ClusterDB(ClusterOptions(n_shards=2, n_replicas=2,
                                       objstore=ObjStoreOptions(),
                                       **tiny_store("iam")))
    trace = attach_cluster_trace(cluster)

    def observe_cluster():
        cluster.check_invariants()
        return cluster.stats(), [s.stats() for s in cluster.router.shards]

    drive(h, cluster, random.Random("cluster"), observe_cluster, scans=False)
    cluster.quiesce()
    trace.finish()
    tracers = [trace.tracer] + [s.tracer for _, _, s in trace._sessions]
    h.update(repr((observe_cluster(), cluster.clock.now,
                   cluster.network.bytes_sent, cluster.objstore.snapshot(),
                   [(t.counts, t.spans_opened, t.spans_closed) for t in tracers],
                   trace.timeseries())).encode())
    print(h.hexdigest())


if __name__ == "__main__":
    main()
