"""The seven workloads, driven through the repo's public entry points.

Each case knows how to set up (``build``), hand one repetition its start
state (``fresh``), run the timed region (``drive`` -- always a call into
``repro.workloads.hash_load`` / ``run_ycsb``, never a private put loop, so a
driver that starts issuing op blocks shows its gain here) and say which keys
exist afterwards (for the audit and for ``space_amp``).

Sizes are read through ``repro.bench.scale`` at call time, so the
``REPRO_SCALE`` the runner exports scales records, page cache and op counts
together.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.bench.scale import (KEY_SIZE, RECORD_BYTES, SSD_100G, VALUE_SIZE,
                               make_db, scale_factor)
from repro.cluster import ClusterDB, ClusterOptions
from repro.common.options import IamOptions
from repro.metrics import merge_snapshots
from repro.objstore.store import ObjStoreOptions
from repro.workloads import (YCSB_WORKLOADS, WorkloadReport, hash_load,
                             permute64, run_ycsb)

import spec


class Drivers(NamedTuple):
    """The public drivers a case calls; the observed repetition passes
    span-wrapped ones so the drivers' own time is a layer too."""

    hash_load: Callable[..., WorkloadReport]
    run_ycsb: Callable[..., WorkloadReport]


PLAIN_DRIVERS = Drivers(hash_load, run_ycsb)


def scaled(nominal: int) -> int:
    return max(1, int(nominal * scale_factor()))


def seeded_records(base: int, seed: int) -> int:
    """Record count of a load: the hash-load key sequence is ``permute64(i)``
    and takes no seed, so the seed sets how many records are loaded instead.
    The default seed loads the nominal count; others up to 1/64 fewer."""
    return base - ((seed - spec.DEFAULT_SEED) * 2654435761) % max(1, base // 64)


# --------------------------------------------------------------------- cases
class Load:
    """``hash_load`` into a fresh single-node store."""

    def __init__(self, name: str, config: str) -> None:
        self.name = name
        self.config = config

    def records(self, seed: int) -> int:
        return seeded_records(SSD_100G.n_records, seed)

    def build(self, seed: int) -> Any:
        return None

    def fresh(self, base: Any) -> Any:
        return make_db(self.config, SSD_100G)

    def drive(self, store: Any, seed: int, drivers: Drivers) -> WorkloadReport:
        # quiesce=False as in BENCH_perf.json's end-to-end row; the runner
        # quiesces untimed before reading write_amp and space.
        return drivers.hash_load(store, self.records(seed), quiesce=False)

    inserts = False


class Ycsb:
    """One YCSB mix on the preloaded, quiesced I-1t store (6x the cache)."""

    def __init__(self, name: str, letter: str, nominal_ops: int) -> None:
        self.name = name
        self.letter = letter
        self.nominal_ops = nominal_ops
        self.inserts = YCSB_WORKLOADS[letter].insert > 0

    def records(self, seed: int) -> int:
        return SSD_100G.n_records

    def build(self, seed: int) -> Any:
        db = make_db("I-1t", SSD_100G)
        hash_load(db, self.records(seed))
        return db

    def fresh(self, base: Any) -> Any:
        return copy.deepcopy(base)

    def drive(self, store: Any, seed: int, drivers: Drivers) -> WorkloadReport:
        return drivers.run_ycsb(store, YCSB_WORKLOADS[self.letter],
                                scaled(self.nominal_ops), self.records(seed),
                                seed=seed)


def _cluster(objstore: bool) -> ClusterDB:
    return ClusterDB(ClusterOptions(
        n_shards=spec.CLUSTER_SHARDS, n_replicas=spec.CLUSTER_REPLICAS,
        engine="iam",
        engine_options=IamOptions(key_size=KEY_SIZE, background_threads=1),
        # One SSD-100G page cache per node: each shard's quarter of the
        # data fits, unlike the single-node workloads.
        storage_options=SSD_100G.storage_options(),
        objstore=ObjStoreOptions() if objstore else None))


class ClusterYcsbA:
    """YCSB-A from 4 interleaved clients on a preloaded 4x2 cluster."""

    name = "cluster_a_4x2"
    inserts = False

    def records(self, seed: int) -> int:
        return scaled(spec.CLUSTER_RECORDS)

    def build(self, seed: int) -> Any:
        db = _cluster(objstore=False)
        hash_load(db, self.records(seed))
        return db

    def fresh(self, base: Any) -> Any:
        return copy.deepcopy(base)

    def drive(self, store: Any, seed: int, drivers: Drivers) -> WorkloadReport:
        return drivers.run_ycsb(store, YCSB_WORKLOADS["A"],
                                scaled(spec.CLUSTER_A_OPS), self.records(seed),
                                seed=seed, clients=spec.CLUSTER_CLIENTS)


class ObjstoreLoad:
    """``hash_load`` (with its flush + quiesce) into a 4x2 cluster that
    mirrors every flush output to the shared object store."""

    name = "objstore_load_4x2"
    inserts = False

    def records(self, seed: int) -> int:
        return seeded_records(scaled(spec.CLUSTER_RECORDS), seed)

    def build(self, seed: int) -> Any:
        return None

    def fresh(self, base: Any) -> Any:
        return _cluster(objstore=True)

    def drive(self, store: Any, seed: int, drivers: Drivers) -> WorkloadReport:
        return drivers.hash_load(store, self.records(seed), quiesce=True)


CASES = {case.name: case for case in (
    Load("load_iam", "I-1t"),
    Load("load_leveldb", "L"),
    Ycsb("ycsb_c_iam", "C", spec.YCSB_C_OPS),
    Ycsb("ycsb_a_iam", "A", spec.YCSB_A_OPS),
    Ycsb("ycsb_e_iam", "E", spec.YCSB_E_OPS),
    ClusterYcsbA(),
    ObjstoreLoad(),
)}


# ------------------------------------------------------------- store views
def member_dbs(store: Any) -> List[Any]:
    """The single-node DBs behind a store (a cluster's live replicas)."""
    if isinstance(store, ClusterDB):
        return [replica.db for shard in store.router.shards
                for replica in shard.group.live_replicas()]
    return [store]


def enable_histograms(store: Any) -> None:
    if isinstance(store, ClusterDB):
        store.enable_histograms()
    else:
        store.metrics.enable_histograms()


def counters(store: Any) -> Dict[str, float]:
    """Cumulative counters off the public metrics/stats surfaces.

    Repetitions on a preloaded clone start with the preload's totals, so
    every phase quantity is a difference of two of these.
    """
    dbs = member_dbs(store)
    merged = merge_snapshots([db.metrics.snapshot() for db in dbs])
    pace = merged["gate_delays"].get("pace:token-bucket", (0, 0.0, 0.0))
    out: Dict[str, float] = {
        "sim_s": store.runtime.clock.now,
        "stall_s": merged["total_stall_s"],
        "gate_delay_s": merged["total_gate_delay_s"],
        "pace_delay_s": pace[1],
        "bg_drained_s": sum(db.runtime.pool.bg_drained_s for db in dbs),
    }
    for key in ("user_bytes", "wal_bytes", "compaction_write_bytes",
                "query_seeks", "cache_hits", "cache_misses", "bloom_probes",
                "bloom_negatives"):
        out[key] = merged[key]
    reads = writes = 0
    for db in dbs:
        nread, nwritten, _ = db.runtime.io_report()
        reads += nread
        writes += nwritten
    out["disk_bytes_read"] = reads
    out["disk_bytes_written"] = writes
    # Ops as the client issued them: the cluster-tier registry for a
    # cluster (replica registries also count follower applies).
    client = store.metrics.snapshot()
    for op, count in client["op_counts"].items():
        out[f"ops.{op}"] = count
    if isinstance(store, ClusterDB):
        net = store.network.snapshot()
        out["net_messages"] = net["messages"]
        out["net_bytes"] = net["bytes_sent"]
        admission = client["stalls"].get("router-admission", (0, 0.0, 0.0))
        out["admission_s"] = admission[1]
        out["stall_s"] += admission[1]
        if store.objstore is not None:
            snap = store.objstore.snapshot()
            out["store_requests"] = snap["requests"]
            out["store_bytes_up"] = snap["bytes_up"]
            out["store_bytes_down"] = snap["bytes_down"]
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def sim_facts(case: Any, seed: int, report: WorkloadReport, store: Any,
              phase: Dict[str, float], total: Dict[str, float]) -> Dict[str, Any]:
    """Everything the simulated clock decided, for one repetition.

    ``phase`` covers the timed region, ``total`` adds the untimed final
    quiesce.  A pure function of (workload, seed, size factor): all
    repetitions of a run must agree on it bit for bit.
    """
    inserted = int(phase.get("ops.insert", 0)) if case.inserts else 0
    live_bytes = (case.records(seed) + inserted) * RECORD_BYTES
    queries = phase.get("ops.read", 0) + phase.get("ops.scan", 0)
    sim_s = report.sim_seconds
    return {
        "ops": report.ops,
        "inserted": inserted,
        "sim_seconds": sim_s,
        "sim_ops_per_s": report.throughput,
        # as the driver reported it (before the final quiesce; the figure
        # BENCH_perf.json commits) and after it
        "driver_write_amp": report.write_amplification,
        "write_amp": store.write_amplification(),
        "space_used_bytes": store.space_used_bytes(),
        "space_amp": store.space_used_bytes() / live_bytes,
        "sim_io_bytes_per_op": (total["disk_bytes_read"]
                                + total["disk_bytes_written"]) / report.ops,
        "stall_fraction": ((phase["stall_s"] + phase["gate_delay_s"]) / sim_s
                           if sim_s > 0 else 0.0),
        "read_amp": phase["query_seeks"] / queries if queries else None,
        "latency": report.latency,
        "phase": phase,
    }


def flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key in sorted(value, key=str):
            out.update(flatten(value[key], f"{prefix}{key}."))
        return out
    return {prefix[:-1]: value}


def digest(facts: Dict[str, Any]) -> str:
    flat = flatten(facts)
    text = json.dumps({k: repr(v) for k, v in flat.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    fa, fb = flatten(a), flatten(b)
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            return f"{key}: {fa.get(key)!r} != {fb.get(key)!r}"
    return ""


# ------------------------------------------------------------------- audit
def audit(case: Any, seed: int, store: Any, inserted: int) -> Tuple[int, int, List[str]]:
    """Re-read what the run wrote; returns (checks, failures, messages).

    Every record the drivers write carries the synthetic value
    ``VALUE_SIZE``; keys are ``permute64(item)`` for the loaded items and,
    after them, the inserted ones.  ``permute64`` is a bijection, so items
    far outside that range are keys nobody wrote.
    """
    rng = random.Random(f"audit:{seed}")
    written = case.records(seed) + inserted
    items = rng.sample(range(written), min(spec.AUDIT_WRITTEN_KEYS, written))
    absent = [(1 << 40) + rng.randrange(1 << 40)
              for _ in range(spec.AUDIT_ABSENT_KEYS)]
    checks = failures = 0
    messages: List[str] = []
    for item, want in ([(i, VALUE_SIZE) for i in items]
                       + [(i, None) for i in absent]):
        checks += 1
        try:
            got = store.get(permute64(item))
        except Exception as exc:  # an audit read that raises is a failed op
            got = exc
        if got != want:
            failures += 1
            if len(messages) < 5:
                messages.append(f"item {item}: expected {want!r}, read {got!r}")
    checks += 1
    try:
        store.check_invariants()
    except Exception as exc:
        failures += 1
        messages.append(f"check_invariants: {exc!r}")
    return checks, failures, messages
