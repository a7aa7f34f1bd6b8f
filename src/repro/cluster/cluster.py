"""The cluster facade: an :class:`IamDB`-shaped front end over many shards.

:class:`ClusterDB` duck-types the single-node DB surface the workload
front-end consumes (``put/get/delete/scan``, ``metrics``, ``runtime.clock``,
``engine.name``, the amplification/space inspectors), so ``hash_load`` and
``run_ycsb`` drive a 16-node cluster exactly like one store.  Underneath,
every operation routes through :class:`~repro.cluster.router.Router` over
the simulated network to range-partitioned shards, each a replicated group
of full DBs on their own disks -- all sharing one :class:`SimClock`, so
network transfer, WAL appends, flushes and compactions across every node
interleave on a single deterministic timeline.

Determinism contract: the cluster report (:meth:`ClusterDB.stats`) is a
pure function of (options, workload, seed) -- two identical runs produce
byte-identical JSON.  Nothing in this package reads a wall clock or an
unseeded RNG.

**Acked-write audit**: the cluster remembers the last acked value of a
bounded window of recently written keys.  When a fault plan kills a leader
(:meth:`crash_leader`), the promoted follower is immediately audited: every
remembered acked write owned by that shard must read back exactly; a
mismatch raises :class:`InvariantViolation` (the "zero acked-write loss"
acceptance gate).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cluster.network import NetworkOptions, SimNetwork
from repro.cluster.rebalance import REBALANCE_CHECK_OPS, Rebalancer
from repro.cluster.replica import LeaderKill, Replica, ReplicaGroup
from repro.cluster.router import REQUEST_BYTES, ROUTER_NODE, Router
from repro.cluster.shard import Shard, even_ranges
from repro.common.errors import ConfigError, InvariantViolation, StoreClosedError
from repro.common.options import FaultOptions, StorageOptions
from repro.common.records import (Key, Value, check_cut, check_key, check_keys,
                                  check_scan, make_put)
from repro.db.iamdb import IamDB
from repro.metrics import MetricsRegistry, StallBreakdown, merge_snapshots
from repro.objstore.manifestlog import DEFAULT_RETAIN_CUTS, SharedManifestLog
from repro.objstore.report import objstore_summary
from repro.objstore.store import ObjStoreOptions, SimObjectStore
from repro.objstore.tiering import AsOfReader, ObjStoreTier, open_as_of
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.storage.simdisk import SimClock, SimDisk

#: Recently acked writes remembered for the failover audit (per cluster).
AUDIT_WINDOW = 256

#: Salt for deriving per-replica fault seeds from the base seed: every node
#: sees an independent (but reproducible) transient-fault sequence.
_FAULT_SEED_SALT = 7919


@dataclass(frozen=True)
class ClusterOptions:
    """Topology + substrate configuration of one simulated cluster."""

    n_shards: int = 4
    #: Copies per shard, leader included.
    n_replicas: int = 2
    engine: str = "iam"
    engine_options: Any = None
    storage_options: Optional[StorageOptions] = None
    network: NetworkOptions = field(default_factory=NetworkOptions)
    #: Split a shard whose leader structure exceeds this (0 = no splits).
    split_threshold_bytes: int = 0
    #: Shared object-store service parameters; None disables the shared
    #: storage tier (no store, no manifest logs, no tiering).
    objstore: Optional[ObjStoreOptions] = None
    #: Manifest cuts retained per shard log (the time-travel window).
    objstore_retain_cuts: int = DEFAULT_RETAIN_CUTS
    #: Drain compaction debt on a dedicated shared device (the "dedicated
    #: compaction node against shared storage" mode); requires ``objstore``.
    compaction_offload: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.n_replicas < 1:
            raise ConfigError("n_replicas must be >= 1")
        if self.split_threshold_bytes < 0:
            raise ConfigError("split_threshold_bytes must be >= 0")
        if self.objstore_retain_cuts < 1:
            raise ConfigError("objstore_retain_cuts must be >= 1")
        if self.compaction_offload and self.objstore is None:
            raise ConfigError(
                "compaction_offload needs a shared object store "
                "(set ClusterOptions.objstore)")


class _ClusterRuntime:
    """Minimal runtime facade: the pieces reports read off ``db.runtime``."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock


class _ClusterEngine:
    """Minimal engine facade: reports read ``db.engine.name``."""

    def __init__(self, name: str) -> None:
        self.name = name


class ClusterDB:
    """A sharded, replicated store behind the single-node DB surface."""

    def __init__(self, options: Optional[ClusterOptions] = None) -> None:
        self.options = options if options is not None else ClusterOptions()
        self.clock = SimClock()
        self.network = SimNetwork(self.clock, self.options.network)
        #: Cluster-tier metrics: routed-op latencies, router/failover events.
        self.metrics = MetricsRegistry()
        #: Cluster-tier tracer (router/replication/rebalance instants);
        #: NULL_TRACER until a ClusterTraceSession attaches.
        self.tracer: NullTracer = NULL_TRACER
        self.runtime = _ClusterRuntime(self.clock)
        self.engine = _ClusterEngine(f"cluster:{self.options.engine}")
        self._next_node_id = 1
        self._next_shard_id = 0
        self._fault_options: Optional[FaultOptions] = None
        self._kills: List[LeaderKill] = []
        self._trace: Optional[Any] = None
        self._ops = 0
        self._closed = False
        #: Last acked value per recently written key (failover audit window).
        self._acked_audit: "OrderedDict[int, Optional[Value]]" = OrderedDict()
        self.failover_reports: List[Dict[str, object]] = []
        #: Shared storage tier (None = disabled): one store for the whole
        #: cluster, one append-only manifest log and one leader-attached
        #: tier per shard, plus cached time-travel readers per (shard, cut).
        self.objstore: Optional[SimObjectStore] = None
        self.manifest_logs: Dict[int, SharedManifestLog] = {}
        self._tiers: Dict[int, ObjStoreTier] = {}
        self._as_of_readers: Dict[Tuple[int, int], AsOfReader] = {}
        self.offload_disk: Optional[SimDisk] = None
        if self.options.objstore is not None:
            self.objstore = SimObjectStore(self.clock, self.options.objstore)
            if self.options.compaction_offload:
                device = (self.options.storage_options
                          if self.options.storage_options is not None
                          else StorageOptions()).device
                self.offload_disk = SimDisk(device, self.clock)
        shards = [self._make_shard(lo, hi)
                  for lo, hi in even_ranges(self.options.n_shards)]
        self.router = Router(shards, self.network, self.metrics, self.tracer)
        self.rebalancer = Rebalancer(self)

    # ------------------------------------------------------------- provisioning
    def _make_replica(self) -> Replica:
        """Provision one fresh replica (own disk, shared clock)."""
        o = self.options
        node_id = self._next_node_id
        self._next_node_id += 1
        db = IamDB(o.engine, engine_options=o.engine_options,
                   storage_options=o.storage_options, clock=self.clock)
        if self._fault_options is not None:
            db.runtime.attach_faults(replace(
                self._fault_options,
                seed=self._fault_options.seed + node_id * _FAULT_SEED_SALT))
        if self.metrics.hist_enabled:
            db.metrics.enable_histograms()
        return Replica(node_id, db)

    def _make_shard(self, lo: int, hi: int) -> Shard:
        """Provision a fresh replica group serving ``[lo, hi)``."""
        replicas = [self._make_replica()
                    for _ in range(self.options.n_replicas)]
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        group = ReplicaGroup(shard_id, replicas, self.network)
        shard = Shard(shard_id, lo, hi, group)
        if self.objstore is not None:
            self._attach_tier(shard)
        if self._trace is not None:
            self._trace.on_new_leader(shard)
        return shard

    def _attach_tier(self, shard: Shard) -> ObjStoreTier:
        """(Re)bind the shard's manifest log + tier to its current leader.

        The shard's log is created on first attach and survives leader
        changes -- the log *is* the shard's durable metadata.  A previous
        tier (a dead leader's) is detached so exactly one node mirrors.
        """
        if self.objstore is None:
            raise InvariantViolation("tier attach without an object store")
        log = self.manifest_logs.get(shard.shard_id)
        if log is None:
            log = SharedManifestLog(
                self.objstore, f"shard{shard.shard_id}/",
                retain_cuts=self.options.objstore_retain_cuts)
            self.manifest_logs[shard.shard_id] = log
        old = self._tiers.get(shard.shard_id)
        if old is not None:
            old.detach()
        leader = shard.group.leader
        tier = ObjStoreTier(leader.db, log, node_tag=f"n{leader.node_id}")
        self._tiers[shard.shard_id] = tier
        if self.offload_disk is not None:
            leader.db.runtime.pool.offload_disk = self.offload_disk
        return tier

    def spawn_follower(self, shard_index: int) -> Dict[str, object]:
        """Provision a brand-new follower and catch it up to the leader.

        The follower bootstraps from shared storage -- it replays the
        shard's manifest log and fetches data objects from the store; the
        leader then ships only WAL records *newer* than the bootstrap cut
        (zero leader network bytes for the flushed prefix).  Returns the
        group's deterministic catch-up report.
        """
        self._check_open()
        shards = self.router.shards
        if not 0 <= shard_index < len(shards):
            raise ConfigError(
                f"spawn_follower targets shard {shard_index}, cluster has "
                f"{len(shards)}")
        if self.objstore is None:
            raise ConfigError(
                "objstore bootstrap needs ClusterOptions.objstore")
        shard = shards[shard_index]
        replica = self._make_replica()
        report = shard.group.add_follower(
            replica, self.manifest_logs[shard.shard_id])
        report["shard"] = shard.shard_id
        self.metrics.bump("follower:spawn")
        if self.tracer.enabled:
            self.tracer.instant("cluster", "follower-spawn",
                                shard=shard.shard_id, mode="objstore",
                                node=replica.node_id)
        self._pump_all()
        return report

    # ----------------------------------------------------------------- metrics
    def enable_histograms(self) -> None:
        """Turn on per-op-class latency histograms, cluster-wide.

        Enables the cluster-tier registry (routed-op latencies) and every
        replica DB's registry; replicas provisioned later (splits,
        failover re-replication) inherit the setting.  Each registry folds
        its histograms from the latency samples it already keeps, when
        they are read, so an op costs the same with histograms on or off.
        """
        self.metrics.enable_histograms()
        for shard in self.router.shards:
            for replica in shard.group.replicas:
                replica.db.metrics.enable_histograms()

    # ------------------------------------------------------------------ faults
    def arm_faults(self, device_options: Optional[FaultOptions],
                   kills: List[LeaderKill]) -> None:
        """Arm transient device faults and/or scheduled leader kills.

        Must run before the workload; transient faults attach to every
        existing replica (and automatically to replicas provisioned later,
        e.g. by splits) with a per-node derived seed.
        """
        self._kills = sorted(kills, key=lambda k: (k.at_op, k.shard))
        if device_options is None or not device_options.enabled:
            return
        self._fault_options = device_options
        for shard in self.router.shards:
            for replica in shard.group.live_replicas():
                replica.db.runtime.attach_faults(replace(
                    device_options,
                    seed=device_options.seed
                    + replica.node_id * _FAULT_SEED_SALT))

    def crash_leader(self, shard_index: int) -> Dict[str, object]:
        """Kill the current leader of the shard at router position ``index``.

        Promotes a follower via crash/recovery, then audits every remembered
        acked write the shard owns against the new leader -- a lost acked
        write raises :class:`InvariantViolation`.  With no live follower the
        kill is skipped (recorded, not fatal): a 1-replica shard cannot
        fail over.
        """
        shards = self.router.shards
        if not 0 <= shard_index < len(shards):
            raise ConfigError(
                f"kill targets shard {shard_index}, cluster has "
                f"{len(shards)}")
        shard = shards[shard_index]
        if len(shard.group.live_replicas()) < 2:
            self.metrics.bump("failover:skipped")
            report: Dict[str, object] = {"shard": shard.shard_id,
                                         "skipped": "no live follower"}
            self.failover_reports.append(report)
            return report
        report = shard.group.kill_leader()
        if self.objstore is not None:
            # The promoted leader takes over mirroring under its own node
            # tag; the log resyncs from store contents (sweeping objects
            # whose cut never landed) and cached time-travel readers for
            # this shard are dropped -- their cuts may have been swept.
            tier = self._attach_tier(shard)
            report["objstore_recovery"] = tier.recover()
            self._as_of_readers = {
                key: reader for key, reader in self._as_of_readers.items()
                if key[0] != shard.shard_id}
        if self._trace is not None:
            self._trace.on_new_leader(shard)
        audited = 0
        for key in sorted(self._acked_audit):
            if not shard.lo <= key < shard.hi:
                continue
            want = self._acked_audit[key]
            got = shard.group.get(key)
            if got != want:
                raise InvariantViolation(
                    f"acked write lost across failover: shard "
                    f"{shard.shard_id} key {key:#x} expected {want!r}, "
                    f"read {got!r}")
            audited += 1
        report["audited_writes"] = audited
        self.metrics.bump("failover")
        if self.tracer.enabled:
            self.tracer.instant("cluster", "failover", shard=shard.shard_id,
                                promoted=report["promoted_node"],
                                audited=audited)
        self.failover_reports.append(report)
        return report

    # -------------------------------------------------------------- op routing
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("operation on a closed ClusterDB")

    def _begin_op(self) -> None:
        if self._closed:
            raise StoreClosedError("operation on a closed ClusterDB")
        self._ops += 1
        while self._kills and self._kills[0].at_op <= self._ops:
            kill = self._kills.pop(0)
            self.crash_leader(kill.shard)
        if self._ops % REBALANCE_CHECK_OPS == 0:
            self.rebalancer.maybe_rebalance()

    def _pump_all(self) -> None:
        """Drain every node's background debt up to the shared clock; an
        idle node that drives no sampler has nothing to pump and is skipped."""
        for shard in self.router.shards:
            for replica in shard.group.replicas:
                if replica.alive:
                    runtime = replica.db.runtime
                    if runtime.sampler is not None:
                        runtime.pump()
                    elif not runtime.pool.idle:
                        runtime.pool.pump()

    def put(self, key: Key, value: Value) -> None:
        rec = make_put(key, 0, value)
        self._begin_op()
        t0 = self.clock.now
        self.router.put(rec)
        self._remember_ack(key, value)
        self._pump_all()
        self.metrics.latency["insert"].samples.append(self.clock.now - t0)

    def delete(self, key: Key) -> None:
        check_key(key)
        self._begin_op()
        t0 = self.clock.now
        self.router.delete(key)
        self._remember_ack(key, None)
        self._pump_all()
        self.metrics.latency["insert"].samples.append(self.clock.now - t0)

    def get(self, key: Key, *,
            as_of_cut: Optional[int] = None) -> Optional[Value]:
        check_key(key)
        if as_of_cut is not None:
            return self._get_as_of(key, as_of_cut)
        self._begin_op()
        t0 = self.clock.now
        value = self.router.get(key)
        self._pump_all()
        self.metrics.latency["read"].samples.append(self.clock.now - t0)
        return value

    def _get_as_of(self, key: Key, cut_id: int) -> Optional[Value]:
        """Time-travel read: the key's value as of a retained manifest cut.

        Routes like a normal get, then answers from an
        :class:`~repro.objstore.tiering.AsOfReader` over the owning shard's
        manifest log -- the historical tree is restored once per (shard,
        cut) and its page-cache misses fill from the object store at store
        latency.  A cut the owning shard does not retain and no cached
        reader holds is refused before the op is counted.
        """
        if self.objstore is None:
            raise ConfigError(
                "as_of_cut reads need ClusterOptions.objstore")
        check_cut(cut_id)
        shard = self.router.shard_for(key)
        log = self.manifest_logs[shard.shard_id]
        if (shard.shard_id, cut_id) not in self._as_of_readers \
                and log.cut(cut_id) is None:
            raise ConfigError(
                f"as_of_cut={cut_id} is not a retained manifest cut "
                f"(retained: {[c.cut_id for c in log.cuts]})")
        self._begin_op()
        if shard.retired:  # a rebalance in _begin_op replaced it
            shard = self.router.shard_for(key)
        t0 = self.clock.now
        self.network.rpc(ROUTER_NODE, shard.group.leader.node_id,
                         REQUEST_BYTES)
        cache_key = (shard.shard_id, cut_id)
        reader = self._as_of_readers.get(cache_key)
        if reader is None:
            log = self.manifest_logs[shard.shard_id]
            reader = open_as_of(
                log, cut_id, engine=self.options.engine,
                engine_options=self.options.engine_options,
                storage_options=self.options.storage_options,
                clock=self.clock, metrics=MetricsRegistry())
            self._as_of_readers[cache_key] = reader
        value = reader.get(key)
        self._pump_all()
        self.metrics.latency["read"].samples.append(self.clock.now - t0)
        return value

    def multi_get(self, keys: Iterable[Key]) -> List[Optional[Value]]:
        """:meth:`get` of every key in request order, one routed op per key;
        all are checked before any is routed."""
        return [self.get(key) for key in check_keys(keys)]

    def scan(self, lo_key: Optional[Key] = None, hi_key: Optional[Key] = None,
             *, limit: Optional[int] = None) -> List[Tuple[Key, object]]:
        check_scan(lo_key, hi_key, limit)
        if limit == 0:
            self._check_open()
            return []
        self._begin_op()
        t0 = self.clock.now
        rows = self.router.scan(lo_key, hi_key, limit=limit)
        self._pump_all()
        self.metrics.latency["scan"].samples.append(self.clock.now - t0)
        return rows

    def _remember_ack(self, key: Key, value: Optional[Value]) -> None:
        audit = self._acked_audit
        if key in audit:
            audit.pop(key)
        audit[key] = value
        if len(audit) > AUDIT_WINDOW:  # one insert overflows by one key
            audit.popitem(last=False)

    # --------------------------------------------------------------- lifecycle
    def flush(self) -> float:
        self._check_open()
        t0 = self.clock.now
        for shard in self.router.shards:
            for replica in shard.group.live_replicas():
                replica.db.flush()
        return self.clock.now - t0

    def quiesce(self) -> float:
        self._check_open()
        t0 = self.clock.now
        for shard in self.router.shards:
            for replica in shard.group.live_replicas():
                replica.db.quiesce()
        return self.clock.now - t0

    def close(self) -> None:
        if self._closed:
            return
        for shard in self.router.shards:
            for replica in shard.group.live_replicas():
                replica.db.close()
        self._closed = True

    # -------------------------------------------------------------- inspection
    def _leader_dbs(self) -> List[IamDB]:
        return [s.group.leader.db for s in self.router.shards]

    def _live_dbs(self) -> List[IamDB]:
        return [r.db for s in self.router.shards
                for r in s.group.live_replicas()]

    def write_amplification(self, *, include_wal: bool = False) -> float:
        """Cluster WA over the leaders (per-copy, comparable to one node)."""
        user = 0
        written = 0
        for db in self._leader_dbs():
            user += db.metrics.user_bytes
            written += db.metrics.compaction_write_bytes
            if include_wal:
                written += db.metrics.wal_bytes
        return written / user if user > 0 else 0.0

    def per_level_write_amplification(self) -> Dict[int, float]:
        user = 0
        level_bytes: Dict[int, int] = {}
        for db in self._leader_dbs():
            user += db.metrics.user_bytes
            for level, nbytes in db.metrics.level_write_bytes.items():
                level_bytes[level] = level_bytes.get(level, 0) + nbytes
        if user == 0:
            return {}
        return {level: nbytes / user
                for level, nbytes in sorted(level_bytes.items())}

    def space_used_bytes(self) -> int:
        """Leader copies only (comparable to a single-node run)."""
        return sum(db.space_used_bytes() for db in self._leader_dbs())

    def space_total_bytes(self) -> int:
        """All live replicas: what the cluster actually occupies."""
        return sum(db.space_used_bytes() for db in self._live_dbs())

    @staticmethod
    def _imbalance(values: List[int]) -> float:
        """max/mean of a non-negative series (1.0 = perfectly balanced)."""
        if not values:
            return 0.0
        total = sum(values)
        if total <= 0:
            return 0.0
        return max(values) * len(values) / total

    def stats(self) -> Dict[str, object]:
        """The cluster report: topology, aggregates, imbalance, tails."""
        shards = self.router.shards
        shard_rows = [s.stats() for s in shards]
        merged = merge_snapshots(
            [s.group.leader.db.metrics.snapshot() for s in shards])
        ops_per_shard = [s.ops_routed() for s in shards]
        bytes_per_shard = [s.data_bytes() for s in shards]
        tail: Dict[str, Dict[str, float]] = {}
        for op in sorted(self.metrics.latency):
            digest = self.metrics.latency[op].window_summary(0)
            if digest["count"]:
                tail[op] = digest
        # Storage-tier stall blame merged across shard leaders, plus the
        # cluster tier's own waits (router admission pacing).
        blame = StallBreakdown.from_snapshot(merged)
        cluster_blame = self.metrics.stall_breakdown()
        extra: Dict[str, object] = {}
        if self.metrics.hist_enabled:
            extra["latency_percentiles"] = self.metrics.hist_percentiles()
        if self.objstore is not None:
            summary = objstore_summary(
                self.objstore.snapshot(),
                [self.manifest_logs[sid].snapshot()
                 for sid in sorted(self.manifest_logs)])
            summary["compaction_offload"] = self.offload_disk is not None
            if self.offload_disk is not None:
                summary["offload_busy_until_s"] = self.offload_disk.busy_until
            extra["objstore"] = summary
        return {
            **extra,
            "stall_breakdown": blame.as_dict(sim_seconds=self.clock.now),
            "cluster_stall_breakdown": cluster_blame.as_dict(
                sim_seconds=self.clock.now),
            "engine": self.options.engine,
            "n_shards": len(shards),
            "n_replicas": self.options.n_replicas,
            "ops_routed": self._ops,
            "sim_time_s": self.clock.now,
            "write_amplification": self.write_amplification(),
            "space_used_bytes": self.space_used_bytes(),
            "space_total_bytes": self.space_total_bytes(),
            "load_imbalance": {
                "ops_max_over_mean": self._imbalance(ops_per_shard),
                "bytes_max_over_mean": self._imbalance(bytes_per_shard),
            },
            "tail_latency": tail,
            "network": self.network.snapshot(),
            "rebalance": self.rebalancer.snapshot(),
            "failovers": list(self.failover_reports),
            "cluster_events": dict(sorted(self.metrics.events.items())),
            "metrics": merged,
            "shards": shard_rows,
        }

    def check_invariants(self) -> None:
        """Cluster invariants plus every live replica's engine invariants."""
        from repro.cluster.invariants import check_cluster_invariants
        check_cluster_invariants(self)
        for db in self._live_dbs():
            db.check_invariants()
