"""Leader/follower replication with acked-write semantics.

One :class:`ReplicaGroup` owns a shard's copies: ``replicas[0]`` is the
leader, the rest are followers, each a full :class:`~repro.db.iamdb.IamDB`
on its own :class:`~repro.storage.simdisk.SimDisk` sharing the cluster
clock.  Writes apply to the leader, then the WAL record ships synchronously
to every live follower over the simulated network (record bytes + framing);
each follower applies it through its own full write path (WAL, memtable,
flush), so the copies stay structurally independent but logically identical
-- same op order, same sequence numbers.

**Ack contract**: a write is *acked* once a majority of the group's live
replicas (leader included) hold it durably.  ``acked_seq`` tracks the
newest acked sequence number; the failover audit and the cluster
invariants (:mod:`repro.cluster.invariants`) both pin the contract: after
a leader kill, the promoted follower must serve every acked write.

**Failover** (:meth:`ReplicaGroup.kill_leader`): the leader process dies --
its in-flight background jobs are abandoned exactly like a power cut -- and
the most up-to-date live follower is promoted by restarting it through the
existing :meth:`~repro.db.iamdb.IamDB.crash_and_recover` machinery (promotion
is a restart: manifest restore + WAL replay).  Because acked writes are on a
majority, and replication is synchronous, the promoted follower's recovered
sequence can never fall below ``acked_seq``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, InvariantViolation, StoreClosedError
from repro.common.records import (
    KEY,
    KIND,
    Key,
    RecordTuple,
    SEQ,
    VALUE,
    Value,
    encoded_size,
)
from repro.db.iamdb import IamDB
from repro.faults.crash import CrashSpec
from repro.cluster.network import SimNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.objstore.manifestlog import SharedManifestLog


@dataclass(frozen=True)
class LeaderKill:
    """One scheduled leader kill: shard position x global op index."""

    #: Index of the target shard in router order at fire time.
    shard: int
    #: Global cluster op index the kill fires before (1-based, <= fires).
    at_op: int


def parse_cluster_fault_spec(
        spec: str) -> Tuple[Optional[str], List[LeaderKill]]:
    """Split a cluster ``--faults`` spec into (device spec, leader kills).

    ``kill=SHARD:OP`` entries schedule leader kills (shard position in
    router order, fired just before the given global op index); every other
    ``key=value`` entry passes through verbatim to
    :func:`repro.faults.plan.parse_fault_spec` for per-replica transient
    device faults.  Returns ``(device_spec_or_None, kills)``.
    """
    passthrough: List[str] = []
    kills: List[LeaderKill] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if key.strip() == "kill":
            shard_s, sep, op_s = value.strip().partition(":")
            if not sep:
                raise ConfigError(
                    f"bad kill entry {part!r} (want kill=SHARD:OP)")
            try:
                kills.append(LeaderKill(shard=int(shard_s), at_op=int(op_s)))
            except ValueError as exc:
                raise ConfigError(f"bad kill entry {part!r}: {exc}") from None
        else:
            passthrough.append(part)
    kills.sort(key=lambda k: (k.at_op, k.shard))
    return (",".join(passthrough) if passthrough else None), kills


class Replica:
    """One copy of a shard: a full DB bound to a network node id."""

    __slots__ = ("node_id", "db", "alive")

    def __init__(self, node_id: int, db: IamDB) -> None:
        self.node_id = node_id
        self.db = db
        self.alive = True


class ReplicaGroup:
    """A shard's replicas; index 0 is the current leader."""

    def __init__(self, shard_id: int, replicas: List[Replica],
                 network: SimNetwork) -> None:
        if not replicas:
            raise ConfigError("a replica group needs at least one replica")
        self.shard_id = shard_id
        self.replicas = replicas
        #: ``replicas[0]``, set wherever ``replicas[0]`` is (here and
        #: :meth:`kill_leader`): every routed op reads it.
        self.leader = replicas[0]
        self.network = network
        #: Newest sequence number acked to the client (durable on a quorum).
        self.acked_seq = 0
        #: Leader kills survived (for the cluster report).
        self.failovers = 0
        self.key_size = replicas[0].db.key_size

    # -------------------------------------------------------------- topology
    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.alive]

    def quorum(self) -> int:
        """Majority of the *live* group (leader included)."""
        return len(self.live_replicas()) // 2 + 1

    # ----------------------------------------------------------------- writes
    def put(self, rec: RecordTuple, rec_bytes: int, leader: Replica) -> None:
        """Apply one checked record to ``leader`` (the router has read it
        already), ship it, ack at quorum.

        The router has sized ``rec`` (``rec_bytes``) for its own hop; each
        replica logs it as-is under its own next sequence number.
        """
        key, _, kind, value = rec
        db = leader.db
        if db._closed:
            raise StoreClosedError("operation on a closed IamDB")
        db._write((key, db._seq + 1, kind, value), rec_bytes)
        # Ship the WAL record to every live follower; the payload is the
        # record's encoded size (same bytes the follower's WAL will append).
        acks = 1  # the leader's own durable copy
        for follower in self.replicas[1:]:
            if not follower.alive:
                continue
            self.network.send(leader.node_id, follower.node_id, rec_bytes)
            db = follower.db
            if db._closed:
                raise StoreClosedError("operation on a closed IamDB")
            db._write((key, db._seq + 1, kind, value), rec_bytes)
            self.network.send(follower.node_id, leader.node_id, 0)
            acks += 1
        # quorum(), counted while shipping: the live followers plus a live
        # leader make the live group.
        quorum = (acks if leader.alive else acks - 1) // 2 + 1
        if acks < quorum:
            raise InvariantViolation(
                f"shard {self.shard_id}: write reached {acks} replicas, "
                f"quorum is {quorum}")
        self.acked_seq = leader.db._seq

    #: A delete is a put of the router's tombstone record.
    delete = put

    # -------------------------------------------------------------- follower add
    def add_follower(self, replica: Replica,
                     log: "SharedManifestLog") -> Dict[str, object]:
        """Attach a brand-new follower, caught up before it joins the group.

        The follower bootstraps itself from the shard's shared manifest log
        -- entry replay plus data-object fetches charged to the *follower's*
        runtime; zero leader network bytes for the flushed prefix.  The
        leader then ships its WAL tail (records newer than the bootstrap
        cut), applied through the follower's full write path so sequence
        numbers line up exactly.
        """
        from repro.objstore.tiering import bootstrap_from_store
        leader = self.leader
        boot = bootstrap_from_store(replica.db, log)
        base_seq = int(boot["seq"])
        report: Dict[str, object] = {
            "mode": "objstore", "cut_id": boot["cut_id"],
            "bootstrap_seq": base_seq, "objects_fetched": boot["objects"],
            "store_bytes_down": boot["bytes_down"]}
        # Catch-up: only WAL records newer than the bootstrap cut cross the
        # leader's link (the WAL suffix is contiguous from the flushed
        # prefix, so applied seqs line up with the leader's).
        tail = 0
        db = replica.db
        for rec in leader.db.wal.replay():
            if rec[SEQ] <= base_seq:
                continue
            rec_bytes = encoded_size(rec, self.key_size)
            self.network.send(leader.node_id, replica.node_id, rec_bytes)
            db._write((rec[KEY], db._seq + 1, rec[KIND], rec[VALUE]),
                      rec_bytes)
            self.network.send(replica.node_id, leader.node_id, 0)
            tail += 1
        if replica.db._seq != leader.db._seq:
            raise InvariantViolation(
                f"shard {self.shard_id}: new follower caught up to seq "
                f"{replica.db._seq}, leader at {leader.db._seq}")
        self.replicas.append(replica)
        report["wal_tail_records"] = tail
        report["follower_node"] = replica.node_id
        report["seq"] = replica.db._seq
        return report

    # ------------------------------------------------------------------ reads
    def get(self, key: Key) -> Optional[Value]:
        """Leader read (the group serves linearizable reads from the leader)."""
        return self.leader.db.get(key)

    def scan(self, lo_key: Optional[Key], hi_key: Optional[Key], *,
             limit: Optional[int] = None) -> List[Tuple[Key, object]]:
        return self.leader.db.scan(lo_key, hi_key, limit=limit)

    # --------------------------------------------------------------- failover
    def kill_leader(self) -> Dict[str, object]:
        """Kill the leader process and promote the best live follower.

        Returns a deterministic failover report.  Raises
        :class:`InvariantViolation` when no live follower remains (the shard
        would be lost; the cluster layer screens this before calling) or
        when promotion recovers less than the acked prefix.
        """
        dead = self.leader
        dead.alive = False
        # The process dies: in-flight background work is dropped on the
        # floor, exactly like IamDB.crash_and_recover's crash half.  The
        # dead replica's state is never read again.
        dead.db.runtime.pool.abandon_all()
        candidates = [r for r in self.replicas[1:] if r.alive]
        if not candidates:
            raise InvariantViolation(
                f"shard {self.shard_id}: leader killed with no live follower")
        # Promote the most up-to-date follower (max applied seq; ties break
        # by list order, which is deterministic).
        promoted = candidates[0]
        for r in candidates[1:]:
            if r.db._seq > promoted.db._seq:
                promoted = r
        # Promotion is a restart into leadership: recover durable state via
        # the standard crash/recovery machinery (manifest + WAL replay).
        # Replicated records were shipped through the follower's synchronous
        # WAL append, so none of its tail is torn.
        report = promoted.db.crash_and_recover(CrashSpec(torn_tail_records=0))
        if promoted.db._seq < self.acked_seq:
            raise InvariantViolation(
                f"shard {self.shard_id}: promoted follower recovered seq "
                f"{promoted.db._seq} < acked seq {self.acked_seq}")
        self.replicas = [promoted] + [r for r in self.replicas
                                      if r.alive and r is not promoted]
        self.leader = promoted
        self.failovers += 1
        return {
            "shard": self.shard_id,
            "dead_node": dead.node_id,
            "promoted_node": promoted.node_id,
            "acked_seq": self.acked_seq,
            "recovered_seq": report.recovered_seq,
            "replayed_records": report.replayed_records,
            "live_replicas": len(self.live_replicas()),
        }
