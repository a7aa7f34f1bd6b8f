"""Cluster-level structural invariants (the ``repro check`` cluster gate).

Four contracts, checked observation-only (no simulated I/O is charged, so
a check never perturbs the run it validates):

1. **Partition exactness** -- the router's shard ranges are sorted,
   non-empty, contiguous and tile the key space ``[0, 2**64)`` exactly:
   no gap, no overlap, and no retired shard still routable.
2. **Acked-write quorum** -- per shard, the ``leader`` field is the live
   ``replicas[0]``, the leader has applied at least the acked prefix
   (``leader seq >= acked_seq``) and enough live replicas carry it to form
   a majority.  (The *value-level* half of the contract --
   acked writes read back after failover -- is enforced with charged reads
   by :meth:`~repro.cluster.cluster.ClusterDB.crash_leader`'s audit.)
3. **Exclusive file ownership** -- every live replica's engine references
   only files that exist on its own disk, and no two live replicas share a
   storage stack: after a rebalance, a moved MSTable file belongs to
   exactly one shard.
4. **Manifest-log integrity** (shared-storage clusters) -- every shard's
   manifest log is structurally healthy: cut ids strictly ascend, every
   retained cut's entry object exists in the store, and every data object
   a retained cut references exists (whole entries, no dangling refs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.cluster.shard import KEY_SPACE_HI, KEY_SPACE_LO
from repro.common.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterDB


def check_partition(cluster: "ClusterDB") -> None:
    """Router ranges partition the key space exactly."""
    shards = cluster.router.shards
    if not shards:
        raise InvariantViolation("cluster has no shards")
    cursor = KEY_SPACE_LO
    for shard in shards:
        if shard.retired:
            raise InvariantViolation(
                f"retired shard {shard.shard_id} still routable")
        if shard.lo != cursor:
            raise InvariantViolation(
                f"shard {shard.shard_id} starts at {shard.lo:#x}, "
                f"expected {cursor:#x} (gap or overlap)")
        if not shard.lo < shard.hi:
            raise InvariantViolation(
                f"shard {shard.shard_id} has empty range "
                f"[{shard.lo:#x}, {shard.hi:#x})")
        cursor = shard.hi
    if cursor != KEY_SPACE_HI:
        raise InvariantViolation(
            f"shard ranges end at {cursor:#x}, expected {KEY_SPACE_HI:#x}")


def check_replication(cluster: "ClusterDB") -> None:
    """The leader field is the live ``replicas[0]``, and every acked write
    is applied on the leader and a quorum of replicas."""
    for shard in cluster.router.shards:
        group = shard.group
        leader = group.leader
        if leader is not group.replicas[0] or not leader.alive:
            raise InvariantViolation(
                f"shard {shard.shard_id}: leader is node {leader.node_id} "
                f"(alive={leader.alive}), replicas[0] is node "
                f"{group.replicas[0].node_id}")
        acked = group.acked_seq
        leader_db = leader.db
        if leader_db._seq < acked:
            raise InvariantViolation(
                f"shard {shard.shard_id}: leader at seq {leader_db._seq} "
                f"< acked seq {acked}")
        live = group.live_replicas()
        carrying = sum(1 for r in live if r.db._seq >= acked)
        quorum = group.quorum()
        if carrying < quorum:
            raise InvariantViolation(
                f"shard {shard.shard_id}: acked seq {acked} on {carrying} "
                f"live replicas, quorum is {quorum}")


def check_file_ownership(cluster: "ClusterDB") -> None:
    """No file (or disk) is owned by two live replicas across shards."""
    seen_disks: Set[int] = set()
    for shard in cluster.router.shards:
        for replica in shard.group.live_replicas():
            db = replica.db
            disk = db.runtime.disk
            disk_id = id(disk)
            if disk_id in seen_disks:
                raise InvariantViolation(
                    f"shard {shard.shard_id} node {replica.node_id} shares "
                    f"a disk with another live replica")
            seen_disks.add(disk_id)
            on_disk = set(disk.files)
            for file_id in db.engine.live_file_ids():
                if file_id not in on_disk:
                    raise InvariantViolation(
                        f"shard {shard.shard_id} node {replica.node_id} "
                        f"references file {file_id} not on its disk")


def check_manifest_logs(cluster: "ClusterDB") -> None:
    """Every shard's shared manifest log is structurally healthy."""
    for shard_id in sorted(cluster.manifest_logs):
        problems = cluster.manifest_logs[shard_id].verify()
        if problems:
            raise InvariantViolation(
                f"shard {shard_id} manifest log unhealthy: "
                f"{'; '.join(problems)}")


def check_cluster_invariants(cluster: "ClusterDB") -> None:
    """Run the full cluster invariant catalog (raises on first violation)."""
    check_partition(cluster)
    check_replication(cluster)
    check_file_ownership(cluster)
    check_manifest_logs(cluster)
