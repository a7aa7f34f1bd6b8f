"""One range-partitioned shard: a key range bound to a replica group.

Shards own half-open key ranges ``[lo, hi)`` over the hash-load key space
``[0, 2**64)`` (keys are ``permute64`` outputs, so ranges receive uniform
load unless the workload is skewed).  A shard object is immutable in its
range: rebalance replaces shard objects in the router instead of mutating
ranges in place, which keeps the key->shard map trivially consistent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.replica import ReplicaGroup
from repro.common.errors import ConfigError

#: The cluster key space: hash-load keys are 64-bit permutations.
KEY_SPACE_LO = 0
KEY_SPACE_HI = 2**64


class Shard:
    """A key range served by one replica group."""

    __slots__ = ("shard_id", "lo", "hi", "group", "reads", "writes", "scans",
                 "retired")

    def __init__(self, shard_id: int, lo: int, hi: int,
                 group: ReplicaGroup) -> None:
        if not lo < hi:
            raise ConfigError(f"shard range needs lo < hi, got [{lo}, {hi})")
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.group = group
        #: Routed-op counters, for the load-imbalance report and the
        #: load-triggered split heuristic.
        self.reads = 0
        self.writes = 0
        self.scans = 0
        #: Set when rebalance moved this shard's data elsewhere; a retired
        #: shard must never appear in the router again.
        self.retired = False

    # ------------------------------------------------------------- inspection
    def data_bytes(self) -> int:
        """Leader's structural bytes (levels + memtable): the split signal."""
        leader = self.group.leader.db
        level_bytes = leader.engine.level_data_bytes()
        return sum(level_bytes.values()) + leader.memtable.nbytes

    def ops_routed(self) -> int:
        return self.reads + self.writes + self.scans

    def stats(self) -> Dict[str, object]:
        """Per-shard row of the cluster report (leader stats + routing)."""
        leader = self.group.leader.db
        d = leader.stats()
        d.update({
            "shard_id": self.shard_id,
            "range_lo": self.lo,
            "range_hi": self.hi,
            "leader_node": self.group.leader.node_id,
            "replicas": len(self.group.live_replicas()),
            "acked_seq": self.group.acked_seq,
            "failovers": self.group.failovers,
            "reads_routed": self.reads,
            "writes_routed": self.writes,
            "scans_routed": self.scans,
            "data_bytes": self.data_bytes(),
        })
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Shard({self.shard_id}, [{self.lo:#x}, {self.hi:#x}), "
                f"replicas={len(self.group.replicas)})")


def even_ranges(n_shards: int, lo: int = KEY_SPACE_LO,
                hi: int = KEY_SPACE_HI) -> List[Tuple[int, int]]:
    """Split ``[lo, hi)`` into ``n_shards`` contiguous near-equal ranges."""
    if n_shards < 1:
        raise ConfigError("n_shards must be >= 1")
    if not lo < hi:
        raise ConfigError("key space needs lo < hi")
    span = hi - lo
    bounds = [lo + (span * i) // n_shards for i in range(n_shards)]
    bounds.append(hi)
    ranges: List[Tuple[int, int]] = []
    for i in range(n_shards):
        if not bounds[i] < bounds[i + 1]:
            raise ConfigError(f"too many shards for key space [{lo}, {hi})")
        ranges.append((bounds[i], bounds[i + 1]))
    return ranges
