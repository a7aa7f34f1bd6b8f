"""The request router: key->shard map, forwarding, admission control.

The router is the cluster's front door (network node 0).  It keeps the
sorted list of shards, binary-searches the key->shard map per request, and
forwards operations over the simulated network to shard leaders:

* **gets/puts/deletes** go to the owning shard's leader as one RPC
  (request out, payload/ack back); replication fans out from the leader
  inside :class:`~repro.cluster.replica.ReplicaGroup`.
* **scans** scatter-gather: the router walks the shards overlapping the
  scan range in key order, forwarding a bounded sub-scan to each and
  stopping early once the limit is satisfied.  Results concatenate in
  shard order, which *is* global key order because ranges are disjoint.
* **admission control**: when a shard's write pipeline degrades -- its
  background pool reports a growing ``failed_streak`` (compactions giving
  up under injected faults) -- the router pauses new writes to that shard
  with exponential pacing, mirroring how the storage engine's own write
  gate sheds load (§6.2's slowdown mechanism, lifted to the cluster tier).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.cluster.network import SimNetwork
from repro.cluster.shard import Shard
from repro.common.errors import ConfigError, InvariantViolation
from repro.common.records import Key, Value, encoded_size, make_put, value_nbytes
from repro.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer
from repro.check.effects.registry import effects

#: The router's network node id (replica node ids start at 1).
ROUTER_NODE = 0

#: First admission-control pause (doubles per failed_streak step).
ADMISSION_BASE_S = 0.0005
#: Admission-control pause ceiling.
ADMISSION_MAX_S = 0.05
#: Doubling cap: 2**16 * base is already far past ADMISSION_MAX_S, and
#: capping the exponent keeps ``2.0 ** n`` finite for arbitrarily long
#: failure streaks (a raw ``2.0 ** (streak - 1)`` overflows past ~1024).
ADMISSION_MAX_DOUBLINGS = 16

#: Encoded size of a routed read/scan request (key + framing handled by
#: the network's frame_bytes; this is the logical payload).
REQUEST_BYTES = 16


class Router:
    """Maintains the key->shard map and forwards client operations."""

    def __init__(self, shards: List[Shard], network: SimNetwork,
                 metrics: MetricsRegistry, tracer: NullTracer) -> None:
        self.network = network
        self.metrics = metrics
        self.tracer = tracer
        self._shards: List[Shard] = []
        self._los: List[int] = []
        self._install(shards)

    # ------------------------------------------------------------ shard map
    def _install(self, shards: List[Shard]) -> None:
        ordered = sorted(shards, key=lambda s: s.lo)
        for left, right in zip(ordered, ordered[1:]):
            if left.hi != right.lo:
                raise ConfigError(
                    f"shard ranges must tile: [{left.lo},{left.hi}) then "
                    f"[{right.lo},{right.hi})")
        self._shards = ordered
        self._los = [s.lo for s in ordered]

    @property
    def shards(self) -> List[Shard]:
        """Live shards in key order (do not mutate)."""
        return self._shards

    def ranges(self) -> List[Tuple[int, int]]:
        return [(s.lo, s.hi) for s in self._shards]

    def shard_for(self, key: int) -> Shard:
        idx = bisect_right(self._los, key) - 1
        if idx < 0:
            raise InvariantViolation(
                f"key {key:#x} below the cluster key space")
        shard = self._shards[idx]
        if not shard.contains(key):
            raise InvariantViolation(
                f"key {key:#x} outside shard [{shard.lo:#x}, {shard.hi:#x})")
        return shard

    def shards_in_range(self, lo_key: Optional[int],
                        hi_key: Optional[int]) -> List[Shard]:
        """Shards overlapping ``[lo, hi)`` in key order."""
        out = []
        for shard in self._shards:
            if hi_key is not None and shard.lo >= hi_key:
                break
            if lo_key is not None and shard.hi <= lo_key:
                continue
            out.append(shard)
        return out

    def replace(self, old: List[Shard], new: List[Shard]) -> None:
        """Swap rebalanced shards atomically; ranges must still tile."""
        for shard in old:
            shard.retired = True
        keep = [s for s in self._shards if s not in old]
        self._install(keep + new)

    # ----------------------------------------------------- admission control
    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _admit_write(self, shard: Shard) -> None:
        """Pace writes to a degraded shard (leader pool giving up on jobs)."""
        streak = shard.group.leader.db.runtime.pool.failed_streak
        if streak <= 0:
            return
        doublings = min(streak - 1, ADMISSION_MAX_DOUBLINGS)
        delay = ADMISSION_BASE_S * (2.0 ** doublings)
        if delay > ADMISSION_MAX_S:
            delay = ADMISSION_MAX_S
        self.network.clock.advance(delay)
        self.metrics.bump("router:admission-delay")
        self.metrics.add_stall("router-admission", delay)
        if self.tracer.enabled:
            self.tracer.instant("router", "admission-delay",
                                shard=shard.shard_id, streak=streak,
                                delay_s=delay)

    # ------------------------------------------------------------ forwarding
    def put(self, key: Key, value: Value) -> None:
        shard = self.shard_for(key)
        self._admit_write(shard)
        shard.writes += 1
        group = shard.group
        rec_bytes = encoded_size(make_put(key, 0, value), group.key_size)
        leader_node = group.leader.node_id
        self.network.send(ROUTER_NODE, leader_node, rec_bytes)
        group.put(key, value, rec_bytes)
        self.network.send(leader_node, ROUTER_NODE, 0)

    def delete(self, key: Key) -> None:
        shard = self.shard_for(key)
        self._admit_write(shard)
        shard.writes += 1
        group = shard.group
        rec_bytes = encoded_size(make_put(key, 0, 0), group.key_size)
        leader_node = group.leader.node_id
        self.network.send(ROUTER_NODE, leader_node, rec_bytes)
        group.delete(key, rec_bytes)
        self.network.send(leader_node, ROUTER_NODE, 0)

    def get(self, key: Key) -> Optional[Value]:
        shard = self.shard_for(key)
        shard.reads += 1
        leader_node = shard.group.leader.node_id
        self.network.send(ROUTER_NODE, leader_node, REQUEST_BYTES)
        value = shard.group.get(key)
        resp = value_nbytes(value) if value is not None else 0
        self.network.send(leader_node, ROUTER_NODE, resp)
        return value

    def scan(self, lo_key: Optional[Key], hi_key: Optional[Key], *,
             limit: Optional[int] = None) -> List[Tuple[Key, object]]:
        """Scatter-gather scan across the shards overlapping the range."""
        out: List[Tuple[Key, object]] = []
        for shard in self.shards_in_range(lo_key, hi_key):
            if limit is not None and len(out) >= limit:
                break
            remaining = None if limit is None else limit - len(out)
            shard.scans += 1
            leader_node = shard.group.leader.node_id
            self.network.send(ROUTER_NODE, leader_node, REQUEST_BYTES)
            rows = shard.group.scan(lo_key, hi_key, limit=remaining)
            resp = sum(value_nbytes(v) for _, v in rows)
            self.network.send(leader_node, ROUTER_NODE, resp)
            out.extend(rows)
        return out
