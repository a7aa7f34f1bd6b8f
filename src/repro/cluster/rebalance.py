"""Shard split and cold-shard merge: data movement over the network.

Rebalance runs at deterministic op-count checkpoints (every
``check_interval_ops`` routed operations) and performs at most one action
per checkpoint:

* **split** -- a shard whose leader holds more than
  ``split_threshold_bytes`` of structural data (or, with the load trigger
  enabled, attracts more than ``load_split_fraction`` of the window's
  writes) is cut at the median key of its visible records into two fresh
  shards.
* **merge** -- two *adjacent* shards whose combined size is under
  ``merge_threshold_bytes`` collapse into one fresh shard, reclaiming the
  per-shard overhead of cold ranges.

Data moves the way a real system ships SSTables: the source leader's
visible records are read out (charged query I/O on the source), shipped to
every destination replica as a background network transfer
(:meth:`~repro.cluster.network.SimNetwork.reserve` debt drained through the
source pool), and bulk-ingested on each destination via the engine's own
flush path (``engine.submit_flush`` -- charged sequential writes, no WAL:
file ingestion is durable the moment the manifest checkpoints, exactly like
RocksDB's IngestExternalFile).  Destinations then checkpoint their manifest
so a later failover recovers the ingested data, and the sources are retired
-- their processes stop, their files drop from the cluster's ownership map.

Sequence numbers restart at 1..n on the destination: the shard's logical
content is a fresh copy, and every replica of the destination group ingests
the identical record list, so the group stays seq-aligned.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.shard import Shard
from repro.common.errors import ConfigError
from repro.common.records import make_put
from repro.table.run import Run

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterDB
    from repro.db.iamdb import IamDB


@dataclass(frozen=True)
class RebalanceOptions:
    """Rebalance triggers; 0 disables a trigger entirely."""

    #: Split a shard whose leader structure exceeds this (0 = no size splits).
    split_threshold_bytes: int = 0
    #: Merge adjacent shards whose combined size is under this (0 = never).
    merge_threshold_bytes: int = 0
    #: Split a shard drawing more than this fraction of a window's writes
    #: (0.0 = no load splits).  Needs at least ``min_window_writes`` writes
    #: in the window to trigger, so idle clusters never thrash.
    load_split_fraction: float = 0.0
    min_window_writes: int = 64
    #: Routed ops between rebalance checks.
    check_interval_ops: int = 512

    def __post_init__(self) -> None:
        if self.split_threshold_bytes < 0 or self.merge_threshold_bytes < 0:
            raise ConfigError("rebalance thresholds must be >= 0")
        if not 0.0 <= self.load_split_fraction <= 1.0:
            raise ConfigError("load_split_fraction must be in [0, 1]")
        if self.check_interval_ops < 1:
            raise ConfigError("check_interval_ops must be >= 1")

    @property
    def enabled(self) -> bool:
        return (self.split_threshold_bytes > 0
                or self.merge_threshold_bytes > 0
                or self.load_split_fraction > 0.0)


class Rebalancer:
    """Applies :class:`RebalanceOptions` to one cluster."""

    def __init__(self, cluster: "ClusterDB",
                 options: RebalanceOptions) -> None:
        self.cluster = cluster
        self.options = options
        self.splits = 0
        self.merges = 0
        #: Bytes shipped over the network by rebalance moves.
        self.moved_bytes = 0
        #: Per-shard write counts at the last window boundary.
        self._write_marks: Dict[int, int] = {}

    # ---------------------------------------------------------------- trigger
    def maybe_rebalance(self) -> None:
        """Run at an op checkpoint; performs at most one split or merge."""
        o = self.options
        if not o.enabled:
            return
        router = self.cluster.router
        target = self._pick_split(router.shards)
        if target is not None:
            self.split(target)
            self._mark_window(router.shards)
            return
        pair = self._pick_merge(router.shards)
        if pair is not None:
            self.merge(pair[0], pair[1])
        self._mark_window(router.shards)

    def _mark_window(self, shards: List[Shard]) -> None:
        self._write_marks = {s.shard_id: s.writes for s in shards}

    def _pick_split(self, shards: List[Shard]) -> Optional[Shard]:
        o = self.options
        best: Optional[Tuple[int, int, Shard]] = None
        window_writes = [(s, s.writes - self._write_marks.get(s.shard_id, 0))
                         for s in shards]
        total_window = sum(w for _, w in window_writes)
        for shard, window in window_writes:
            nbytes = shard.data_bytes()
            oversized = (o.split_threshold_bytes > 0
                         and nbytes > o.split_threshold_bytes)
            hot = (o.load_split_fraction > 0.0
                   and total_window >= o.min_window_writes
                   and window > o.load_split_fraction * total_window)
            if not (oversized or hot):
                continue
            if best is None or (nbytes, -shard.lo) > (best[0], -best[1]):
                best = (nbytes, shard.lo, shard)
        return best[2] if best is not None else None

    def _pick_merge(self, shards: List[Shard]) -> Optional[Tuple[Shard, Shard]]:
        o = self.options
        if o.merge_threshold_bytes <= 0 or len(shards) < 2:
            return None
        for left, right in zip(shards, shards[1:]):
            if left.data_bytes() + right.data_bytes() < o.merge_threshold_bytes:
                return left, right
        return None

    # ---------------------------------------------------------------- actions
    def split(self, shard: Shard) -> Optional[Tuple[Shard, Shard]]:
        """Split ``shard`` at the median key; returns the new (left, right).

        Returns None (no-op) when the shard holds fewer than two records --
        there is no key to cut at.
        """
        cluster = self.cluster
        rows = self._extract(shard)
        mid = len(rows) // 2
        if mid == 0:
            return None
        boundary = rows[mid][0]
        if not shard.lo < boundary < shard.hi:
            return None
        if cluster.tracer.enabled:
            cluster.tracer.instant("rebalance", "split",
                                   shard=shard.shard_id, boundary=boundary,
                                   records=len(rows))
        left = cluster._make_shard(shard.lo, boundary)
        right = cluster._make_shard(boundary, shard.hi)
        self._move(shard, rows[:mid], left)
        self._move(shard, rows[mid:], right)
        self._retire(shard)
        cluster.router.replace([shard], [left, right])
        self.splits += 1
        cluster.metrics.bump("rebalance:split")
        return left, right

    def merge(self, left: Shard, right: Shard) -> Shard:
        """Collapse two adjacent shards into one fresh shard."""
        if left.hi != right.lo:
            raise ConfigError(
                f"merge needs adjacent shards, got [{left.lo},{left.hi}) "
                f"and [{right.lo},{right.hi})")
        cluster = self.cluster
        rows = self._extract(left) + self._extract(right)
        if cluster.tracer.enabled:
            cluster.tracer.instant("rebalance", "merge",
                                   left=left.shard_id, right=right.shard_id,
                                   records=len(rows))
        merged = cluster._make_shard(left.lo, right.hi)
        self._move(left, rows, merged)
        self._retire(left)
        self._retire(right)
        cluster.router.replace([left, right], [merged])
        self.merges += 1
        cluster.metrics.bump("rebalance:merge")
        return merged

    # -------------------------------------------------------------- mechanics
    def _extract(self, shard: Shard) -> List[Tuple[int, object]]:
        """Visible (key, value) rows of the source, charged as leader reads."""
        return shard.group.scan(None, None)

    def _move(self, source: Shard, rows: List[Tuple[int, object]],
              dest: Shard) -> None:
        """Ship ``rows`` from ``source``'s leader into every dest replica."""
        if not rows:
            return
        run = Run.from_records([make_put(key, seq, value)
                                for seq, (key, value) in enumerate(rows, start=1)])
        nbytes = run.encoded_size(source.group.key_size)
        src_runtime = source.group.leader.db.runtime
        src_node = source.group.leader.node_id
        network = self.cluster.network
        for replica in dest.group.live_replicas():
            dst_node = replica.node_id
            # The copy streams over the network as background work on the
            # source (FIFO behind earlier traffic on that link), overlapping
            # the destination's ingestion.
            src_runtime.submit_job(
                "rebalance:ship",
                lambda s=src_node, d=dst_node, n=nbytes: network.reserve(s, d, n))
            self._ingest(replica.db, run)
            self.moved_bytes += nbytes
        # The transfer is synchronous at the rebalance level: both sides
        # drain before the router flips the shard map.
        src_runtime.quiesce()
        for replica in dest.group.live_replicas():
            replica.db.runtime.quiesce()
            # Ingest bypassed the WAL: the checkpoint is what makes it durable.
            replica.db.take_checkpoint(run.n)
        dest.group.acked_seq = dest.group.leader.db._seq

    def _ingest(self, db: "IamDB", run: Run) -> None:
        """Bulk-ingest a sorted run through the engine's flush path, one
        memtable's worth at a time (a chunk closes with the record that
        fills it)."""
        capacity = max(1, db.engine.memtable_capacity)
        ends = run.encoded_ends(db.key_size)
        start = base = 0
        while start < run.n:
            stop = min(bisect_left(ends, base + capacity, start) + 1, run.n)
            db.engine.submit_flush(run.slice(start, stop), ends[stop - 1] - base)
            base = ends[stop - 1]
            start = stop
        db._seq = run.n  # the rows were numbered 1..n
        db.runtime.pump()

    def _retire(self, shard: Shard) -> None:
        """Stop the source replicas; their files leave the ownership map."""
        for replica in shard.group.live_replicas():
            replica.db.runtime.pool.abandon_all()
            replica.db._closed = True
            replica.alive = False
        if self.cluster.tracer.enabled:
            self.cluster.tracer.instant("rebalance", "retire",
                                        shard=shard.shard_id)

    # ------------------------------------------------------------- inspection
    def snapshot(self) -> Dict[str, int]:
        return {"splits": self.splits, "merges": self.merges,
                "moved_bytes": self.moved_bytes}
