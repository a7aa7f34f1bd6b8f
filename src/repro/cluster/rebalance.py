"""Shard split and cold-shard merge: data movement over the network.

Rebalance runs at deterministic op-count checkpoints (every
:data:`REBALANCE_CHECK_OPS` routed operations) and performs at most one
split per checkpoint:

* **split** -- the largest shard whose leader holds more than
  ``ClusterOptions.split_threshold_bytes`` of structural data is cut at the
  median key of its visible records into two fresh shards.
* **merge** -- two *adjacent* shards collapse into one fresh shard
  (:meth:`Rebalancer.merge`; called directly, no trigger fires it).

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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.shard import Shard
from repro.common.errors import ConfigError
from repro.common.records import make_put
from repro.table.run import Run

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterDB
    from repro.db.iamdb import IamDB


#: Routed ops between rebalance checks.
REBALANCE_CHECK_OPS = 512


class Rebalancer:
    """Splits one cluster's oversized shards; moves data for split/merge."""

    def __init__(self, cluster: "ClusterDB") -> None:
        self.cluster = cluster
        self.splits = 0
        self.merges = 0
        #: Bytes shipped over the network by rebalance moves.
        self.moved_bytes = 0

    # ---------------------------------------------------------------- trigger
    def maybe_rebalance(self) -> None:
        """Run at an op checkpoint: split the largest oversized shard
        (0 = no size splits; ties go to the lowest range)."""
        threshold = self.cluster.options.split_threshold_bytes
        if threshold <= 0:
            return
        best: Optional[Tuple[int, int, Shard]] = None
        for shard in self.cluster.router.shards:
            nbytes = shard.data_bytes()
            if nbytes <= threshold:
                continue
            if best is None or (nbytes, -shard.lo) > (best[0], -best[1]):
                best = (nbytes, shard.lo, shard)
        if best is not None:
            self.split(best[2])

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
