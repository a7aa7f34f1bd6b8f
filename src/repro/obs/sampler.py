"""Sim-time timeseries sampler (Fig. 8-style telemetry).

Snapshots the storage stack at a configurable simulated-time interval:
per-level data bytes, sequence counts per node, running write/read/space
amplification, cache hit rate, pending compaction debt, cumulative stall
time, windowed operation throughput, and read-path rates (point lookups/s,
blocks touched per lookup, Bloom negative rate).  The rows reproduce the paper's
throughput/stability timelines (Fig. 8) and LevelDB's overflow story (§6.2)
directly from one traced run.

Sampling is driven from :meth:`repro.storage.runtime.Runtime.pump` -- the
per-operation heartbeat of every DB -- and is therefore deterministic: a
sample is due whenever the simulated clock has crossed the next grid point,
so two runs with the same seed sample at identical instants.  The sampler
only *reads* state (metric deltas come from
:meth:`~repro.metrics.amplification.MetricsRegistry.snapshot`, never
``reset``), keeping traced runs byte-identical to untraced ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.metrics.latency import HIST_QUANTILES
from repro.metrics.stalls import STALL_CLASSES, StallBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB

#: Default sampling interval in simulated seconds.  Scaled runs complete in
#: a few hundred sim-milliseconds, so 5 sim-ms yields on the order of 100
#: rows for a full load.
DEFAULT_INTERVAL_S = 0.005


class TimeseriesSampler:
    """Periodic read-only snapshots of one DB's metrics and tree shape."""

    def __init__(self, db: "IamDB", interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if interval_s <= 0.0:
            interval_s = DEFAULT_INTERVAL_S
        self.db = db
        self.interval_s = interval_s
        self.rows: List[Dict[str, object]] = []
        now = db.runtime.clock.now
        self._next_due = now + interval_s
        self._last_ts = now
        self._last_ops = self._op_total(db.metrics.snapshot())
        self._last_hits = db.metrics.cache_hits
        self._last_misses = db.metrics.cache_misses
        self._last_reads = self._read_count(db.metrics.snapshot())
        self._last_bloom_probes = db.metrics.bloom_probes
        self._last_bloom_negatives = db.metrics.bloom_negatives
        self._last_objstore_up = db.metrics.objstore_bytes_up
        self._last_objstore_down = db.metrics.objstore_bytes_down
        self._last_objstore_requests = self._objstore_requests(
            db.metrics.snapshot())
        #: Per-op-class histogram snapshots at the last sample (windowed
        #: percentile timelines; empty while histograms are disabled).
        self._last_hist: Dict[str, Dict[str, object]] = {}

    # ---------------------------------------------------------------- driving
    def maybe_sample(self) -> None:
        """Take a sample when the clock has crossed the next grid point."""
        if self.db.runtime.clock.now >= self._next_due:
            self.sample()

    def finalize(self) -> None:
        """Flush the final partial window at run end.

        ``maybe_sample`` only fires when the clock *crosses* a grid point,
        so a run ending mid-window would silently drop everything since the
        last row -- the tail of every throughput/latency timeline.  Called
        by :meth:`repro.obs.session.TraceSession.finish` (and directly by
        harnesses that drive the sampler without a session); takes one last
        row iff time advanced or ops completed since the previous row, so
        repeated calls do not append duplicate rows.
        """
        if not self.rows:
            self.sample()
            return
        now = self.db.runtime.clock.now
        if (now > self._last_ts
                or self._op_total(self.db.metrics.snapshot()) != self._last_ops):
            self.sample()

    @staticmethod
    def _op_total(snapshot: Dict[str, object]) -> int:
        counts = snapshot["op_counts"]
        total = 0
        for n in counts.values():  # type: ignore[union-attr]
            total += int(n)
        return total

    @staticmethod
    def _read_count(snapshot: Dict[str, object]) -> int:
        counts = snapshot["op_counts"]
        return int(counts.get("read", 0))  # type: ignore[union-attr]

    @staticmethod
    def _objstore_requests(snapshot: Dict[str, object]) -> int:
        """Total object-store requests (every ``objstore:*`` event)."""
        events = snapshot["events"]
        total = 0
        for name, n in events.items():  # type: ignore[union-attr]
            if str(name).startswith("objstore:"):
                total += int(n)
        return total

    # --------------------------------------------------------------- sampling
    def _sequence_shape(self) -> Dict[str, int]:
        """(total sequences, max per node, node count) across the structure."""
        total = 0
        max_per_node = 0
        nodes = 0
        levels = getattr(self.db.engine, "levels", None)
        if levels is None:
            return {"nodes": 0, "seqs_total": 0, "seqs_max_per_node": 0}
        for level in levels:
            for node in level:
                n = getattr(node, "n_sequences", 0)
                nodes += 1
                total += n
                if n > max_per_node:
                    max_per_node = n
        return {"nodes": nodes, "seqs_total": total,
                "seqs_max_per_node": max_per_node}

    def sample(self) -> Dict[str, object]:
        """Take one snapshot row now; advances the sampling grid past "now"."""
        db = self.db
        runtime = db.runtime
        metrics = db.metrics
        now = runtime.clock.now
        snap = metrics.snapshot()
        ops = self._op_total(snap)
        window_s = now - self._last_ts
        ops_window = ops - self._last_ops
        hits = metrics.cache_hits
        misses = metrics.cache_misses
        dh = hits - self._last_hits
        dm = misses - self._last_misses
        reads = self._read_count(snap)
        dreads = reads - self._last_reads
        bp = metrics.bloom_probes
        bn = metrics.bloom_negatives
        dbp = bp - self._last_bloom_probes
        dbn = bn - self._last_bloom_negatives
        row: Dict[str, object] = {
            "ts": now,
            "level_data_bytes": {int(k): int(v)
                                 for k, v in sorted(db.engine.level_data_bytes().items())},
            "level_write_bytes": {int(k): int(v)
                                  for k, v in sorted(metrics.level_write_bytes.items())},
            "write_amplification": metrics.write_amplification(),
            "read_amplification": metrics.read_amplification(),
            "space_used_bytes": runtime.space_used_bytes(),
            "space_amplification": metrics.space_amplification(
                runtime.space_used_bytes(), metrics.user_bytes),
            "cache_hit_rate": metrics.cache_hit_rate(),
            "cache_hit_rate_window": (dh / (dh + dm)) if (dh + dm) > 0 else 0.0,
            "cache_used_bytes": runtime.cache.used_bytes,
            "pending_debt_s": runtime.pool.pending_debt_s,
            "queued_jobs": len(runtime.pool.queue),
            "active_jobs": len(runtime.pool.active),
            "total_stall_s": metrics.total_stall_s,
            "ops": ops,
            "ops_window": ops_window,
            "throughput_ops_s": (ops_window / window_s) if window_s > 0.0 else 0.0,
            # Read-path telemetry (windowed): point-lookup throughput, data
            # blocks touched per lookup, and the Bloom-filter negative rate.
            "reads": reads,
            "reads_window": dreads,
            "point_lookup_rate": (dreads / window_s) if window_s > 0.0 else 0.0,
            "blocks_per_read_window": ((dh + dm) / dreads) if dreads > 0 else 0.0,
            "bloom_negative_rate_window": (dbn / dbp) if dbp > 0 else 0.0,
            # Shared-storage telemetry (windowed): tiering upload/fetch
            # traffic and the request count against the object store.
            "objstore_bytes_up": metrics.objstore_bytes_up,
            "objstore_bytes_down": metrics.objstore_bytes_down,
            "objstore_bytes_up_window":
                metrics.objstore_bytes_up - self._last_objstore_up,
            "objstore_bytes_down_window":
                metrics.objstore_bytes_down - self._last_objstore_down,
            "objstore_requests_window":
                self._objstore_requests(snap) - self._last_objstore_requests,
        }
        # Stall attribution: cumulative blamed seconds per class (hard
        # stalls + soft gate delays; see repro.metrics.stalls).
        breakdown = StallBreakdown.from_metrics(metrics.stalls,
                                                metrics.gate_delays)
        row["stall_s_by_class"] = breakdown.class_seconds()
        if metrics.hist_enabled:
            # Windowed per-op-class latency percentiles from histogram
            # deltas -- the p99/p99.9 timelines of the stability reports.
            lat_window: Dict[str, Dict[str, float]] = {}
            hists = metrics.op_hist
            for op in sorted(hists):
                delta = hists[op].delta_since(self._last_hist.get(op, {}))
                if delta.count > 0:
                    per_op = {key: delta.percentile(q)
                              for key, q in HIST_QUANTILES}
                    per_op["count"] = float(delta.count)
                    lat_window[op] = per_op
            row["latency_window"] = lat_window
            self._last_hist = metrics.hist_snapshots()
        row.update(self._sequence_shape())
        self.rows.append(row)
        self._last_ts = now
        self._last_ops = ops
        self._last_hits = hits
        self._last_misses = misses
        self._last_reads = reads
        self._last_bloom_probes = bp
        self._last_bloom_negatives = bn
        self._last_objstore_up = metrics.objstore_bytes_up
        self._last_objstore_down = metrics.objstore_bytes_down
        self._last_objstore_requests = self._objstore_requests(snap)
        # Advance the grid strictly past "now" (a stall may jump several
        # intervals; one row represents the whole jump).
        step = self.interval_s
        due = self._next_due
        if due <= now:
            behind = now - due
            due += (int(behind / step) + 1) * step
        self._next_due = due
        return row
