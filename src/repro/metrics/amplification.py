"""Amplification accounting (paper §5.3 definitions).

* **Write amplification** -- device bytes written by flushes/compactions
  divided by user-written bytes.  The paper excludes WAL bytes (§6.2), so the
  registry tracks WAL traffic separately.  Per-level attribution matches the
  paper's Tables 3 and 4: a write is charged to the level it lands in.
* **Read amplification** -- random disk I/Os (seeks) per query.
* **Space amplification** -- on-disk bytes over the logical database size.
"""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.check.effects.registry import observation_only
from repro.metrics.latency import (LatencyHistogram, LatencyRecorder,
                                   merge_histogram_snapshots)
from repro.metrics.stalls import StallBreakdown

#: Histogram op class of each :attr:`MetricsRegistry.latency` recorder key.
HIST_OP_CLASSES = {"insert": "put", "read": "get", "scan": "scan"}


class StallStat:
    """Structured record of foreground stalls sharing one reason."""

    __slots__ = ("count", "total_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s


class MetricsRegistry:
    """Counters shared by one DB instance and its storage stack."""

    def __init__(self) -> None:
        #: Bytes of user payload written (puts + deletes, encoded size).
        self.user_bytes = 0
        #: WAL bytes (excluded from write amplification, per §6.2).
        self.wal_bytes = 0
        #: Flush/compaction bytes written, attributed to the destination level.
        self.level_write_bytes: Dict[int, int] = defaultdict(int)
        #: Bytes read by compactions (device time cost, not part of WA).
        self.compaction_read_bytes = 0
        #: Random device I/Os issued by queries (read amplification numerator).
        self.query_seeks = 0
        #: Query block reads that hit the page cache.
        self.cache_hits = 0
        #: Query block reads that missed the page cache.
        self.cache_misses = 0
        #: Bloom filter membership probes issued by point lookups.
        self.bloom_probes = 0
        #: Bloom probes that rejected the key (sequence skipped, no I/O).
        self.bloom_negatives = 0
        #: Bytes uploaded to the shared object store (mirroring).
        self.objstore_bytes_up = 0
        #: Bytes downloaded from the shared object store (bootstrap, tiered
        #: reads, time travel).
        self.objstore_bytes_down = 0
        #: Event counters: splits, combines, merges, appends, moves, stalls...
        self.events: Dict[str, int] = defaultdict(int)
        #: Latency recorder per operation type ("insert", "read", "scan"...).
        self.latency: Dict[str, LatencyRecorder] = defaultdict(LatencyRecorder)
        #: Structured stalls by reason: count, total and longest duration.
        self.stalls: Dict[str, StallStat] = {}
        #: Soft write-gate pacing delays by reason (admitted-late, not
        #: blocked -- kept out of ``stalls`` so ``total_stall_s`` keeps its
        #: hard-stall meaning; StallBreakdown reports both).
        self.gate_delays: Dict[str, StallStat] = {}
        #: Opt-in per-op-class latency histograms (see enable_histograms).
        self.hist_enabled = False
        #: Per recorder key: samples folded into its histogram so far.
        self._hist_folded: Dict[str, int] = {}
        self._op_hist: Dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------ write
    def add_user_bytes(self, nbytes: int) -> None:
        self.user_bytes += nbytes

    def add_wal_bytes(self, nbytes: int) -> None:
        self.wal_bytes += nbytes

    def add_level_write(self, level: int, nbytes: int) -> None:
        self.level_write_bytes[level] += nbytes

    def add_compaction_read(self, nbytes: int) -> None:
        self.compaction_read_bytes += nbytes

    # ------------------------------------------------------------------- read
    def add_query_io(self, *, seeks: int, hits: int, misses: int) -> None:
        self.query_seeks += seeks
        self.cache_hits += hits
        self.cache_misses += misses

    # ----------------------------------------------------------- object store
    def add_objstore_up(self, nbytes: int) -> None:
        self.objstore_bytes_up += nbytes

    def add_objstore_down(self, nbytes: int) -> None:
        self.objstore_bytes_down += nbytes

    def bump(self, event: str, n: int = 1) -> None:
        self.events[event] += n

    def record_latency(self, op: str, latency_s: float) -> None:
        """One op's latency (the op paths inline it as one append)."""
        self.latency[op].samples.append(latency_s)

    # ------------------------------------------------------------- histograms
    @observation_only
    def enable_histograms(self) -> None:
        """Turn on per-op-class latency histograms: free for an op, since
        :attr:`op_hist` folds them from the :attr:`latency` samples recorded
        after this call (a second call changes nothing).  Runs with them on
        and off are byte-identical (proved in ``tests/test_stability.py``).
        """
        if self.hist_enabled:
            return
        self.hist_enabled = True
        self._hist_folded = {key: rec.count
                             for key, rec in self.latency.items()
                             if key in HIST_OP_CLASSES}

    @property
    @observation_only
    def op_hist(self) -> Mapping[str, LatencyHistogram]:
        """Read-only log-linear histogram per op class (empty while off).

        Op classes are the user-facing verbs -- "put", "get", "scan" --
        mapped from the :attr:`latency` recorder keys (which predate them
        and say "insert", "read", "scan").  A read folds only the samples
        recorded since the previous one.
        """
        if self.hist_enabled:
            for key, op in HIST_OP_CLASSES.items():
                rec = self.latency.get(key)
                start = self._hist_folded.get(key, 0)
                if rec is not None and len(rec.samples) > start:
                    end = len(rec.samples)
                    self._op_hist.setdefault(op, LatencyHistogram()).fold(
                        rec.window(start, end), op)
                    self._hist_folded[key] = end
        return MappingProxyType(self._op_hist)

    @observation_only
    def hist_snapshots(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every op-class histogram (empty when disabled)."""
        hists = self.op_hist
        return {op: hists[op].snapshot() for op in sorted(hists)}

    @observation_only
    def hist_percentiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p99/p999/max/mean/count per op class (empty when disabled)."""
        hists = self.op_hist
        return {op: hists[op].percentiles() for op in sorted(hists)}

    # ----------------------------------------------------------------- stalls
    def add_stall(self, reason: str, duration_s: float) -> None:
        """Record one foreground stall with its reason and duration."""
        stat = self.stalls.get(reason)
        if stat is None:
            stat = StallStat()
            self.stalls[reason] = stat
        stat.record(duration_s)

    def add_gate_delay(self, reason: str, duration_s: float) -> None:
        """Record one soft write-gate pacing delay (admitted late)."""
        stat = self.gate_delays.get(reason)
        if stat is None:
            stat = StallStat()
            self.gate_delays[reason] = stat
        stat.record(duration_s)

    @property
    def total_gate_delay_s(self) -> float:
        return sum(st.total_s for st in self.gate_delays.values())

    @observation_only
    def stall_breakdown(self) -> StallBreakdown:
        """Blame-class rollup of hard stalls + soft gate delays."""
        return StallBreakdown.from_metrics(self.stalls, self.gate_delays)

    @property
    def total_stall_s(self) -> float:
        return sum(st.total_s for st in self.stalls.values())

    def longest_stall(self) -> Optional[Tuple[str, float]]:
        """(reason, duration) of the single longest stall, or None."""
        best: Optional[Tuple[str, float]] = None
        for reason in sorted(self.stalls):
            st = self.stalls[reason]
            if best is None or st.max_s > best[1]:
                best = (reason, st.max_s)
        return best

    # ------------------------------------------------------------ derived WA
    @property
    def compaction_write_bytes(self) -> int:
        return sum(self.level_write_bytes.values())

    def write_amplification(self, *, include_wal: bool = False) -> float:
        """Total write amplification; WAL excluded by default (paper §6.2)."""
        if self.user_bytes == 0:
            return 0.0
        total = self.compaction_write_bytes
        if include_wal:
            total += self.wal_bytes
        return total / self.user_bytes

    def per_level_write_amplification(self) -> Dict[int, float]:
        """Write amplification attributed per destination level (Tables 3/4)."""
        if self.user_bytes == 0:
            return {}
        return {
            level: nbytes / self.user_bytes
            for level, nbytes in sorted(self.level_write_bytes.items())
        }

    def read_amplification(self, ops: Iterable[str] = ("read", "scan")) -> float:
        """Average random I/Os per recorded query of the given op types."""
        n_ops = sum(self.latency[op].count for op in ops if op in self.latency)
        if n_ops == 0:
            return 0.0
        return self.query_seeks / n_ops

    @staticmethod
    def space_amplification(disk_bytes: int, logical_bytes: int) -> float:
        if logical_bytes <= 0:
            return 0.0
        return disk_bytes / logical_bytes

    def cache_hit_rate(self) -> float:
        """Query-read cache hit fraction; 0.0 when no reads occurred."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def summary(self) -> Dict[str, float]:
        return {
            "user_bytes": float(self.user_bytes),
            "wal_bytes": float(self.wal_bytes),
            "compaction_write_bytes": float(self.compaction_write_bytes),
            "write_amplification": self.write_amplification(),
            "query_seeks": float(self.query_seeks),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate(),
            "total_stall_s": self.total_stall_s,
        }

    # --------------------------------------------------------------- sampling
    def snapshot(self) -> Dict[str, object]:
        """A copy of every counter -- delta sampling without perturbation."""
        return {
            "user_bytes": self.user_bytes,
            "wal_bytes": self.wal_bytes,
            "level_write_bytes": dict(self.level_write_bytes),
            "compaction_read_bytes": self.compaction_read_bytes,
            "query_seeks": self.query_seeks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bloom_probes": self.bloom_probes,
            "bloom_negatives": self.bloom_negatives,
            "objstore_bytes_up": self.objstore_bytes_up,
            "objstore_bytes_down": self.objstore_bytes_down,
            "events": dict(self.events),
            "op_counts": {op: rec.count for op, rec in self.latency.items()},
            "stalls": {reason: (st.count, st.total_s, st.max_s)
                       for reason, st in self.stalls.items()},
            "gate_delays": {reason: (st.count, st.total_s, st.max_s)
                            for reason, st in self.gate_delays.items()},
            **({"latency_hist": self.hist_snapshots()}
               if self.hist_enabled else {}),
        }

    @observation_only
    def render_prom(self, *, extra_gauges: Optional[
            Dict[str, Union[float, Tuple[str, float]]]] = None) -> str:
        """Prometheus text exposition of this registry (plus derived rates).

        See :mod:`repro.metrics.prom`; deterministic for a given state.
        """
        from repro.metrics.prom import render_prom
        snap = self.snapshot()
        snap["write_amplification"] = self.write_amplification()
        snap["cache_hit_rate"] = self.cache_hit_rate()
        snap["total_stall_s"] = self.total_stall_s
        snap["total_gate_delay_s"] = self.total_gate_delay_s
        return render_prom(snap, extra_gauges=extra_gauges)

    def reset(self) -> None:
        """Zero every counter (fresh-registry state, same object identity)."""
        self.user_bytes = 0
        self.wal_bytes = 0
        self.level_write_bytes.clear()
        self.compaction_read_bytes = 0
        self.query_seeks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bloom_probes = 0
        self.bloom_negatives = 0
        self.objstore_bytes_up = 0
        self.objstore_bytes_down = 0
        self.events.clear()
        self.latency.clear()
        self.stalls.clear()
        self.gate_delays.clear()
        self._hist_folded.clear()  # hist_enabled is configuration
        self._op_hist.clear()


def merge_snapshots(snapshots: "Iterable[Dict[str, object]]") -> Dict[str, object]:
    """Combine :meth:`MetricsRegistry.snapshot` dicts across instances.

    Cluster reports aggregate one snapshot per shard: scalar counters and
    the nested ``level_write_bytes`` / ``events`` / ``op_counts`` dicts are
    summed, stalls and gate delays merge as (count sum, total sum, max of
    max), per-op-class latency histograms merge by bucket-count addition
    (so merged percentiles equal percentiles of the concatenated sample
    stream -- see ``tests/test_latency_histogram.py``), and the derived
    rates are recomputed from the merged totals -- the cache hit rate is
    the byte-weighted rate, not the mean of per-shard rates.
    """
    scalar_keys = ("user_bytes", "wal_bytes", "compaction_read_bytes",
                   "query_seeks", "cache_hits", "cache_misses",
                   "bloom_probes", "bloom_negatives",
                   "objstore_bytes_up", "objstore_bytes_down")
    merged: Dict[str, object] = {key: 0 for key in scalar_keys}
    level_writes: Dict[int, int] = {}
    events: Dict[str, int] = {}
    op_counts: Dict[str, int] = {}
    stalls: Dict[str, Tuple[int, float, float]] = {}
    gate_delays: Dict[str, Tuple[int, float, float]] = {}
    hist_snaps: Dict[str, list] = {}
    for snap in snapshots:
        for key in scalar_keys:
            value = snap.get(key, 0)
            if isinstance(value, int):
                merged[key] = merged[key] + value  # type: ignore[operator]
        raw_lw = snap.get("level_write_bytes")
        if isinstance(raw_lw, dict):
            for level, nbytes in raw_lw.items():
                level_writes[level] = level_writes.get(level, 0) + nbytes
        raw_events = snap.get("events")
        if isinstance(raw_events, dict):
            for name, count in raw_events.items():
                events[name] = events.get(name, 0) + count
        raw_ops = snap.get("op_counts")
        if isinstance(raw_ops, dict):
            for op, count in raw_ops.items():
                op_counts[op] = op_counts.get(op, 0) + count
        raw_stalls = snap.get("stalls")
        if isinstance(raw_stalls, dict):
            for reason, (count, total_s, max_s) in raw_stalls.items():
                prev = stalls.get(reason, (0, 0.0, 0.0))
                stalls[reason] = (prev[0] + count, prev[1] + total_s,
                                  max(prev[2], max_s))
        raw_gates = snap.get("gate_delays")
        if isinstance(raw_gates, dict):
            for reason, (count, total_s, max_s) in raw_gates.items():
                prev = gate_delays.get(reason, (0, 0.0, 0.0))
                gate_delays[reason] = (prev[0] + count, prev[1] + total_s,
                                       max(prev[2], max_s))
        raw_hist = snap.get("latency_hist")
        if isinstance(raw_hist, dict):
            for op, hist_snap in raw_hist.items():
                hist_snaps.setdefault(op, []).append(hist_snap)
    merged["level_write_bytes"] = dict(sorted(level_writes.items()))
    merged["events"] = dict(sorted(events.items()))
    merged["op_counts"] = dict(sorted(op_counts.items()))
    merged["stalls"] = {reason: stalls[reason] for reason in sorted(stalls)}
    merged["gate_delays"] = {reason: gate_delays[reason]
                             for reason in sorted(gate_delays)}
    if hist_snaps:
        merged["latency_hist"] = {
            op: merge_histogram_snapshots(hist_snaps[op])
            for op in sorted(hist_snaps)}
    user = merged["user_bytes"]
    compaction = sum(level_writes.values())
    merged["compaction_write_bytes"] = compaction
    merged["write_amplification"] = (
        compaction / user if isinstance(user, int) and user > 0 else 0.0)
    hits = merged["cache_hits"]
    misses = merged["cache_misses"]
    looked = (hits + misses  # type: ignore[operator]
              if isinstance(hits, int) and isinstance(misses, int) else 0)
    merged["cache_hit_rate"] = (
        hits / looked if isinstance(hits, int) and looked > 0 else 0.0)
    merged["total_stall_s"] = sum(t for _, t, _ in stalls.values())
    merged["longest_stall_s"] = max(
        (m for _, _, m in stalls.values()), default=0.0)
    merged["total_gate_delay_s"] = sum(t for _, t, _ in gate_delays.values())
    return merged
