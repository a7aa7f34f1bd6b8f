"""Stability metrics: windowed throughput, stall blame, tail timelines.

Luo & Carey ("On Performance Stability in LSM-based Storage Systems",
PAPERS.md) argue that mean throughput hides exactly the behavior that
matters operationally: write stalls and bursty background scheduling show
up as windowed-throughput *variance* and p99/p99.9 latency, not in the
mean.  This module turns the raw :class:`~repro.obs.sampler.TimeseriesSampler`
grid and the per-op-class histograms into the paper's stability digests:

* :func:`throughput_stats` -- duration-weighted windowed-throughput
  mean/variance/min-window over sampler rows.  The duration-weighted mean
  of the window rates equals global ops / global time *exactly* (tested),
  so "mean" here is the honest number, and variance/CV quantify how
  bursty the run was around it.
* :func:`stall_window` -- blamed seconds per stall class across a row
  range, as a fraction of the window's simulated duration.
* :func:`percentile_timeline` -- the p50/p99/p99.9 timeline of one op
  class from the sampler's windowed histogram deltas.
* :class:`StabilityProbe` -- the harness-facing wrapper: enables
  histograms, attaches a sampler, and renders per-phase window reports
  (used by ``repro.bench.stability`` and the figure benchmarks).

Everything here is observation-only by registry prefix (see
``repro.check.effects.registry``): it reads sampler rows and metric
snapshots, never the other way around.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

from repro.metrics.stalls import STALL_CLASSES
from repro.obs.sampler import DEFAULT_INTERVAL_S, TimeseriesSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB

Row = Mapping[str, object]


def _row_float(row: Row, key: str) -> float:
    value = row.get(key, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def throughput_stats(rows: Sequence[Row]) -> Dict[str, float]:
    """Windowed-throughput digest over consecutive sampler rows.

    Windows are the deltas between consecutive rows' *cumulative* ``ops``
    and ``ts`` fields (robust to slicing a row range out of a longer run).
    Rates are weighted by window duration, so ``mean_ops_s`` equals total
    ops over total time exactly; ``variance`` / ``cv`` are the duration-
    weighted spread of per-window rates around that mean, and
    ``min_window_ops_s`` is the worst window -- the number a stall crushes.
    Needs at least two rows; returns an all-zero digest otherwise.
    """
    zero = {"duration_s": 0.0, "ops": 0.0, "n_windows": 0.0,
            "mean_ops_s": 0.0, "variance": 0.0, "std": 0.0, "cv": 0.0,
            "min_window_ops_s": 0.0, "max_window_ops_s": 0.0}
    if len(rows) < 2:
        return zero
    rates: List[float] = []
    weights: List[float] = []
    carried = 0.0
    for prev, cur in zip(rows, rows[1:]):
        dur = _row_float(cur, "ts") - _row_float(prev, "ts")
        ops = _row_float(cur, "ops") - _row_float(prev, "ops") + carried
        if dur <= 0.0:
            # Zero-duration row pair (e.g. the run-end flush landing on the
            # last grid sample's instant): its ops belong to the
            # neighboring window, never on the floor.
            carried = ops
            continue
        carried = 0.0
        rates.append(ops / dur)
        weights.append(dur)
    if carried and rates:
        rates[-1] += carried / weights[-1]
    total_time = sum(weights)
    if not rates or total_time <= 0.0:
        return zero
    total_ops = sum(r * w for r, w in zip(rates, weights))
    mean = total_ops / total_time
    variance = sum(w * (r - mean) ** 2 for r, w in zip(rates, weights))
    variance /= total_time
    std = variance ** 0.5
    return {
        "duration_s": total_time,
        "ops": total_ops,
        "n_windows": float(len(rates)),
        "mean_ops_s": mean,
        "variance": variance,
        "std": std,
        "cv": (std / mean) if mean > 0.0 else 0.0,
        "min_window_ops_s": min(rates),
        "max_window_ops_s": max(rates),
    }


def stall_window(rows: Sequence[Row]) -> Dict[str, object]:
    """Blamed seconds per stall class across a row range.

    Uses the sampler's cumulative ``stall_s_by_class`` column (hard stalls
    + soft gate delays); the fraction is of the window's simulated
    duration.  Returns zeros when the range has fewer than two rows.
    """
    by_class = {cls: 0.0 for cls in STALL_CLASSES}
    duration = 0.0
    if len(rows) >= 2:
        first, last = rows[0], rows[-1]
        duration = _row_float(last, "ts") - _row_float(first, "ts")
        raw_a, raw_b = first.get("stall_s_by_class"), last.get("stall_s_by_class")
        if isinstance(raw_a, dict) and isinstance(raw_b, dict):
            for cls in STALL_CLASSES:
                by_class[cls] = (float(raw_b.get(cls, 0.0))
                                 - float(raw_a.get(cls, 0.0)))
    total = sum(by_class.values())
    return {
        "total_s": total,
        "by_class": by_class,
        "stall_fraction": (total / duration) if duration > 0.0 else 0.0,
    }


def percentile_timeline(rows: Sequence[Row], op: str) -> List[Dict[str, float]]:
    """(ts, p50, p99, p999, count) points for one op class's windows.

    Reads the sampler's ``latency_window`` column (present when the DB's
    histograms are enabled); windows with no samples of ``op`` are skipped,
    so the timeline only has real points.
    """
    out: List[Dict[str, float]] = []
    for row in rows:
        raw = row.get("latency_window")
        if not isinstance(raw, dict):
            continue
        per_op = raw.get(op)
        if not isinstance(per_op, dict):
            continue
        point = {"ts": _row_float(row, "ts")}
        for key in ("p50", "p99", "p999", "count"):
            point[key] = float(per_op.get(key, 0.0))
        out.append(point)
    return out


def downsample(points: Sequence[Dict[str, float]],
               n_max: int) -> List[Dict[str, float]]:
    """At most ``n_max`` evenly spaced points, always keeping the ends."""
    if len(points) <= n_max:
        return list(points)
    if n_max <= 1:
        return [points[-1]]
    last = len(points) - 1
    picks = sorted({(i * last) // (n_max - 1) for i in range(n_max)})
    return [points[i] for i in picks]


class Mark:
    """An anchor row for a :class:`StabilityProbe` window."""

    __slots__ = ("row_index", "hist", "ts")

    def __init__(self, row_index: int, hist: Dict[str, Dict[str, object]],
                 ts: float) -> None:
        self.row_index = row_index
        self.hist = hist
        self.ts = ts


class StabilityProbe:
    """Turn one DB run into per-phase stability reports.

    Enables the DB's per-op-class latency histograms and attaches a
    :class:`TimeseriesSampler`; :meth:`mark` anchors a phase boundary (one
    forced sample row + histogram snapshots) and :meth:`window_report`
    renders the stability digest of everything since a mark.  The probe is
    pay-for-what-you-use observability -- it never perturbs the simulated
    run (effect-gate checked).
    """

    def __init__(self, db: "IamDB",
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.db = db
        db.metrics.enable_histograms()
        self.sampler = TimeseriesSampler(db, interval_s)
        db.runtime.attach_sampler(self.sampler)

    def mark(self) -> Mark:
        """Anchor a phase boundary; returns the mark to report against."""
        self.sampler.sample()
        return Mark(row_index=len(self.sampler.rows) - 1,
                    hist=self.db.metrics.hist_snapshots(),
                    ts=self.db.runtime.clock.now)

    def latency_since(self, mark: Mark) -> Dict[str, Dict[str, float]]:
        """Per-op-class percentile digest of samples since ``mark``."""
        out: Dict[str, Dict[str, float]] = {}
        hists = self.db.metrics.op_hist
        for op in sorted(hists):
            delta = hists[op].delta_since(mark.hist.get(op, {}))
            if delta.count > 0:
                out[op] = delta.percentiles()
        return out

    def window_report(self, mark: Mark, *,
                      timeline_points: int = 32) -> Dict[str, object]:
        """The stability digest of everything since ``mark``.

        Flushes the sampler's final partial window first, so the report
        always covers the full phase.  ``timeline`` series are downsampled
        to at most ``timeline_points`` entries (ends always kept).
        """
        self.sampler.finalize()
        rows = self.sampler.rows[mark.row_index:]
        latency = self.latency_since(mark)
        throughput = [
            {"ts": _row_float(r, "ts"),
             "ops_per_s": _row_float(r, "throughput_ops_s")}
            for r in rows[1:]]
        timeline: Dict[str, object] = {
            "throughput": downsample(throughput, timeline_points),
            "latency": {op: downsample(percentile_timeline(rows, op),
                                       timeline_points)
                        for op in sorted(latency)},
        }
        last_ts = _row_float(rows[-1], "ts") if rows else mark.ts
        return {
            "sim_seconds": last_ts - mark.ts,
            "throughput": throughput_stats(rows),
            "stalls": stall_window(rows),
            "latency": latency,
            "timeline": timeline,
        }
