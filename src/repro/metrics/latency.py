"""Latency recording on the simulated clock.

Latencies are simulated seconds, not wall-clock time.  One collector and
one view live here:

* :class:`LatencyRecorder` keeps **every sample** (simulation runs are
  op-count bounded, so sample counts stay modest) and derives everything
  else when read.  Exact, but O(samples) memory and not mergeable
  without shipping the raw stream.
* :class:`LatencyHistogram` keeps **fixed log-linear buckets** (HDR-style:
  a power-of-two octave split into :data:`HIST_SUBBUCKETS` linear
  sub-buckets, worst-case ~3.1% relative resolution at 32).  O(occupied
  buckets) memory, deterministic, and mergeable across shards by
  bucket-count addition -- percentiles of a merged histogram are
  *identical* to percentiles of the histogram built from the concatenated
  sample stream, which is what makes cluster-level p99.9 honest.  The
  registry folds them from recorder samples on read (:meth:`fold`, which
  reproduces the one-sample :meth:`record` bit for bit).

Percentile semantics -- two conventions coexist and are named explicitly:

* :func:`percentile` is **linear interpolation** (numpy's default): the
  q-th percentile may be a value that never occurred.  Used by the
  paper-facing tail summaries, which predate this module's histograms.
* :func:`percentile_nearest_rank` is **nearest-rank**: the smallest sample
  such that at least ``ceil(q/100 * n)`` samples are <= it; always a real
  sample.  :meth:`LatencyHistogram.percentile` implements nearest-rank
  over bucket upper bounds, so histogram percentiles are upper bounds on
  the nearest-rank sample percentile, within one bucket's resolution.

Both conventions return 0.0 for an empty sample set or histogram -- never
raise.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import InvariantViolation

#: Linear sub-buckets per power-of-two octave.  32 gives a worst-case
#: relative bucket width of 1/32 at the bottom of an octave (~3.1%), which
#: is far below run-to-run scheduling effects on the simulated clock.
HIST_SUBBUCKETS = 32

#: Quantiles reported by :meth:`LatencyHistogram.percentiles`, with the
#: JSON-friendly key used for each ("p99.9" would collide with attribute
#: naming conventions downstream, so the key drops the dot).
HIST_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0), ("p99", 99.0), ("p999", 99.9),
)

SampleSeq = Union[Sequence[float], "array[float]"]


def percentile(samples: SampleSeq, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``; 0.0 when empty.

    Linear-interpolation convention (numpy default): the result may lie
    between two samples.  See module docstring for the two conventions.
    """
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def percentile_nearest_rank(samples: SampleSeq, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``; 0.0 when empty.

    Returns the smallest sample with at least ``ceil(q/100 * n)`` samples
    at or below it (rank clamped to [1, n]); the result is always one of
    the samples.  This is the convention :class:`LatencyHistogram`
    approximates with bucket upper bounds.
    """
    n = len(samples)
    if n == 0:
        return 0.0
    rank = math.ceil(q / 100.0 * n)
    rank = min(max(rank, 1), n)
    ordered = sorted(float(s) for s in samples)
    return ordered[rank - 1]


def bucket_index(value: float) -> int:
    """Log-linear bucket index for a positive latency value.

    ``value = m * 2**e`` with ``m in [0.5, 1)`` (``math.frexp``); the
    octave ``e`` is split into :data:`HIST_SUBBUCKETS` equal sub-buckets.
    Indices are negative for sub-second-scale values -- dict keys, never
    array offsets.
    """
    m, e = math.frexp(value)
    sub = int((m - 0.5) * (2 * HIST_SUBBUCKETS))
    if sub >= HIST_SUBBUCKETS:  # m == 1.0 - ulp rounding up
        sub = HIST_SUBBUCKETS - 1
    return e * HIST_SUBBUCKETS + sub


def left_sum(acc: float, window: np.ndarray) -> float:
    """``acc + w[0] + w[1] + ...`` added strictly left to right -- the bits a
    ``+=`` loop gives.  ``np.sum`` (pairwise), ``math.fsum`` (exact) and
    Python 3.12's ``sum`` (compensated) each round differently."""
    return float(np.add.accumulate(np.concatenate(((acc,), window)))[-1])


def bucket_bounds(index: int) -> Tuple[float, float]:
    """``(low, high]`` value bounds of a bucket index (exact, via ldexp)."""
    e, sub = divmod(index, HIST_SUBBUCKETS)
    low = math.ldexp(0.5 + sub / (2.0 * HIST_SUBBUCKETS), e)
    high = math.ldexp(0.5 + (sub + 1) / (2.0 * HIST_SUBBUCKETS), e)
    return low, high


class LatencyHistogram:
    """Fixed-bucket log-linear latency histogram (sim seconds).

    Deterministic: bucket boundaries are pure functions of the value (no
    auto-ranging, no resize), so two runs with identical sample streams
    produce identical snapshots, and shards merge by integer addition.
    Zero latencies (cache-hit reads that charge no device time) are
    common in the simulator and get a dedicated exact-zero bucket.
    """

    __slots__ = ("_zero", "_buckets", "_count", "_sum", "_max", "_min")

    def __init__(self) -> None:
        self._zero = 0
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = math.inf

    def record(self, latency_s: float) -> None:
        if not latency_s < math.inf:  # NaN or +inf: no bucket holds it
            raise InvariantViolation(
                f"latency sample {latency_s!r} is not finite")
        self._count += 1
        self._sum += latency_s
        if latency_s > self._max:
            self._max = latency_s
        if latency_s < self._min:
            self._min = latency_s
        if latency_s <= 0.0:
            self._zero += 1
            return
        idx = bucket_index(latency_s)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def fold(self, window: np.ndarray, op_class: str) -> None:
        """:meth:`record` every sample of a non-empty ``window``, in order,
        in a fixed number of calls whatever its length: the same counts,
        ``sum`` bits and exact max/min.  A NaN or +inf sample raises
        :class:`InvariantViolation` naming ``op_class`` and the value."""
        top, bottom = float(window.max()), float(window.min())
        if not top < math.inf:  # max() propagates a NaN
            raise InvariantViolation(
                f"{op_class} latency sample {top!r} is not finite")
        self._count += len(window)
        self._sum = left_sum(self._sum, window)
        self._max = max(self._max, top)  # first wins a tie, as ">" keeps it
        self._min = min(self._min, bottom)
        positive = window[window > 0.0]
        self._zero += len(window) - len(positive)
        # bucket_index, vectorised: frexp, truncate (m - 0.5) * 2S, clamp.
        m, e = np.frexp(positive)
        sub = np.minimum(((m - 0.5) * (2 * HIST_SUBBUCKETS)).astype(np.int64),
                         HIST_SUBBUCKETS - 1)
        idx, counts = np.unique(e.astype(np.int64) * HIST_SUBBUCKETS + sub,
                                return_counts=True)
        buckets = self._buckets
        for i, c in zip(idx.tolist(), counts.tolist()):
            if i in buckets:
                buckets[i] += c
            else:
                buckets[i] = c

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile; 0.0 when empty, never raises.

        Walks the cumulative bucket counts to the rank and reports that
        bucket's upper bound, clamped to the exact recorded maximum -- so
        ``percentile(100.0) == max`` exactly, and every other quantile is
        an upper bound within one bucket width (<= 1/HIST_SUBBUCKETS
        relative error) of the sample nearest-rank percentile.
        """
        if self._count == 0:
            return 0.0
        rank = math.ceil(q / 100.0 * self._count)
        rank = min(max(rank, 1), self._count)
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                return min(bucket_bounds(idx)[1], self._max)
        return self._max  # unreachable: counts always sum to _count

    def percentiles(self) -> Dict[str, float]:
        """The stability digest: p50/p99/p999 + exact max/mean/count."""
        out: Dict[str, float] = {
            key: self.percentile(q) for key, q in HIST_QUANTILES}
        out["max"] = self._max if self._count else 0.0
        out["mean"] = self.mean
        out["count"] = float(self._count)
        return out

    # ---------------------------------------------------------------- merging
    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (bucket-count addition)."""
        self._zero += other._zero
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        if other._min < self._min:
            self._min = other._min

    @classmethod
    def merged(cls, hists: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        out = cls()
        for h in hists:
            out.merge(h)
        return out

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, object]:
        """JSON-able copy: counts keyed by *string* bucket index.

        String keys survive a JSON round trip unchanged, which keeps
        cluster reports (shard snapshot -> merge -> dump) byte-stable.
        """
        return {
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "min": self._min if self._count else 0.0,
            "zero": self._zero,
            "buckets": {str(idx): self._buckets[idx]
                        for idx in sorted(self._buckets)},
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "LatencyHistogram":
        out = cls()
        out._count = int(snap.get("count", 0))  # type: ignore[call-overload]
        out._sum = float(snap.get("sum", 0.0))  # type: ignore[arg-type]
        out._max = float(snap.get("max", 0.0))  # type: ignore[arg-type]
        raw_min = float(snap.get("min", 0.0))  # type: ignore[arg-type]
        out._min = raw_min if out._count else math.inf
        out._zero = int(snap.get("zero", 0))  # type: ignore[call-overload]
        raw = snap.get("buckets")
        if isinstance(raw, dict):
            out._buckets = {int(k): int(v) for k, v in raw.items()}
        return out

    def delta_since(self, prev: Mapping[str, object]) -> "LatencyHistogram":
        """Histogram of samples recorded *after* snapshot ``prev``.

        Bucket counts subtract exactly; the window's max/min are not
        recoverable from cumulative snapshots, so they are approximated by
        the highest/lowest occupied delta bucket's bounds (clamped to the
        lifetime max).  Windowed percentile timelines only need the bucket
        counts, which are exact.
        """
        out = LatencyHistogram()
        prev_count = int(prev.get("count", 0))  # type: ignore[call-overload]
        prev_zero = int(prev.get("zero", 0))  # type: ignore[call-overload]
        prev_sum = float(prev.get("sum", 0.0))  # type: ignore[arg-type]
        out._count = self._count - prev_count
        out._zero = self._zero - prev_zero
        out._sum = self._sum - prev_sum
        prev_buckets = prev.get("buckets")
        old: Dict[int, int] = {}
        if isinstance(prev_buckets, dict):
            old = {int(k): int(v) for k, v in prev_buckets.items()}
        for idx in sorted(self._buckets):
            n = self._buckets[idx] - old.get(idx, 0)
            if n > 0:
                out._buckets[idx] = n
        if out._buckets:
            lo_idx = min(out._buckets)
            hi_idx = max(out._buckets)
            out._min = bucket_bounds(lo_idx)[0]
            out._max = min(bucket_bounds(hi_idx)[1], self._max)
        elif out._zero > 0:
            out._min = 0.0
            out._max = 0.0
        return out


def merge_histogram_snapshots(
        snaps: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Merge :meth:`LatencyHistogram.snapshot` dicts (cluster aggregation)."""
    merged = LatencyHistogram()
    for snap in snaps:
        merged.merge(LatencyHistogram.from_snapshot(snap))
    return merged.snapshot()


class LatencyRecorder:
    """Every latency of one operation type, in arrival order.

    ``samples`` is the only state an op writes (hot paths append to it
    directly); ``max`` and ``total`` catch up from a cursor when read.
    """

    __slots__ = ("samples", "_folded", "_max", "_sum")

    def __init__(self) -> None:
        self.samples = array("d")
        self._folded = 0
        self._max = 0.0
        self._sum = 0.0

    def record(self, latency_s: float) -> None:
        self.samples.append(latency_s)

    def window(self, start: int, end: int) -> np.ndarray:
        """``samples[start:end]`` as float64, over a copy: a view of the live
        array would lock it against ``append`` while the view lives."""
        return np.frombuffer(self.samples[start:end], dtype=np.float64)

    def _fold(self) -> None:
        end = len(self.samples)
        if end > self._folded:
            window = self.window(self._folded, end)
            self._sum = left_sum(self._sum, window)
            top = float(np.fmax.reduce(window))  # skips NaN, as ">" does
            if top > self._max:
                self._max = top
            self._folded = end

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def max(self) -> float:
        self._fold()
        return self._max

    @property
    def total(self) -> float:
        self._fold()
        return self._sum

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile (see module docstring)."""
        return percentile(self.samples, q)

    def percentile_nearest_rank(self, q: float) -> float:
        """Nearest-rank percentile -- always a recorded sample value."""
        return percentile_nearest_rank(self.samples, q)

    def p99(self) -> float:
        return self.percentile(99.0)

    def window_summary(self, start_index: int) -> Dict[str, float]:
        """Tail digest over samples recorded at/after ``start_index``.

        Lets one DB serve several back-to-back workload runs (as the paper
        reuses its 1 TB store) with per-run latency reporting.
        """
        window = self.samples[start_index:]
        if not window:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        arr = np.asarray(window, dtype=np.float64)
        return {
            "count": float(len(arr)),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50.0)),
            "p99": float(np.percentile(arr, 99.0)),
            "max": float(arr.max()),
        }
