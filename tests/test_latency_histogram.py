"""Log-linear latency histograms: percentile semantics, merge identity.

Pins the two percentile conventions of ``repro.metrics.latency`` (linear
interpolation vs nearest rank), the histogram's bucket geometry, and the
property that makes cluster tails honest: a merged histogram's percentiles
are *identical* to the percentiles of the histogram built from the
concatenated sample stream, for any sharding of the stream.
"""

import copy
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import InvariantViolation
from repro.metrics import (
    HIST_SUBBUCKETS,
    LatencyHistogram,
    MetricsRegistry,
    merge_histogram_snapshots,
    merge_snapshots,
    percentile,
    percentile_nearest_rank,
)
from repro.metrics.amplification import HIST_OP_CLASSES
from repro.metrics.latency import bucket_bounds, bucket_index

#: Worst-case ratio of a bucket's upper bound to its lower bound (bottom of
#: an octave): (0.5 + 1/(2*S)) / 0.5.
_BUCKET_RATIO = 1.0 + 1.0 / HIST_SUBBUCKETS


# ------------------------------------------------------ percentile semantics
def test_percentile_conventions_differ_and_are_documented():
    samples = [1.0, 2.0, 3.0, 4.0]
    # Linear interpolation may return a value that never occurred...
    assert percentile(samples, 50.0) == pytest.approx(2.5)
    # ...nearest rank is always a real sample.
    assert percentile_nearest_rank(samples, 50.0) == 2.0
    assert percentile_nearest_rank(samples, 50.1) == 3.0
    for q in (0.0, 50.0, 99.0, 100.0):
        assert percentile_nearest_rank(samples, q) in samples


def test_percentile_empty_returns_zero_never_raises():
    assert percentile([], 99.0) == 0.0
    assert percentile_nearest_rank([], 99.0) == 0.0
    h = LatencyHistogram()
    assert h.percentile(99.0) == 0.0
    assert h.percentiles() == {
        "p50": 0.0, "p99": 0.0, "p999": 0.0,
        "max": 0.0, "mean": 0.0, "count": 0.0}
    assert h.min == 0.0 and h.max == 0.0


def test_nearest_rank_extremes():
    samples = [5.0, 1.0, 3.0]
    assert percentile_nearest_rank(samples, 0.0) == 1.0    # rank clamps to 1
    assert percentile_nearest_rank(samples, 100.0) == 5.0  # rank n


# -------------------------------------------------------------------- buckets
@given(st.floats(min_value=1e-12, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_bucket_index_bounds_roundtrip(value):
    idx = bucket_index(value)
    low, high = bucket_bounds(idx)
    assert low <= value <= high
    # Bucket width bounds the relative resolution of every percentile.
    assert high / low <= _BUCKET_RATIO + 1e-12


def test_bucket_indices_are_monotone_in_value():
    values = sorted(random.Random(3).uniform(1e-9, 10.0) for _ in range(200))
    indices = [bucket_index(v) for v in values]
    assert indices == sorted(indices)


def test_zero_latencies_get_their_own_bucket():
    h = LatencyHistogram()
    for _ in range(99):
        h.record(0.0)
    h.record(1.0)
    assert h.count == 100
    assert h.percentile(50.0) == 0.0   # the zero bucket holds the median
    assert h.percentile(99.9) == 1.0   # clamped to the exact max
    assert h.min == 0.0 and h.max == 1.0


def test_histogram_percentile_tracks_nearest_rank_within_a_bucket():
    rng = random.Random(11)
    samples = [rng.lognormvariate(-9.0, 1.5) for _ in range(5000)]
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    for q in (50.0, 90.0, 99.0, 99.9):
        exact = percentile_nearest_rank(samples, q)
        approx = h.percentile(q)
        # Upper bound within one bucket's width, clamped to the true max.
        assert exact <= approx <= min(exact * _BUCKET_RATIO, max(samples))
    assert h.percentile(100.0) == max(samples)
    assert h.max == max(samples)
    assert h.total == pytest.approx(sum(samples))


# ---------------------------------------------------------------------- merge
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=300),
       st.integers(min_value=1, max_value=8))
def test_merged_percentiles_equal_concatenated_stream(latencies, n_shards):
    """The merge identity, over arbitrary sharding of the sample stream."""
    whole = LatencyHistogram()
    for v in latencies:
        whole.record(v)
    shards = [LatencyHistogram() for _ in range(n_shards)]
    for i, v in enumerate(latencies):
        shards[i % n_shards].record(v)
    merged = LatencyHistogram.merged(shards)
    assert merged.count == whole.count
    assert merged.max == whole.max
    assert merged.min == whole.min
    for q in (0.0, 50.0, 90.0, 99.0, 99.9, 100.0):
        assert merged.percentile(q) == whole.percentile(q)
    # Bucket counts (the mergeable state) are exactly equal; only the float
    # sum is order-sensitive (non-associative addition).
    ws, ms = whole.snapshot(), merged.snapshot()
    assert ms["buckets"] == ws["buckets"]
    assert ms["zero"] == ws["zero"]
    assert ms["sum"] == pytest.approx(ws["sum"], rel=1e-12, abs=1e-15)


def test_merge_histogram_snapshots_roundtrips_through_json_keys():
    import json

    a, b = LatencyHistogram(), LatencyHistogram()
    for v in (0.001, 0.002, 0.0):
        a.record(v)
    for v in (0.004, 0.008):
        b.record(v)
    # Snapshot keys are strings, so a JSON round trip is the identity.
    snaps = [json.loads(json.dumps(h.snapshot())) for h in (a, b)]
    merged = merge_histogram_snapshots(snaps)
    direct = LatencyHistogram.merged([a, b])
    assert merged == direct.snapshot()


def test_delta_since_equals_tail_histogram():
    rng = random.Random(5)
    head = [rng.uniform(0.0, 0.01) for _ in range(300)]
    tail = [rng.uniform(0.0, 0.01) for _ in range(200)]
    h = LatencyHistogram()
    for v in head:
        h.record(v)
    snap = h.snapshot()
    for v in tail:
        h.record(v)
    delta = h.delta_since(snap)
    fresh = LatencyHistogram()
    for v in tail:
        fresh.record(v)
    assert delta.count == fresh.count
    assert delta.snapshot()["buckets"] == fresh.snapshot()["buckets"]
    for q in (50.0, 99.0, 99.9):
        # Window max is approximated by the top occupied bucket's bound, so
        # quantiles match the fresh histogram to within that clamp.
        assert delta.percentile(q) == pytest.approx(fresh.percentile(q),
                                                    rel=1.0 / HIST_SUBBUCKETS)


# -------------------------------------------------- registry-level snapshots
def test_registry_merge_snapshots_carries_hist_and_gate_delays():
    regs = [MetricsRegistry() for _ in range(3)]
    all_samples = []
    rng = random.Random(9)
    for i, m in enumerate(regs):
        m.enable_histograms()
        for _ in range(50):
            v = rng.uniform(0.0, 0.005)
            m.record_latency("read", v)
            all_samples.append(v)
        m.add_gate_delay("slowdown:l0", 0.001 * (i + 1))
    merged = merge_snapshots([m.snapshot() for m in regs])

    hist = LatencyHistogram.from_snapshot(merged["latency_hist"]["get"])
    whole = LatencyHistogram()
    for v in all_samples:
        whole.record(v)
    assert hist.count == 150
    for q in (50.0, 99.0, 99.9):
        assert hist.percentile(q) == whole.percentile(q)

    count, total, worst = merged["gate_delays"]["slowdown:l0"]
    assert count == 3
    assert total == pytest.approx(0.006)
    assert worst == pytest.approx(0.003)
    assert merged["total_gate_delay_s"] == pytest.approx(0.006)


def test_registry_observe_disabled_is_a_noop():
    m = MetricsRegistry()
    m.record_latency("read", 0.001)   # histograms not enabled: no view
    assert m.op_hist == {}
    snap = m.snapshot()
    assert "latency_hist" not in snap
    m.enable_histograms()             # starts after the sample above
    assert m.op_hist == {}
    m.record_latency("read", 0.001)
    assert m.op_hist["get"].count == 1
    assert "latency_hist" in m.snapshot()


# ------------------------------------ the folded view vs the online reference
#: Bucket-geometry edges: zero, subnormals, the smallest normal, exact
#: powers of two, ``m = 1 - ulp`` just below an octave, and the "<= 0"
#: side (a negative and -inf land in the zero bucket).
_EDGES = [0.0, 5e-324, 2.5e-310, sys.float_info.min, 0.5, 1.0, 2.0 ** -30,
          math.nextafter(1.0, 0.0), math.nextafter(2.0 ** -10, 0.0),
          math.nextafter(0.5, 1.0), 1e-4, -1e-6, -math.inf]

_sample = st.one_of(st.sampled_from(_EDGES),
                    st.floats(min_value=0.0, max_value=1.0))
_keys = st.sampled_from(sorted(HIST_OP_CLASSES))
_step = st.one_of(
    st.tuples(st.just("record"), _keys, _sample),
    # A run of seeded lognormal samples: long windows of values whose sums
    # round, where any re-associated sum (np.sum is 8-way) changes bits.
    st.tuples(st.just("burst"), _keys, st.integers(0, 2 ** 16),
              st.integers(1, 64)),
    st.tuples(st.just("enable")), st.tuples(st.just("read")),
    st.tuples(st.just("reset")), st.tuples(st.just("clone")))


class _Online:
    """The two collectors every op used to feed, one sample at a time: a
    running count / ``+=`` sum / max per recorder key, and, once enabled,
    :meth:`LatencyHistogram.record` per op class."""

    def __init__(self):
        self.enabled = False
        self.totals = {}
        self.hists = {}

    def record(self, key, v):
        count, total, top = self.totals.get(key, (0, 0.0, 0.0))
        self.totals[key] = (count + 1, total + v, v if v > top else top)
        if self.enabled:
            op = HIST_OP_CLASSES[key]
            self.hists.setdefault(op, LatencyHistogram()).record(v)

    def reset(self):
        self.totals.clear()
        self.hists.clear()


def _assert_same(m, ref):
    want = {op: ref.hists[op].snapshot() for op in sorted(ref.hists)}
    assert m.hist_snapshots() == want
    for op, snap in want.items():  # "==" would let -0.0 pass for 0.0
        assert m.op_hist[op].total.hex() == snap["sum"].hex()
    assert {k: r.count for k, r in m.latency.items() if r.count} == {
        k: t[0] for k, t in ref.totals.items()}
    for key, (count, total, top) in ref.totals.items():
        rec = m.latency[key]
        assert rec.total.hex() == total.hex()
        assert rec.max.hex() == top.hex()
        assert rec.mean.hex() == (total / count).hex()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_step, max_size=160))
def test_folded_view_equals_online_reference(steps):
    """Whatever the interleaving of records, reads (the sampler's cadence),
    a mid-stream enable, resets and deep copies, the folded view is the
    online collectors' state: snapshot dicts, ``sum`` bits, and the
    recorders' ``total`` / ``max`` / ``mean``."""
    pairs = [(MetricsRegistry(), _Online())]
    for i, step in enumerate(steps):
        m, ref = pairs[i % len(pairs)]
        if step[0] == "record":
            m.record_latency(step[1], step[2])
            ref.record(step[1], step[2])
        elif step[0] == "burst":
            rng = random.Random(step[2])
            for _ in range(step[3]):
                v = rng.lognormvariate(-9.0, 2.0)
                m.record_latency(step[1], v)
                ref.record(step[1], v)
        elif step[0] == "enable":
            m.enable_histograms()
            ref.enabled = True
        elif step[0] == "read":
            _assert_same(m, ref)
        elif step[0] == "reset":
            m.reset()
            ref.reset()
        elif len(pairs) < 3:
            pairs.append((copy.deepcopy(m), copy.deepcopy(ref)))
    for m, ref in pairs:  # each copy diverged on its own records
        _assert_same(m, ref)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_sample_is_a_classified_error(bad):
    m = MetricsRegistry()
    m.enable_histograms()
    m.record_latency("read", 0.001)
    m.record_latency("read", bad)
    with pytest.raises(InvariantViolation, match=r"get latency sample (inf|nan)"):
        m.hist_percentiles()
    with pytest.raises(InvariantViolation, match="not finite"):
        LatencyHistogram().record(bad)


def test_minus_infinity_is_a_zero_bucket_sample():
    m = MetricsRegistry()
    m.enable_histograms()
    m.record_latency("scan", -math.inf)
    m.record_latency("scan", 0.002)
    snap = m.hist_snapshots()["scan"]
    assert snap["zero"] == 1 and snap["count"] == 2
    assert m.hist_percentiles()["scan"]["p50"] == 0.0
