"""Property tests for the write-pacing math (repro.storage.pacing).

The clamp contract matters more than the exact values: a write gate that
returns a negative delay runs the clock backwards, zero-on-nonzero admits
writes at full speed exactly when the store is degraded, and NaN poisons
every downstream latency percentile.  Hypothesis sweeps the pathological
domain (huge byte counts near float overflow, subnormal fractions,
cancellation-prone bandwidths); a few pinned cases document the exact
expression and the bucket/estimator mechanics.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.pacing import (
    MAX_GATE_DELAY_S,
    MIN_GATE_DELAY_S,
    MIN_RATE_FRACTION,
    RateEstimator,
    TokenBucketPacer,
    degraded_extra_delay_s,
)
from tests.frozen_kernels import FrozenRateEstimator

# ------------------------------------------------- degraded_extra_delay_s

nbytes_st = st.integers(min_value=-(10 ** 6), max_value=10 ** 400)
bandwidth_st = st.one_of(
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
    st.sampled_from([0.0, -1.0, 1e308, 5e-324]),
)
frac_st = st.one_of(
    st.floats(min_value=1e-12, max_value=2.0, allow_nan=False),
    st.sampled_from([0.0, -0.5, 1.0, 5e-324, 2 ** -1000]),
)


@settings(max_examples=400, deadline=None)
@given(nbytes=nbytes_st, bandwidth=bandwidth_st, frac=frac_st)
def test_delay_is_finite_clamped_and_never_negative(nbytes, bandwidth, frac):
    d = degraded_extra_delay_s(nbytes, bandwidth, frac)
    assert not math.isnan(d)
    assert 0.0 <= d <= MAX_GATE_DELAY_S
    if nbytes <= 0 or frac >= 1.0 or frac <= 0.0 or bandwidth <= 0.0:
        assert d == 0.0  # nothing to pace
    else:
        # Zero-on-nonzero is forbidden: a degraded gate must always bite
        # (a genuinely tiny positive delay is fine; exact zero is not).
        assert d > 0.0


def test_delay_is_the_exact_expression_on_realistic_domain():
    # On realistic inputs the clamps must not perturb a single bit of
    # nbytes/(bw*frac) - nbytes/bw (the write-path golden pins the clock).
    for nbytes, bw, frac in [(1000, 400e6, 0.25), (64, 100e6, 1 / 256),
                             (4096, 1.5e9, 0.5)]:
        assert degraded_extra_delay_s(nbytes, bw, frac) == \
            nbytes / (bw * frac) - nbytes / bw


def test_delay_saturates_on_float_overflow():
    huge = 10 ** 309  # float(huge) overflows
    assert degraded_extra_delay_s(huge, 400e6, 0.25) == MAX_GATE_DELAY_S


# ------------------------------------------------------- TokenBucketPacer

def test_bucket_starts_full_and_burst_is_free():
    p = TokenBucketPacer(1024.0, now=0.0)
    assert p.admit(1024, 0.0, 100.0) == 0.0
    assert p.tokens == 0.0


def test_deficit_delay_is_deficit_over_rate():
    p = TokenBucketPacer(100.0, now=0.0)
    assert p.admit(100, 0.0, 50.0) == 0.0  # drains the burst
    d = p.admit(25, 0.0, 50.0)
    assert d == pytest.approx(0.5)  # 25-byte deficit at 50 B/s
    # The caller's clock advance IS the refill: the bucket stays empty.
    assert p.tokens == 0.0
    assert p.last_now == pytest.approx(0.5)


def test_refill_caps_at_burst():
    p = TokenBucketPacer(100.0, now=0.0)
    p.admit(100, 0.0, 10.0)
    p.refill(1e9, 10.0)  # absurd idle time
    assert p.tokens == 100.0


def test_admit_composes_with_clock_advance():
    # admit -> advance(delay) -> admit must not double-count the delay.
    p = TokenBucketPacer(64.0, now=0.0)
    p.admit(64, 0.0, 100.0)
    d1 = p.admit(10, 0.0, 100.0)
    d2 = p.admit(10, 0.0 + d1, 100.0)
    assert d1 == pytest.approx(0.1)
    assert d2 == pytest.approx(0.1)  # no free refill from our own delay


@settings(max_examples=200, deadline=None)
@given(burst=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
       writes=st.lists(st.integers(min_value=-10, max_value=10 ** 320),
                       max_size=20),
       rate=st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_bucket_delays_always_clamped(burst, writes, rate):
    p = TokenBucketPacer(burst, now=0.0)
    now = 0.0
    for nbytes in writes:
        d = p.admit(nbytes, now, rate)
        assert not math.isnan(d)
        assert 0.0 <= d <= MAX_GATE_DELAY_S
        now += d
        assert 0.0 <= p.tokens <= p.burst_bytes


# --------------------------------------------------------- RateEstimator

def test_estimator_defaults_to_bandwidth_without_data():
    est = RateEstimator(400.0, window_bytes=1000)
    assert est.rate() == 400.0
    est.observe(0.0, 0)
    assert est.rate() == 400.0


def test_estimator_measures_lambda_over_window():
    bw = 100.0
    est = RateEstimator(bw, window_bytes=1000)
    # 0.03 background-seconds per byte over 100 user bytes.
    est.observe(0.0, 0)
    est.observe(3.0, 100)
    lam = 3.0 / 100
    assert est.rate() == pytest.approx(1.0 / (lam + 1.0 / bw))


def test_estimator_clamps_to_floor_and_ceiling():
    bw = 100.0
    est = RateEstimator(bw, window_bytes=1000)
    est.observe(0.0, 0)
    est.observe(1e9, 10)  # catastrophic lambda
    assert est.rate() == bw * MIN_RATE_FRACTION
    est2 = RateEstimator(bw, window_bytes=1000)
    est2.observe(0.0, 0)
    est2.observe(1e-30, 10)  # near-zero lambda: ceiling is the device
    assert est2.rate() == bw


def test_estimator_window_slides():
    est = RateEstimator(100.0, window_bytes=100)
    est.observe(0.0, 0)
    est.observe(10.0, 100)   # heavy old epoch
    est.observe(10.0, 200)   # light new epoch (no extra debt)
    est.observe(10.0, 300)
    # The heavy anchor slid out: lambda over the trailing window is ~0.
    assert est.rate() == 100.0


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
              st.integers(min_value=0, max_value=10 ** 12)),
    max_size=30))
def test_estimator_rate_always_in_clamp_band(samples):
    bw = 400e6
    est = RateEstimator(bw, window_bytes=1 << 20)
    debt = 0.0
    nbytes = 0
    for d_debt, d_bytes in samples:
        debt += d_debt
        nbytes += d_bytes
        est.observe(debt, nbytes)
        assert bw * MIN_RATE_FRACTION <= est.rate() <= bw


# ------------------------------------------- the lazy window vs the eager one

def _live(est):
    """The estimator's anchors, oldest first, as (debt, bytes) pairs."""
    head, tail = est._head, est._tail
    return list(zip(est._debt[head:tail], est._bytes[head:tail]))


#: One step of a program: an observe after (debt, bytes) increments, a
#: stretch of ``n`` such observes with no read between them, or a read.
#: Byte increments cover no progress (0), small steps and jumps of at least
#: the window; stretches are long enough to fill and grow the columns.
_byte_step = st.one_of(st.just(0), st.integers(1, 40),
                       st.integers(0, 2).map(lambda k: ("jump", k)))
_debt_step = st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False),
                       st.sampled_from([1e-9, 0.1, 1e6]))
_step = st.one_of(
    st.tuples(st.just("observe"), _debt_step, _byte_step),
    st.tuples(st.just("stretch"), _debt_step, _byte_step, st.integers(1, 300)),
    st.tuples(st.just("rate")),
)


@settings(max_examples=300, deadline=None)
@given(window=st.integers(1, 2000), program=st.lists(_step, max_size=60))
@example(window=1000, program=[("stretch", 0.5, 1, 5000)])  # grows to 2048
def test_lazy_window_rates_equal_the_eager_window(window, program):
    bw = 400e6
    lazy, eager = RateEstimator(bw, window), FrozenRateEstimator(bw, window)
    debt, nbytes = 0.0, 0

    def observe(d_debt, d_bytes):
        nonlocal debt, nbytes
        if isinstance(d_bytes, tuple):  # a jump of at least the window
            d_bytes = window + d_bytes[1]
        debt += d_debt
        nbytes += d_bytes
        lazy.observe(debt, nbytes)
        eager.observe(debt, nbytes)

    for step in program + [("rate",)]:
        if step[0] == "observe":
            observe(step[1], step[2])
        elif step[0] == "stretch":
            for _ in range(step[3]):
                observe(step[1], step[2])
        else:
            assert lazy.rate().hex() == eager.rate().hex()
            assert _live(lazy) == list(eager._anchors)


def test_a_reset_counter_restarts_the_window():
    # ``MetricsRegistry.reset`` zeroes ``user_bytes``; no store does it
    # mid-run.  A count below the newest anchor's starts a new window from
    # that sample (the eager window measured across the reset instead).
    bw = 100.0
    est = RateEstimator(bw, window_bytes=1000)
    est.observe(0.0, 0)
    est.observe(5.0, 1000)
    est.observe(6.0, 2000)
    est.observe(6.5, 10)  # the counter was reset
    assert _live(est) == [(6.5, 10)] and est.rate() == bw
    est.observe(7.5, 110)
    fresh = RateEstimator(bw, window_bytes=1000)
    fresh.observe(6.5, 10)
    fresh.observe(7.5, 110)
    assert est.rate() == fresh.rate() == 1.0 / (1.0 / 100 + 1.0 / bw)


def test_unread_window_stays_bounded():
    # 10^5 fixed-size observes and no rate() read: samples pile up only
    # until the columns fill, and the columns grow only while the trimmed
    # window fills more than half of them.  So the live samples stay within
    # the window's W/r + 2 plus a slack of 3 (W/r + 2), the columns' room.
    record, window = 1000, 64_000
    bound = window // record + 2
    est = RateEstimator(100.0, window)
    most = 0
    for i in range(1, 100_001):
        est.observe(i * 1e-6, i * record)
        most = max(most, est._tail - est._head)
    assert most <= bound + 3 * bound
    assert 64 < len(est._bytes) <= 4 * bound  # grown from its 64 slots
    est.rate()
    assert est._tail - est._head == window // record + 1 <= bound
