"""Token-bucket write pacing at the observed sustainable compaction rate.

Luo & Carey ("On Performance Stability in LSM-based Storage Systems",
PAPERS.md) show that cliff-edge write admission -- pace at 5% of device
bandwidth inside a slowdown band, stop hard past a trigger -- is what turns
background scheduling jitter into the p99.9 latency cliff.  Their fix, and
this module's, is *processing-rate* throttling: measure how fast the
background machinery actually absorbs user bytes (flush + compaction device
time per byte, over a recent window) and admit foreground writes smoothly at
that rate through a token bucket.  Delays become small and proportional
instead of 19x-overshooting band penalties, and the hard stop decays into a
rarely-hit backstop.

The pieces are pure math over the simulated clock (no engine imports), so
the engines' write gates stay thin and the properties are testable in
isolation:

* :func:`degraded_extra_delay_s` -- the clamped slowdown-delay computation
  of the fault-degradation gate.  On the realistic domain it is exactly
  ``nbytes/(bw*frac) - nbytes/bw``; on pathological inputs (huge ``nbytes``
  overflowing float conversion, catastrophic cancellation) it clamps
  instead of returning negative/zero/NaN delays.
* :class:`TokenBucketPacer` -- the bucket: capacity ``burst_bytes``,
  refilled at a caller-supplied rate on the sim clock; ``admit`` returns the
  delay (seconds) a write of ``nbytes`` must absorb before proceeding.
* :class:`RateEstimator` -- turns the pool's cumulative retired-debt
  counter and the metrics' user-byte counter into the sustainable ingest
  rate ``1 / (lambda + 1/bw)`` where ``lambda`` is background device-seconds
  per user byte over a sliding byte window.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

#: Hard ceiling on any single gate delay (sim seconds).  Realistic delays
#: are micro- to milliseconds; the cap only bounds pathological inputs
#: (e.g. ``nbytes`` near float overflow) so a clamped delay can never run
#: the simulated clock away.
MAX_GATE_DELAY_S = 60.0

#: Positive floor returned when a nonzero input cancels to a non-positive
#: delay in floating point -- "zero-on-nonzero" would let a degraded store
#: admit writes at full speed exactly when it must not.
MIN_GATE_DELAY_S = 1e-12

#: Sustainable-rate clamp floor as a fraction of device write bandwidth;
#: mirrors the fault gate's 1/256 degradation floor so pacing can never
#: choke writes harder than the worst-case degraded gate.
MIN_RATE_FRACTION = 1.0 / 256.0


def degraded_extra_delay_s(nbytes: int, bandwidth: float, frac: float) -> float:
    """Extra seconds to pace ``nbytes`` down to ``frac`` of ``bandwidth``.

    Evaluates ``nbytes/(bw*frac) - nbytes/bw`` exactly (the write-path
    golden pins the bits), then guards the pathological domain:
    float-overflow on huge ``nbytes`` saturates at the delay cap,
    and NaN / negative / cancelled-to-zero results are re-derived via the
    cancellation-free form ``(nbytes/bw) * (1/frac - 1)`` and floored
    strictly above zero.  For ``nbytes <= 0`` or ``frac >= 1`` there is
    nothing to pace and the result is 0.0.
    """
    if nbytes <= 0 or frac >= 1.0 or frac <= 0.0 or bandwidth <= 0.0:
        return 0.0
    try:
        extra = nbytes / (bandwidth * frac) - nbytes / bandwidth
    except OverflowError:
        return MAX_GATE_DELAY_S
    except ZeroDivisionError:
        # bandwidth * frac underflowed to 0.0 (both subnormal-tiny): the
        # paced rate is effectively zero, so saturate at the cap.
        return MAX_GATE_DELAY_S
    if not (extra > 0.0):  # also catches NaN (comparisons are False)
        try:
            extra = (nbytes / bandwidth) * (1.0 / frac - 1.0)
        except OverflowError:
            return MAX_GATE_DELAY_S
    if not (extra > 0.0):
        return MIN_GATE_DELAY_S
    return extra if extra <= MAX_GATE_DELAY_S else MAX_GATE_DELAY_S


class TokenBucketPacer:
    """A byte token bucket refilled at a caller-supplied rate.

    ``admit(nbytes, now, rate)`` refills for the sim time elapsed since the
    last call, spends tokens for the write, and returns the delay needed to
    cover any deficit at ``rate``.  The caller is expected to advance the
    simulated clock by exactly the returned delay; the bucket accounts for
    that advance itself (the deficit is refilled by the delay, leaving the
    bucket empty), so admit -> advance -> admit composes correctly.

    ``tokens`` never exceeds ``burst_bytes``: refilling a full bucket moves
    only ``last_now``, whatever the rate (the write gate relies on it).
    """

    __slots__ = ("burst_bytes", "tokens", "last_now")

    def __init__(self, burst_bytes: float, now: float = 0.0) -> None:
        self.burst_bytes = max(1.0, float(burst_bytes))
        #: Start full: the first burst after idle is free, like RocksDB's
        #: delayed-write controller only engaging once backlog accumulates.
        self.tokens = self.burst_bytes
        self.last_now = now

    def refill(self, now: float, rate: float) -> None:
        """Accrue tokens for the sim time since the last interaction."""
        elapsed = now - self.last_now
        if elapsed > 0.0 and rate > 0.0:
            self.tokens = min(self.burst_bytes, self.tokens + elapsed * rate)
        self.last_now = now

    def admit(self, nbytes: int, now: float, rate: float) -> float:
        """Seconds the caller must delay before writing ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        self.refill(now, rate)
        try:
            need = float(nbytes)
        except OverflowError:
            # An int too large for a float can never fit any bucket; pace
            # it at the delay cap (the backstop gates will do the rest).
            self.tokens = 0.0
            self.last_now = now + MAX_GATE_DELAY_S
            return MAX_GATE_DELAY_S
        if need <= self.tokens:
            self.tokens -= need
            return 0.0
        if not (rate > 0.0):
            return 0.0
        deficit = need - self.tokens
        self.tokens = 0.0
        delay = deficit / rate
        if not (delay > 0.0):  # NaN / underflow on a genuine deficit
            delay = MIN_GATE_DELAY_S
        elif delay > MAX_GATE_DELAY_S:
            delay = MAX_GATE_DELAY_S
        # The caller advances the clock by ``delay``; that advance is the
        # refill that covers the deficit, so the bucket stays empty.
        self.last_now = now + delay
        return delay


class RateEstimator:
    """Sustainable ingest rate from the pool's retired-debt window.

    Samples ``(retired_debt_s, user_bytes)`` pairs (both cumulative
    counters) and estimates ``lambda`` = background device-seconds per user
    byte over the trailing ``window_bytes`` of user writes.  One user byte
    then costs ``1/bw`` seconds of foreground streaming plus ``lambda``
    seconds of background work, so the sustainable rate is
    ``1 / (lambda + 1/bw)`` -- clamped to ``[bw/256, bw]`` (the same floor
    as the fault-degradation gate).
    """

    __slots__ = ("bandwidth", "window_bytes", "_anchors")

    def __init__(self, bandwidth: float, window_bytes: int) -> None:
        if bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")
        self.bandwidth = bandwidth
        self.window_bytes = max(1, int(window_bytes))
        self._anchors: Deque[Tuple[float, int]] = deque()

    def observe(self, retired_debt_s: float, user_bytes: int) -> None:
        """Record the current (cumulative) counters as a window anchor."""
        anchors = self._anchors
        if anchors and anchors[-1][1] == user_bytes:
            # No user progress since the last anchor: keep the newest debt
            # reading without growing the window.
            anchors[-1] = (retired_debt_s, user_bytes)
        else:
            anchors.append((retired_debt_s, user_bytes))
        while len(anchors) > 2 and user_bytes - anchors[1][1] >= self.window_bytes:
            anchors.popleft()

    def rate(self) -> float:
        """Sustainable bytes/second, clamped to ``[bw/256, bw]``."""
        bw = self.bandwidth
        anchors = self._anchors
        if len(anchors) < 2:
            return bw
        d_debt = anchors[-1][0] - anchors[0][0]
        d_bytes = anchors[-1][1] - anchors[0][1]
        if d_bytes <= 0 or d_debt <= 0.0:
            return bw
        lam = d_debt / d_bytes
        rate = 1.0 / (lam + 1.0 / bw)
        lo = bw * MIN_RATE_FRACTION
        if not (rate > lo):  # clamp NaN/negative to the floor too
            return lo
        return rate if rate < bw else bw
