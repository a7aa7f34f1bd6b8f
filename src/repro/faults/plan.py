"""Seeded transient-fault plans and the injector that applies them.

A :class:`FaultPlan` decides, per I/O *attempt*, whether the simulated
device fails that attempt.  Decisions come from three sources, all
deterministic: explicit attempt-index windows, sim-time windows, and a
seeded splitmix64 roll against ``FaultOptions.rate``.  One global attempt
counter is shared by foreground I/O and background job activations, so a
run's fault sequence is a pure function of (options, workload).

The :class:`FaultInjector` wires a plan into one storage stack:

* Foreground I/O (``SimDisk.fg_io`` / ``fg_stream``) retries with
  exponential backoff -- the user write gets slower, never lost.  Past
  ``max_retries`` the backoff plateaus at ``giveup_backoff_s`` (a real
  device driver keeps retrying the WAL write too; §6.2's stalls are the
  observable effect).
* Background activation faults are handled by the pool itself
  (:meth:`BackgroundPool._job_fault`): bounded retries, then job failure
  with engine-level re-queue (compactions) or forced re-queue (flushes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.common.errors import InvariantViolation, TransientIOError
from repro.common.hashing import MASK64, splitmix64
from repro.common.options import ConfigError, FaultOptions
from repro.check.effects.registry import effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.background import BackgroundJob
    from repro.storage.runtime import Runtime
    from repro.storage.simdisk import SimClock

#: Retry attempts per single logical I/O before declaring the plan broken;
#: far above anything a rate < 1 plan can produce (backoff escapes time
#: windows and op windows consume indices, so real plans always terminate).
_RETRY_GUARD = 10_000


class FaultPlan:
    """Deterministic per-attempt fault decisions for one run."""

    __slots__ = ("options", "ops", "_mixed_seed")

    def __init__(self, options: FaultOptions) -> None:
        self.options = options
        #: Global I/O-attempt counter (foreground requests and background
        #: job activation attempts both consume indices).
        self.ops = 0
        self._mixed_seed = splitmix64(options.seed & MASK64)

    def attempt_fails(self, now: float) -> bool:
        """Consume one attempt index; True if that attempt faults."""
        i = self.ops
        self.ops += 1
        o = self.options
        for lo, hi in o.op_windows:
            if lo <= i < hi:
                return True
        for tlo, thi in o.time_windows:
            if tlo <= now < thi:
                return True
        if o.rate > 0.0:
            roll = splitmix64((self._mixed_seed + i) & MASK64)
            return roll < o.rate * 2.0**64
        return False

    def check(self, now: float) -> None:
        """Raise :class:`TransientIOError` when the next attempt faults."""
        if self.attempt_fails(now):
            raise TransientIOError(
                f"injected device fault (attempt index {self.ops - 1})")


class FaultInjector:
    """Applies one :class:`FaultPlan` to one storage stack."""

    def __init__(self, options: FaultOptions, runtime: "Runtime") -> None:
        self.options = options
        self.runtime = runtime
        self.plan = FaultPlan(options)
        # Counters for reporting (metrics carry the event-stream view).
        self.fg_errors = 0
        self.job_faults = 0
        self.giveups = 0

    # ------------------------------------------------------------- foreground
    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def on_foreground_request(self, clock: "SimClock") -> None:
        """Retry loop in front of every foreground device or store request.

        Each faulted attempt advances the clock by the backoff delay; the
        caller's request then proceeds normally, so injected faults surface
        purely as added latency (plus trace/metric events).  Device I/O and
        store requests (throttling, 5xx) share the plan's single attempt
        stream, so a run's fault sequence stays a pure function of
        (options, workload).
        """
        if not self.options.enabled:
            return
        o = self.options
        attempt = 0
        while True:
            try:
                self.plan.check(clock.now)
                return
            except TransientIOError:
                attempt += 1
                if attempt > _RETRY_GUARD:
                    raise InvariantViolation(
                        "fault plan never lets a foreground I/O through "
                        "(rate too close to 1?)") from None
                self.fg_errors += 1
                self.runtime.metrics.bump("fault:fg-error")
                tracer = self.runtime.tracer
                if tracer.enabled:
                    tracer.instant("fault", "fg-retry", attempt=attempt)
                if attempt <= o.max_retries:
                    backoff = min(o.backoff_base_s * (2.0 ** (attempt - 1)),
                                  o.backoff_max_s)
                else:
                    # A real driver keeps retrying the log device; plateau
                    # at the give-up pace instead of failing the user write.
                    backoff = o.giveup_backoff_s
                    self.runtime.metrics.bump("fault:fg-giveup")
                clock.advance(backoff)

    # ------------------------------------------------------------- background
    def job_attempt_fails(self, job: "BackgroundJob") -> bool:
        """Fault decision for one background activation attempt."""
        if not self.options.enabled:
            return False
        failed = self.plan.attempt_fails(self.runtime.clock.now)
        if failed:
            self.job_faults += 1
        return failed

    # -------------------------------------------------------------- reporting
    def snapshot(self) -> Dict[str, object]:
        o = self.options
        return {
            "seed": o.seed,
            "rate": o.rate,
            "op_windows": [list(w) for w in o.op_windows],
            "time_windows": [list(w) for w in o.time_windows],
            "max_retries": o.max_retries,
            "attempts": self.plan.ops,
            "fg_errors": self.fg_errors,
            "job_faults": self.job_faults,
            "giveups": self.giveups,
        }


def parse_fault_spec(spec: str) -> FaultOptions:
    """Parse a CLI ``--faults`` spec into :class:`FaultOptions`.

    Comma-separated ``key=value`` pairs::

        rate=0.01,seed=7,retries=4,ops=100:200,time=0.5:0.75

    ``ops`` and ``time`` may repeat and add half-open fault windows (attempt
    indices / sim-seconds).  Remaining keys: ``backoff`` (base seconds),
    ``backoff_max``, ``giveup``.
    """
    kwargs: Dict[str, object] = {}
    op_windows = []
    time_windows = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad --faults entry {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "retries":
                kwargs["max_retries"] = int(value)
            elif key == "backoff":
                kwargs["backoff_base_s"] = float(value)
            elif key == "backoff_max":
                kwargs["backoff_max_s"] = float(value)
            elif key == "giveup":
                kwargs["giveup_backoff_s"] = float(value)
            elif key == "ops":
                lo, _, hi = value.partition(":")
                op_windows.append((int(lo), int(hi)))
            elif key == "time":
                lo, _, hi = value.partition(":")
                time_windows.append((float(lo), float(hi)))
            else:
                raise ConfigError(f"unknown --faults key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad --faults value {part!r}: {exc}") from None
    if op_windows:
        kwargs["op_windows"] = tuple(op_windows)
    if time_windows:
        kwargs["time_windows"] = tuple(time_windows)
    return FaultOptions(**kwargs)  # type: ignore[arg-type]
