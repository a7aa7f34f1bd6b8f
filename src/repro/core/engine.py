"""Engine interface shared by LSA/IAM and the baseline LSM engines.

An engine owns the on-disk structure.  The DB wrapper (:mod:`repro.db`) owns
the WAL and memtable and hands full memtables over through
:meth:`EngineBase.submit_flush`; everything below that line -- compaction
scheduling, reads, invariants -- is the engine's business.

Scheduling contract: the engine registers itself as the background pool's
*provider*; whenever a background thread goes idle the pool asks
:meth:`EngineBase.pick_background_job` for the next compaction.  Structural
mutation happens when a job activates (see :mod:`repro.storage.background`).
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import InvariantViolation
from repro.common.records import Key, RecordTuple
from repro.storage.background import BackgroundJob
from repro.storage.pacing import (
    RateEstimator,
    TokenBucketPacer,
    degraded_extra_delay_s,
)
from repro.storage.runtime import Runtime
from repro.table.merge import merge_runs
from repro.table.mstable import MSTable
from repro.table.run import Run
from repro.check.effects.registry import effects, observation_only

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.sanitizer import Sanitizer
    from repro.common.options import LsmOptions, TreeOptions

#: Callable returning the live snapshot sequence numbers (for merge GC).
SnapshotProvider = Callable[[], Sequence[int]]

#: Token-bucket burst capacity as a fraction of the memtable; a quarter
#: memtable absorbs ordinary write bursts without engaging the pacer.
PACER_BURST_FRACTION = 0.25

#: Absolute burst cap in bytes.  A large burst lets L0 overshoot well past
#: the pressure point before any delay bites (the structure degrades, reads
#: slow down, windowed throughput swings); a dozen-write allowance is enough
#: to forgive blips while still braking the moment pressure persists.
PACER_BURST_BYTES = 1024.0

#: Sustainable-rate estimation window in memtables of user bytes.
PACER_WINDOW_MEMTABLES = 8


class EngineBase(abc.ABC):
    """Common surface of every storage engine in this repo."""

    name: str = "engine"

    #: Bytes after which the DB rotates the memtable (Ct / write_buffer);
    #: assigned once by each engine's constructor (its options are frozen).
    memtable_capacity: int
    options: "TreeOptions"

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self.snapshots_provider: SnapshotProvider = tuple
        #: Optional runtime sanitizer (attached by the DB wrapper when the
        #: debug layer is enabled; see :mod:`repro.check.sanitizer`).
        self.sanitizer: Optional["Sanitizer"] = None
        # Unset until the engine calls :meth:`_init_pacer` (the burst is
        # sized from :attr:`memtable_capacity`, which needs its options).
        self._pacer: Optional[TokenBucketPacer] = None
        self._rate_estimator: Optional[RateEstimator] = None
        self._l0_options: Optional["LsmOptions"] = None
        #: Levels claimed by picked compaction jobs (see :meth:`_claim_job`).
        self._busy_levels: set = set()
        runtime.pool.set_provider(self.pick_background_job)

    def _init_pacer(self, l0_options: Optional["LsmOptions"] = None) -> None:
        """Build the write gate's token bucket and rate estimator.

        Called by each engine's constructor after its options are set.
        Engines whose flushes pile up in an L0 pass the options holding
        its slowdown/stop triggers and implement :meth:`_l0_pressure`;
        :meth:`write_gate` then paces on L0 pressure and keeps the hard
        L0 stop as a backstop.
        """
        self._l0_options = l0_options
        bandwidth = self.runtime.options.device.write_bandwidth
        capacity = max(1, self.memtable_capacity)
        burst = min(capacity * PACER_BURST_FRACTION, PACER_BURST_BYTES)
        self._pacer = TokenBucketPacer(burst, now=self.runtime.clock.now)
        self._rate_estimator = RateEstimator(
            bandwidth, window_bytes=PACER_WINDOW_MEMTABLES * capacity)

    @observation_only
    def _sanitize(self, event: str) -> None:
        """Run the structural sanitizer after ``event``, when attached."""
        if self.sanitizer is not None:
            self.sanitizer.after_structural_event(self, event)

    def _trace(self, cat: str, name: str, **args: object) -> None:
        """Emit a structural trace instant when tracing is enabled.

        Hot call sites should guard on ``self.runtime.tracer.enabled`` before
        building kwargs; this helper re-checks so cold sites can call it
        unconditionally.
        """
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.instant(cat, name, **args)

    def _crash_point(self, site: str) -> None:
        """Fire the crash-point scheduler at an engine-internal site."""
        cp = self.runtime.crash_points
        if cp is not None:
            cp.reached(site)

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _fault_gate(self, nbytes: int) -> float:
        """Degradation pacing while background jobs keep failing.

        Each consecutive job give-up (``pool.failed_streak``) halves the
        write rate, floored at 1/256 of device bandwidth: under a failing
        device the store slows down instead of crashing or running the
        structure unboundedly far past its thresholds.  Entered only
        while the streak is positive; returns the added latency.
        """
        streak = self.runtime.pool.failed_streak
        if nbytes <= 0:
            return 0.0
        frac = max(2.0 ** -min(streak, 8), 1.0 / 256.0)
        bw = self.runtime.options.device.write_bandwidth
        extra = degraded_extra_delay_s(nbytes, bw, frac)
        if extra <= 0.0:
            return 0.0
        self.runtime.clock.advance(extra)
        self.runtime.metrics.bump("slowdown:fault-degraded")
        self.runtime.metrics.add_gate_delay("fault-degraded", extra)
        self._trace("gate", "fault-degraded", streak=streak, delay_s=extra)
        return extra

    def _l0_pressure(self) -> Tuple[int, int]:
        """(L0 file count, pending compaction debt in bytes) right now.

        The one hook the shared gate reads, asked only of engines that
        passed ``l0_options`` to :meth:`_init_pacer`.  Debt is 0 for
        engines (or styles) that set no soft debt limit.
        """
        raise NotImplementedError

    def _l0_pace(self, opts: "LsmOptions", n0: int,
                 debt: int) -> Tuple[bool, float]:
        """The L0 pace ramp: (pace this write?, position on the ramp).

        Pacing engages once L0 reaches the slowdown trigger or debt
        passes its soft limit -- where the structure demonstrably cannot
        keep up.  (Engaging earlier, at the compaction trigger,
        over-paces: read-heavy phases drain debt through granted idle
        time on their own, and every pacer delay is an accounted gate
        delay.)  At that point the bucket admits at ``bandwidth *
        delayed_write_fraction`` (position 0.0); as L0 climbs toward the
        stop trigger (or debt doubles its soft limit) the position moves
        linearly to 1.0, the estimator's sustainable rate (see
        :meth:`_token_pace`).  There is no single point where admission
        falls off a cliff.
        """
        lo, hi = opts.l0_slowdown_trigger, opts.l0_stop_trigger - 1
        pressure = n0 >= lo
        scale = 0.0
        if pressure:
            scale = min(1.0, (n0 - lo) / (hi - lo)) if hi > lo else 1.0
        soft = opts.pending_compaction_soft_bytes
        if soft and debt > soft:
            pressure = True
            scale = max(scale, min(1.0, (debt - soft) / soft))
        return pressure, scale

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _token_pace(self, nbytes: int, l0_options: Optional["LsmOptions"] = None,
                    n0: int = 0, debt: int = 0) -> float:
        """Token-bucket admission at the observed sustainable ingest rate.

        Writes are paced smoothly at the rate the background machinery
        has recently proven it can absorb
        (:class:`repro.storage.pacing.RateEstimator`), shaped by
        :meth:`_l0_pace` for engines with an L0: their rate runs from
        ``bandwidth * delayed_write_fraction`` down to the sustainable
        one, floored at ``delayed_write_fraction`` of the former so a cold
        estimate can never freeze admission.  Engines without an L0
        pace only while work is queued behind the running jobs (the pool
        cannot keep up) -- deliberately conservative: token-bucket delays
        are accounted as gate delays, so over-engaging the pacer would
        itself show up as instability.  Without pressure the bucket just
        refills.  Returns the added latency (0.0 on the clean path).

        Order: the estimator observes every record (its anchor window
        must see each one), pressure is decided from state the gate
        already holds, and rate, ramp and refill run only under pressure
        or below a full bucket -- refilling a full one moves only its
        timestamp.
        """
        pacer = self._pacer
        estimator = self._rate_estimator
        if pacer is None or estimator is None or nbytes <= 0:
            return 0.0
        runtime = self.runtime
        pool = runtime.pool
        metrics = runtime.metrics
        estimator.observe(pool.bg_drained_s, metrics.user_bytes)
        if l0_options is None:
            pressure, scale = bool(pool.queue), 0.0
        else:
            pressure, scale = self._l0_pace(l0_options, n0, debt)
        now = runtime.clock.now
        if not pressure and pacer.tokens >= pacer.burst_bytes:
            pacer.last_now = now
            return 0.0
        rate = estimator.rate()
        if l0_options is not None:
            frac = l0_options.delayed_write_fraction
            gentle = runtime.options.device.write_bandwidth * frac
            floor = min(max(rate, gentle * frac), gentle)
            rate = gentle + scale * (floor - gentle)
        if not pressure:
            pacer.refill(now, rate)
            return 0.0
        delay = pacer.admit(nbytes, now, rate)
        if delay <= 0.0:
            return 0.0
        # The advance opens idle device time that the next pump() converts
        # into background progress via bg_grant: pacing *is* compaction
        # headroom, not dead waiting.
        runtime.clock.advance(delay)
        metrics.bump("pace:token-bucket")
        metrics.add_gate_delay("pace:token-bucket", delay)
        self._trace("gate", "pace:token-bucket", delay_s=delay, rate=rate)
        return delay

    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def _l0_stop_backstop(self, stop_trigger: int) -> float:
        """Hard stall until compaction brings L0 below ``stop_trigger``."""
        pool = self.runtime.pool
        guard = 0
        stall_s = 0.0
        while self._l0_pressure()[0] >= stop_trigger:
            guard += 1
            if guard > 100_000:
                raise InvariantViolation("L0 stop stall did not converge")
            step = pool.step_drain()
            stall_s += step
            if step == 0.0 and not pool.busy:
                break
        if guard:
            self.runtime.metrics.bump("stall:l0-stop")
            if stall_s > 0.0:
                self.runtime.metrics.add_stall("l0-stop", stall_s)
                if self.runtime.tracer.enabled:
                    self._trace("stall", "stall", reason="l0-stop",
                                duration_s=stall_s)
        return stall_s

    # ---------------------------------------------------- compaction skeleton
    # Every structural job is gather -> merge -> partition -> place.  The
    # first two steps and the table factory are engine-independent and live
    # here; partition, place and pick are what each engine file is about.
    def _gather_merge(self, tables: Iterable[MSTable], part: Optional[Run] = None,
                      *, drop_tombstones: bool = False) -> Tuple[Run, float]:
        """Read ``tables`` for compaction and merge them (with the in-flight
        ``part``, newest, in front); returns (merged run, read debt).

        Debt accumulates in table order and sequences merge in append
        order: both orders are part of the simulation.
        """
        debt = 0.0
        runs: List[Run] = [] if part is None else [part]
        for table in tables:
            debt += table.compaction_read_debt()
            runs += [seq.run for seq in table.sequences]
        merged = merge_runs(runs, drop_tombstones=drop_tombstones,
                            snapshots=self.snapshots_provider())
        return merged, debt

    def _new_table(self) -> MSTable:
        """A fresh, empty table file laid out by this engine's options."""
        opts = self.options
        return MSTable(self.runtime, key_size=opts.key_size,
                       bloom_bits_per_key=opts.bloom_bits_per_key)

    def _claim_job(self, name: str, levels: Tuple[int, ...],
                   start: Callable[[], float]) -> BackgroundJob:
        """A compaction job that keeps ``levels`` busy until it completes."""
        self._busy_levels.update(levels)

        def done() -> None:
            self._busy_levels.difference_update(levels)

        return BackgroundJob(name, start, on_complete=done)

    # ------------------------------------------------------------------ write
    @abc.abstractmethod
    def submit_flush(self, run: Run, nbytes: int) -> BackgroundJob:
        """Schedule the flush of a full (immutable) memtable's sorted run."""

    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def write_gate(self, nbytes: int) -> float:
        """Admit one user write: degrade, pace, and (L0 engines) hard-stop.

        ``nbytes`` is the write's encoded size (pacing is by bytes).
        Returns the simulated latency spent gated (0.0 when unobstructed).
        Every engine takes this one path; those that registered L0
        triggers through :meth:`_init_pacer` are paced on L0 pressure and
        keep the hard L0 stop as a rarely-hit backstop.
        """
        lat = (self._fault_gate(nbytes)
               if self.runtime.pool.failed_streak > 0 else 0.0)
        opts = self._l0_options
        if opts is None:
            return lat + self._token_pace(nbytes)
        n0, debt = self._l0_pressure()
        lat += self._token_pace(nbytes, opts, n0, debt)
        if n0 >= opts.l0_stop_trigger:
            lat += self._l0_stop_backstop(opts.l0_stop_trigger)
        return lat

    # ------------------------------------------------------------- background
    @abc.abstractmethod
    def pick_background_job(self) -> Optional[BackgroundJob]:
        """Offer the next compaction job, or None when nothing is demanded."""

    def quiesce(self) -> float:
        """Finish all background work; returns elapsed simulated time."""
        return self.runtime.pool.drain_all()

    # ------------------------------------------------------------------- read
    @abc.abstractmethod
    def get(self, key: Key, snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        """Newest visible on-disk version of ``key``; (record|None, latency)."""

    @abc.abstractmethod
    def scan_cursors(self, lo_key: Optional[Key],
                     hi_key: Optional[Key]) -> List[Iterable[RecordTuple]]:
        """Lazily-charging sorted streams covering [lo, hi] (inclusive).

        One stream per independently-seeking component (each L0 file, each
        deeper level); the DB merges them with the memtables.
        Iterating a stream charges I/O -- with read-ahead -- as records are
        consumed, so a limit-bounded scan pays only for what it reads.
        Engines whose levels are chains of disjoint tables return
        :mod:`repro.table.scan` stream values, which the scan planner can
        also read without iterating; a plain generator is just as valid and
        is always merged record by record.
        """

    # ------------------------------------------------------------- inspection
    @abc.abstractmethod
    def level_data_bytes(self) -> Dict[int, int]:
        """Live data bytes per level (the paper's D_j)."""

    @observation_only
    @abc.abstractmethod
    def check_invariants(self) -> None:
        """Raise InvariantViolation when the structure is inconsistent."""

    @observation_only
    @abc.abstractmethod
    def describe(self) -> Dict[str, object]:
        """Structure digest for reports and tests."""

    # --------------------------------------------------------------- recovery
    @abc.abstractmethod
    def checkpoint_state(self) -> object:
        """Durable structure snapshot for the manifest.

        Must be an *owned*, pure-data snapshot: no references to live nodes,
        tables or level lists (the manifest stores it verbatim, so aliasing
        would leak post-checkpoint mutations into recovery).
        """

    def restore_state(self, state: object) -> None:
        """Rebuild the structure from a manifest checkpoint.

        ``state`` is what :meth:`checkpoint_state` returned, or None to
        reset the engine to its pristine (empty) structure -- the crash
        path before any checkpoint exists.  Implementations release the
        files of the structure they replace; output files of abandoned
        in-flight jobs are swept separately by the DB's orphan collector.

        A restore changes structure outside a job, so it wakes the pool:
        the next pump asks the compaction picker again.
        """
        self._restore_state(state)
        self._busy_levels = set()  # the jobs that claimed them are abandoned
        self.runtime.pool.wake()

    @abc.abstractmethod
    def _restore_state(self, state: object) -> None:
        """The engine's half of :meth:`restore_state`."""

    @abc.abstractmethod
    def live_file_ids(self) -> set:
        """File ids referenced by the current structure (orphan-GC keep set)."""
