"""Background job execution (flush and compaction threads).

The paper compares single-threaded LevelDB against multi-threaded RocksDB and
IamDB ("LevelDB does not support parallel background compaction while IamDB
does as RocksDB", §6).  We model ``n`` background threads as up to ``n`` jobs
making *concurrent progress*; each job owes a device-time debt (the reads and
writes of its I/O plan) that the pool drains out of the device's idle past
time, shared between the active jobs by the fair pump described below.

Two properties matter for fidelity:

* **Lazy activation.** A job's structural effect (its ``start_fn``, which
  mutates the tree and returns the debt) runs only when a thread picks the
  job up.  Compaction *demand* is therefore expressed through a ``provider``
  callback consulted whenever a thread goes idle -- exactly how LevelDB's
  single background thread works.  Under write pressure the provider is
  consulted too rarely, levels overflow their thresholds, and the paper's
  "serious data overflows" (§6.2) emerge instead of being scripted.
* **Synchronous waits.** :meth:`BackgroundPool.wait_for` drains the device
  until a given job completes -- the memtable-rotation and L0-stop stalls
  that produce LevelDB's multi-second maximum latencies (§6.2).

Flush jobs are submitted with ``high_priority=True`` and activate before any
queued compaction, mirroring LevelDB/RocksDB flush priority.  Within the
high-priority class order is FIFO: a later memtable must never flush before
an earlier one (recovery correctness depends on flush order matching
sequence order).

Fault injection (see :mod:`repro.faults`) hooks job activation: a faulted
activation attempt re-queues the job with exponential backoff; after
``max_retries`` attempts a compaction *fails* (its ``on_complete`` runs so
the engine can re-pick it later) while a flush is re-queued after a longer
pause -- flushes hold the only copy of the immutable memtable and are never
dropped.  Repeated give-ups raise ``failed_streak``, which the engines'
write gates translate into pacing (graceful degradation, not crash).

The pump drains active-job debt by weighted fair queueing between the
*flush* and *compaction* classes.  Each class accumulates drained device
seconds; the pump offers idle time to jobs in ascending class virtual time
(``drained_s / weight``, flushes weighted heavier), ties broken by
activation order -- so within the flush class the order is still strictly
FIFO.  A burst of compaction debt cannot starve a flush of device idle
(Luo & Carey's fair I/O allocation between flushes and compactions).

The pool is *event-driven*: providers read only structure that jobs and
restores mutate, so once the provider has answered ``None`` the pool does
not ask again until a job's ``start_fn`` or ``on_complete`` ran, the jobs
were abandoned, the provider was swapped, or ``EngineBase.restore_state``
called :meth:`BackgroundPool.wake`.  ``settled`` records that a thread fill
would do nothing (threads full, or empty queue and provider known idle), so
a pump fills only after an event; ``idle`` is its empty-pool case, a pump
that would do nothing.  Every wake and every enqueue clears both, and
callers test ``idle`` instead of calling ``pump``.

The pool also keeps a cumulative retired-debt counter (``bg_drained_s``)
that the engines' token-bucket pacers read to estimate the sustainable
ingest rate (see :mod:`repro.storage.pacing`).

**Compaction offload** (shared-storage clusters): when ``offload_disk``
is set, compaction-class jobs activate on that disk instead of the node's
own and drain their whole debt there (a job keeps the disk it was activated
on) -- the merge runs on a dedicated compaction node against shared storage,
so local device idle stays available for flushes and queries.  Flushes
always stay local (they persist the only copy of the memtable).  With
``offload_disk`` left ``None`` every code path is byte-identical to the
pre-offload pool.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING, Callable, Deque, Iterator, List, Optional

from repro.common.errors import InvariantViolation
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.storage.simdisk import SimDisk
from repro.check.effects.registry import effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.crash import CrashPoints
    from repro.faults.plan import FaultInjector
    from repro.metrics import MetricsRegistry

PENDING = 0
ACTIVE = 1
DONE = 2

#: start_fn applies the job's structural effect and returns its device debt.
StartFn = Callable[[], float]
#: provider() offers the next compaction job when a thread goes idle.
Provider = Callable[[], Optional["BackgroundJob"]]

#: Fair-share weights per job class: flushes get twice the device share of
#: compactions (a stalled flush blocks the foreground write path directly,
#: a lagging compaction only builds future debt).
CLASS_WEIGHTS = {"flush": 2.0, "compaction": 1.0}

#: Largest single drain grant (device seconds) while *both* classes hold
#: active jobs.  Without a quantum the first job in fair order swallows all
#: available idle time in one grant and fairness never gets to arbitrate;
#: with one class active there is nothing to arbitrate and grants stay
#: unchunked (the single-threaded configurations the stability suite runs).
FAIR_QUANTUM_S = 0.002


class BackgroundJob:
    """A unit of background work: structural effect + device-time debt."""

    __slots__ = ("name", "start_fn", "debt_s", "debt_total", "not_before",
                 "state", "on_complete", "job_id", "high_priority", "klass",
                 "retries", "retry_at", "failed", "seq", "disk")

    #: The device the debt drains against: chosen once, at activation.
    disk: SimDisk

    def __init__(self, name: str, start_fn: StartFn,
                 on_complete: Optional[Callable[[], None]] = None) -> None:
        self.name = name
        self.start_fn = start_fn
        self.debt_s = 0.0
        #: Debt at activation (debt_s counts down as the pool drains it).
        self.debt_total = 0.0
        self.not_before = 0.0
        self.state = PENDING
        self.on_complete = on_complete
        #: Deterministic id assigned at submission (0 = never pooled);
        #: keys the tracer's begin/end span pair.
        self.job_id = 0
        #: Flush-class job (set by submit; provider jobs are compactions).
        self.high_priority = False
        #: Fair-share accounting class ("flush" or "compaction"); written
        #: wherever ``high_priority`` is.
        self.klass = "compaction"
        #: Fault-injection bookkeeping: activation attempts so far, earliest
        #: sim-time of the next attempt, and the terminal give-up flag.
        self.retries = 0
        self.retry_at = 0.0
        self.failed = False
        #: Activation order (assigned by the pool); the fair pump's
        #: within-class tie-break, so flush order stays strictly FIFO.
        self.seq = 0

    @property
    def done(self) -> bool:
        return self.state == DONE


class BackgroundPool:
    """Up to ``threads`` concurrently progressing background jobs."""

    def __init__(self, disk: SimDisk, threads: int = 1) -> None:
        if threads < 1:
            raise InvariantViolation("threads must be >= 1")
        self.disk = disk
        self.threads = threads
        self.active: List[BackgroundJob] = []
        self.queue: Deque[BackgroundJob] = deque()
        self.provider: Optional[Provider] = None
        self.completed_jobs = 0
        #: How far past "now" background work may fill the device channel
        #: (one in-flight I/O burst); set by Runtime from the chunk size.
        self.lookahead_s = 0.0
        #: Trace sink (NULL_TRACER = disabled); swapped by Runtime.attach_tracer.
        self.tracer: NullTracer = NULL_TRACER
        #: Structured-stall recorder; wired by Runtime (None in bare pools).
        self.metrics: Optional["MetricsRegistry"] = None
        self._next_job_id = 1
        #: Fault injector (None = clean device); wired by Runtime.attach_faults.
        self.injector: Optional["FaultInjector"] = None
        #: Crash-point scheduler (None = no crash sites armed).
        self.crash_points: Optional["CrashPoints"] = None
        #: Consecutive job give-ups with no successful retirement in between;
        #: engines read this to escalate their write gates.
        self.failed_streak = 0
        #: Total jobs that exhausted their retries (monotonic).
        self.failed_jobs = 0
        #: Cumulative retired background debt in device seconds -- the
        #: pacers' sustainable-rate signal (monotonic, sim-clock units).
        self.bg_drained_s = 0.0
        #: Drained device seconds per fair-share class (monotonic).
        self.class_drained_s = {"flush": 0.0, "compaction": 0.0}
        self._next_seq = 1
        #: Optional dedicated device for compaction-class debt (the
        #: shared-storage "compaction offload" mode); None = all debt
        #: drains on the node's own disk, byte-identical to the
        #: pre-offload pool.
        self.offload_disk: Optional[SimDisk] = None
        #: The provider answered None (or there is none) and no event
        #: that could change its answer has happened since.
        self._provider_idle = False
        #: A fill would do nothing: the threads are full, or the queue is
        #: empty and the provider is known idle.
        self.settled = False
        #: A pump would do nothing: ``settled`` with no active job.
        self.idle = False

    def set_provider(self, provider: Optional[Provider]) -> None:
        """Register the engine's compaction-picking callback."""
        self.provider = provider
        self.wake()

    def wake(self) -> None:
        """Ask the provider again at the next idle thread.  The pool
        notices what its own jobs do; ``EngineBase.restore_state``, the one
        structure change outside a job, calls this."""
        self._provider_idle = False
        self.settled = self.idle = False

    # ----------------------------------------------------------------- submit
    def submit(self, name: str, start_fn: StartFn, *, high_priority: bool = False,
               on_complete: Optional[Callable[[], None]] = None) -> BackgroundJob:
        job = BackgroundJob(name, start_fn, on_complete)
        if self.tracer.enabled:
            self._assign_id(job)
            self.tracer.instant("job", "job-queued", job=job.name, id=job.job_id,
                                high_priority=high_priority)
        self._enqueue(job, high_priority=high_priority)
        self._fill_threads()
        return job

    def _enqueue(self, job: BackgroundJob, *, high_priority: bool,
                 front: bool = False) -> None:
        """Priority insert that stays FIFO *within* each priority class.

        A plain ``appendleft`` for high-priority jobs would run two queued
        flushes LIFO -- a later memtable flushing before an earlier one --
        so high-priority jobs are inserted after any high-priority entries
        already queued, and before the first normal-priority entry.

        ``front=True`` restores a *re-queued* job's place at the head of
        its priority segment: a faulted flush was popped from the front of
        the flush class, so every flush still queued is younger and must
        stay behind it.
        """
        self.settled = self.idle = False
        job.high_priority = high_priority
        job.klass = "flush" if high_priority else "compaction"
        if high_priority:
            idx = 0
            if not front:
                for queued in self.queue:
                    if not queued.high_priority:
                        break
                    idx += 1
            self.queue.insert(idx, job)
        else:
            self.queue.append(job)

    def _assign_id(self, job: BackgroundJob) -> None:
        if job.job_id == 0:
            job.job_id = self._next_job_id
            self._next_job_id += 1

    @property
    def pending_debt_s(self) -> float:
        """Unpaid device time across *active* jobs (queued jobs have no debt yet)."""
        return sum(j.debt_s for j in self.active)

    @property
    def busy(self) -> bool:
        return bool(self.active or self.queue)

    # ------------------------------------------------------------- activation
    @effects("SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def _activate(self, job: BackgroundJob) -> None:
        if self.injector is not None and self.injector.job_attempt_fails(job):
            self._job_fault(job)
            return
        job.state = ACTIVE
        job.seq = self._next_seq
        self._next_seq += 1
        # Compactions offload when a dedicated disk is set; flushes never.
        job.disk = disk = (self.disk if job.high_priority
                           or self.offload_disk is None else self.offload_disk)
        job.not_before = disk.busy_until
        self.wake()  # start_fn mutates engine structure
        job.debt_s = debt = job.start_fn()
        if not 0.0 <= debt < inf:
            raise InvariantViolation(
                f"job {job.name} returned debt {debt!r}, outside [0, inf)")
        job.debt_total = debt
        if self.tracer.enabled:
            # Span opens before a zero-debt job retires, so every begin is
            # balanced by exactly one end even for instant jobs.
            self._assign_id(job)
            self.tracer.begin("job", job.name, job.job_id, debt_s=job.debt_s)
        self.active.append(job)
        if self.crash_points is not None:
            # The structural effect has run but none of the job's I/O debt
            # has drained: a crash here loses the in-flight output.
            self.crash_points.reached(
                "mid-flush" if job.high_priority else "post-compact")
        if job.debt_s <= 0.0:
            self._retire(job)

    def _job_fault(self, job: BackgroundJob) -> None:
        """A faulted activation attempt: back off, give up, or re-queue."""
        if self.injector is None:
            raise InvariantViolation("job fault without an injector")
        opts = self.injector.options
        self.wake()  # a give-up frees the job's levels
        job.retries += 1
        if self.metrics is not None:
            self.metrics.bump("fault:job-fault")
        if self.tracer.enabled:
            self._assign_id(job)
            self.tracer.instant("fault", "job-fault", job=job.name,
                                id=job.job_id, retries=job.retries)
        now = self.disk.clock.now
        if job.retries <= opts.max_retries:
            backoff = min(opts.backoff_base_s * (2.0 ** (job.retries - 1)),
                          opts.backoff_max_s)
            job.retry_at = now + backoff
            self._enqueue(job, high_priority=job.high_priority, front=True)
            return
        # Retries exhausted.
        self.failed_streak += 1
        self.failed_jobs += 1
        self.injector.giveups += 1
        if job.high_priority:
            # Flushes hold the only copy of the immutable memtable: never
            # dropped, re-queued after a longer pause instead.
            job.retries = 0
            job.retry_at = now + opts.giveup_backoff_s
            if self.metrics is not None:
                self.metrics.bump("fault:flush-requeue")
            if self.tracer.enabled:
                self.tracer.instant("fault", "flush-requeue", job=job.name,
                                    id=job.job_id)
            self._enqueue(job, high_priority=True, front=True)
            return
        job.failed = True
        job.state = DONE
        if self.metrics is not None:
            self.metrics.bump("fault:job-giveup")
        if self.tracer.enabled:
            self.tracer.instant("fault", "job-giveup", job=job.name,
                                id=job.job_id)
        if job.on_complete is not None:
            # Lets the engine clear its busy marker and re-pick the
            # compaction through the provider -- failed work re-queues.
            job.on_complete()

    def _eligible(self) -> Iterator[BackgroundJob]:
        """Queued jobs that may activate next, in queue order: every
        compaction, but only the *first* queued flush.  Recovery needs
        memtables on disk in sequence order, so younger flushes wait behind
        the head flush even through its fault backoff."""
        flush_seen = False
        for job in self.queue:
            if not (job.high_priority and flush_seen):
                yield job
            flush_seen = flush_seen or job.high_priority

    def _pop_ready(self) -> Optional[BackgroundJob]:
        """Next eligible queued job whose backoff has expired."""
        if self.injector is None:
            return self.queue.popleft() if self.queue else None
        now = self.disk.clock.now
        for job in self._eligible():
            if job.retry_at <= now:
                self.queue.remove(job)
                return job
        return None

    def _queue_ready(self) -> bool:
        if self.injector is None:
            return bool(self.queue)
        now = self.disk.clock.now
        return any(job.retry_at <= now for job in self._eligible())

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _sleep_until_ready(self) -> Optional[float]:
        """Advance the clock to the earliest *eligible* queued retry; None
        when there is nothing to wait for (no injector or empty queue)."""
        if self.injector is None or not self.queue:
            return None
        now = self.disk.clock.now
        target = min(job.retry_at for job in self._eligible())
        if target <= now:
            return 0.0
        self.disk.clock.advance(target - now)
        return target - now

    def _fill_threads(self) -> None:
        """Activate queued work, then ask the provider, while threads idle;
        then record whether the next fill would do anything."""
        active = self.active
        while len(active) < self.threads and self.queue:
            job = self._pop_ready()
            if job is None:
                break
            self._activate(job)
        if not self._provider_idle:
            provider = self.provider
            while len(active) < self.threads and not self._queue_ready():
                job = provider() if provider is not None else None
                if job is None:
                    self._provider_idle = True
                    break
                self._activate(job)
        # A job in backoff keeps the pool unsettled: the clock makes it ready.
        self.settled = (len(active) >= self.threads
                        or not self.queue and self._provider_idle)
        self.idle = self.settled and not active

    # ------------------------------------------------------------------- pump
    def pump(self) -> None:
        """Drain active-job debt from device idle time up to "now": one
        grant pass per running job.  The pump never moves the clock, so
        another pass runs only if a fill is due (a retire unsettles the
        pool) or a job's disk has room left before its horizon -- after a
        whole fair quantum, or a grant one ulp short."""
        if self.idle:
            return
        active = self.active
        lookahead_s = self.lookahead_s
        while True:
            if not self.settled:
                self._fill_threads()
            if not active:
                return
            progressed = False
            if len(active) > 1:
                contested = len({j.klass for j in active}) > 1
                order = self._fair_order()
            else:  # one job: nothing to arbitrate, no order to compute
                contested = False
                order = active[:]
            for job in order:
                if job.state != ACTIVE:
                    continue
                disk = job.disk
                ask = min(job.debt_s, FAIR_QUANTUM_S) if contested else job.debt_s
                granted = disk.bg_grant(job.not_before, ask, lookahead_s)
                if granted > 0.0:
                    progressed = True
                    job.debt_s -= granted
                    job.not_before = disk.busy_until
                    self._account_drain(job, granted)
                    if job.debt_s <= 1e-12:
                        job.debt_s = 0.0
                        self._retire(job)
            if not progressed:
                return
            if self.settled:
                # bg_grant's own test, on each job's own disk.
                for job in active:
                    disk = job.disk
                    start = disk.busy_until
                    if start < job.not_before:
                        start = job.not_before
                    if start < disk.clock.now + lookahead_s:
                        break
                else:
                    return

    def _fair_order(self) -> List[BackgroundJob]:
        """Active jobs in weighted-fair drain order.

        Ascending class virtual time (drained seconds over class weight) --
        the class that has consumed the least weighted device share drains
        first -- with activation order as the tie-break, which keeps the
        flush class strictly FIFO.
        """
        vtime = {cls: self.class_drained_s[cls] / CLASS_WEIGHTS[cls]
                 for cls in CLASS_WEIGHTS}
        return sorted(self.active, key=lambda j: (vtime[j.klass], j.seq))

    def _account_drain(self, job: BackgroundJob, drained_s: float) -> None:
        """Attribute ``drained_s`` of retired debt to the job's class."""
        self.bg_drained_s += drained_s
        self.class_drained_s[job.klass] += drained_s

    @effects("SPAN_END", "STATE_MUTATE")
    def _retire(self, job: BackgroundJob) -> None:
        if job in self.active:
            self.active.remove(job)
        job.state = DONE
        self.completed_jobs += 1
        self.failed_streak = 0
        self.wake()  # on_complete frees the job's levels
        if self.tracer.enabled:
            # The end mirrors the begin's id; on_complete runs after so any
            # follow-up submissions trace strictly inside causal order.
            self.tracer.end("job", job.name, job.job_id, debt_s=job.debt_total)
        if job.on_complete is not None:
            job.on_complete()

    # ---------------------------------------------------------------- waiting
    def _step(self, prefer: Optional[BackgroundJob] = None) -> Optional[float]:
        """Fill idle threads, then finish one active job -- ``prefer`` if it
        is running, else the head (jobs holding the threads finish before a
        queued one activates) -- or, with none running, sleep to the next
        queued retry.  Elapsed sim time; None = nothing to wait for."""
        if not (self.settled and self.active):  # an empty pool always fills
            self._fill_threads()
        if not self.active:
            return self._sleep_until_ready()
        if prefer is None or prefer.state != ACTIVE:
            prefer = self.active[0]
        return self._drain_one(prefer)

    def wait_for(self, job: BackgroundJob, *,
                 reason: Optional[str] = None) -> float:
        """Stall until ``job`` completes; returns elapsed simulated time.

        When the wait actually blocked (elapsed > 0), the stall is recorded
        as structured data -- reason, duration -- in the attached metrics
        registry, and as a trace instant when tracing is enabled.
        """
        elapsed = 0.0
        guard = 0
        while not job.done:
            guard += 1
            if guard > 1_000_000:
                raise InvariantViolation(f"wait_for({job.name}) did not converge")
            step = self._step(job)
            if step is None:
                raise InvariantViolation(
                    f"job {job.name} pending but no thread busy")
            elapsed += step
        if elapsed > 0.0:
            why = reason if reason is not None else f"wait:{job.name}"
            if self.metrics is not None:
                self.metrics.add_stall(why, elapsed)
            if self.tracer.enabled:
                self.tracer.instant("stall", "stall", reason=why,
                                    duration_s=elapsed)
        return elapsed

    def drain_all(self) -> float:
        """Synchronously finish every pending job (end-of-run barrier)."""
        elapsed = 0.0
        while True:
            step = self._step()
            if step is None:
                if self.queue:
                    raise InvariantViolation("queued jobs but no free thread")
                return elapsed
            elapsed += step

    def step_drain(self) -> float:
        """One :meth:`_step` for a stall loop (0.0 when nothing is running
        or queued)."""
        step = self._step()
        return 0.0 if step is None else step

    # --------------------------------------------------------------- crashing
    @effects("SPAN_END", "STATE_MUTATE")
    def abandon_all(self) -> int:
        """Hard-crash model: drop every in-flight and queued job on the floor.

        Active jobs have already applied their structural effect; the caller
        (``IamDB.crash_and_recover``) rolls that back by restoring the last
        manifest checkpoint.  Synthetic span ends keep the tracer balanced
        for jobs whose begin was already emitted.  Returns the number of
        jobs abandoned.
        """
        n = len(self.active) + len(self.queue)
        for job in self.active:
            job.state = DONE
            job.failed = True
            job.debt_s = 0.0
            if self.tracer.enabled:
                self.tracer.end("job", job.name, job.job_id, aborted=True)
        for job in self.queue:
            job.state = DONE
            job.failed = True
        self.active.clear()
        self.queue.clear()
        self.failed_streak = 0
        self.wake()
        return n

    def _drain_one(self, job: BackgroundJob) -> float:
        self._account_drain(job, job.debt_s)
        elapsed = job.disk.sync_drain(job.debt_s)
        job.debt_s = 0.0
        self._retire(job)
        return elapsed
