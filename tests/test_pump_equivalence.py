"""The pump drains once per event, bit for bit as the loop it replaced did:
the live pool and ``FrozenPumpPool`` (``tests/frozen_kernels.py``), driven
through the same submissions, clock moves, foreground I/O, faults and waits,
agree on horizons, job debts, start bounds and states, drained-time
counters, retire order and provider calls."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.common.options import DeviceProfile, FaultOptions
from repro.storage.background import BackgroundJob, BackgroundPool
from repro.storage.simdisk import SimClock, SimDisk
from tests.frozen_kernels import FrozenPumpPool

PROFILE = DeviceProfile("t", 0.0, 0.0, 1000.0, 1000.0)


def _faults(fail_counts, options):
    """Injector stub: a job fails its first ``fail_counts[name]`` attempts."""
    left = dict(fail_counts)

    def job_attempt_fails(job):
        left[job.name] = left.get(job.name, 0) - 1
        return left[job.name] >= 0
    return SimpleNamespace(options=options, giveups=0,
                           job_attempt_fails=job_attempt_fails)


class _World:
    """One pool with its disks, a finite provider and a retire log."""

    def __init__(self, pool_cls, threads, lookahead, offload, faults, offers):
        clock = SimClock()
        self.pool = pool = pool_cls(SimDisk(PROFILE, clock), threads)
        pool.lookahead_s = lookahead
        if offload:
            pool.offload_disk = SimDisk(PROFILE, clock)
        self.disks = [d for d in (pool.disk, pool.offload_disk) if d]
        if faults is not None:
            pool.injector = _faults(*faults)
        self.jobs, self.retired, self.asked = [], [], 0
        self.offers = list(offers)
        pool.set_provider(self._provide)

    def _on_complete(self, name, then):
        def on_complete():
            self.retired.append(name)
            if then is not None:  # a submission from inside a pass
                self.submit(f"{name}+", False, then, None)
        return on_complete

    def _provide(self):
        self.asked += 1
        if not self.offers:
            return None
        name = f"p{len(self.offers)}"
        debt = self.offers.pop()
        job = BackgroundJob(name, lambda: debt, self._on_complete(name, None))
        self.jobs.append(job)
        return job

    def submit(self, name, high_priority, debt, then):
        self.jobs.append(self.pool.submit(
            name, lambda: debt, high_priority=high_priority,
            on_complete=self._on_complete(name, then)))

    def snapshot(self):
        pool = self.pool
        return ([d.busy_until.hex() for d in self.disks],
                pool.disk.clock.now.hex(), pool.bg_drained_s.hex(),
                [(j.name, j.debt_s.hex(), j.not_before.hex(), j.state)
                 for j in self.jobs],
                sorted((k, v.hex()) for k, v in pool.class_drained_s.items()),
                [j.name for j in pool.active], [j.name for j in pool.queue],
                list(self.retired), self.asked, pool.failed_jobs)


DEBTS = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))
#: (kind, flag, debt, chained debt, seconds): a submission (``flag``: a
#: flush) whose retire may submit again; a tick (advance, then pump) or a
#: pump at the same clock; foreground I/O (``flag``: on the offload disk).
ACTIONS = st.lists(st.tuples(
    st.sampled_from(["submit", "tick", "tick", "tick", "pump", "fg", "step"]),
    st.booleans(), DEBTS, st.one_of(st.none(), DEBTS), st.floats(0.0, 0.02),
), min_size=1, max_size=60)


@st.composite
def worlds(draw):
    faults = None
    if draw(st.booleans()):
        base = draw(st.floats(1e-5, 0.004))
        faults = ({f"j{i}": draw(st.integers(0, 3)) for i in range(40)},
                  FaultOptions(max_retries=draw(st.integers(1, 2)),
                               backoff_base_s=base, backoff_max_s=4 * base,
                               giveup_backoff_s=draw(st.floats(1e-4, 0.01))))
    return dict(threads=draw(st.integers(1, 4)),
                lookahead=draw(st.sampled_from([0.0, 0.001, 0.0043])),
                offload=draw(st.booleans()), faults=faults,
                offers=draw(st.lists(DEBTS, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(worlds(), ACTIONS)
def test_live_pump_equals_the_frozen_drain_loop(world, actions):
    live = _World(BackgroundPool, **world)
    frozen = _World(FrozenPumpPool, **world)
    for n, (kind, flag, debt, then, seconds) in enumerate(actions):
        for w in (live, frozen):
            if kind == "submit":
                w.submit(f"j{n}", flag, debt, then)
            elif kind == "fg":
                w.disks[flag % len(w.disks)].fg(seconds / 2)
            elif kind == "step":
                w.pool.step_drain()
            else:
                w.pool.disk.clock.advance(seconds if kind == "tick" else 0.0)
                w.pool.pump()
                after = w.snapshot()
                w.pool.pump()  # the same clock: nothing left to do
                assert w.snapshot() == after
        assert live.snapshot() == frozen.snapshot(), (n, kind)
    live.pool.drain_all()
    frozen.pool.drain_all()
    assert live.snapshot() == frozen.snapshot()


def _side_by_side(threads, offload, drive):
    snaps = []
    for cls in (BackgroundPool, FrozenPumpPool):
        w = _World(cls, threads, 0.0, offload, None, [])
        drive(w)
        snaps.append(w.snapshot())
    assert snaps[0] == snaps[1]


def test_room_is_tested_on_each_jobs_own_disk():
    # Contested grants on two disks: the local flush is cut at the horizon
    # in the first pass, while the offloaded compaction takes one whole
    # quantum per pass until its own disk reaches the horizon.
    def drive(w):
        w.submit("flush", True, 1.0, None)
        w.submit("compaction", False, 1.0, None)
        w.pool.disk.fg(0.099)  # the local channel is busy almost to "now"
        w.pool.disk.clock.advance(0.001)
        w.pool.pump()
        assert w.pool.offload_disk.busy_until == w.pool.disk.clock.now
    _side_by_side(2, True, drive)


def test_the_one_ulp_remainder_is_still_granted():
    # start < horizon/2: start + (horizon - start) lands one ulp short of
    # the horizon, and the earlier loop's next pass granted that ulp.
    start, horizon = 0.16088243287220508, 0.44594180686074664
    assert start + (horizon - start) < horizon

    def drive(w):
        w.pool.disk.busy_until = start
        w.submit("j", False, 1.0, None)
        w.pool.disk.clock.now = horizon
        w.pool.pump()
        assert w.pool.disk.busy_until == horizon
    _side_by_side(1, False, drive)
