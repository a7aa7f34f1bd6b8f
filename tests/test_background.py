"""Background pool: activation order, provider, pumping, stalls."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.options import DeviceProfile
from repro.storage.background import BackgroundJob, BackgroundPool
from repro.storage.simdisk import SimDisk

PROFILE = DeviceProfile("test", 0.0, 0.0, 1000.0, 1000.0)


def make_pool(threads=1):
    disk = SimDisk(PROFILE)
    return disk, BackgroundPool(disk, threads)


def test_submit_activates_when_thread_free():
    disk, pool = make_pool()
    ran = []
    job = pool.submit("a", lambda: ran.append("a") or 1.0)
    assert ran == ["a"]          # structural effect at activation
    assert not job.done          # debt unpaid
    assert pool.pending_debt_s == pytest.approx(1.0)


def test_zero_debt_job_completes_immediately():
    disk, pool = make_pool()
    done = []
    job = pool.submit("move", lambda: 0.0, on_complete=lambda: done.append(1))
    assert job.done
    assert done == [1]


def test_second_job_queues_until_first_retires():
    disk, pool = make_pool(threads=1)
    ran = []
    pool.submit("a", lambda: ran.append("a") or 1.0)
    pool.submit("b", lambda: ran.append("b") or 1.0)
    assert ran == ["a"]          # b waits for the single thread
    disk.clock.now = 10.0
    pool.pump()                  # a's debt paid from idle time, b activates
    assert ran == ["a", "b"]


def test_high_priority_jumps_queue():
    disk, pool = make_pool(threads=1)
    ran = []
    pool.submit("a", lambda: ran.append("a") or 5.0)
    pool.submit("b", lambda: ran.append("b") or 1.0)
    pool.submit("flush", lambda: ran.append("flush") or 1.0, high_priority=True)
    disk.clock.now = 100.0
    pool.pump()
    assert ran == ["a", "flush", "b"]


def test_multiple_threads_progress_concurrently():
    disk, pool = make_pool(threads=2)
    pool.submit("a", lambda: 4.0)
    pool.submit("b", lambda: 4.0)
    assert len(pool.active) == 2
    disk.clock.now = 5.0
    pool.pump()
    # Only 5 seconds of device time exist; split across both jobs.
    total_left = pool.pending_debt_s
    assert total_left == pytest.approx(8.0 - 5.0)


def test_provider_consulted_when_idle():
    disk, pool = make_pool(threads=1)
    offered = []

    def provider():
        if len(offered) < 2:
            offered.append(1)
            return BackgroundJob(f"p{len(offered)}", lambda: 1.0)
        return None

    pool.set_provider(provider)
    disk.clock.now = 10.0
    pool.pump()
    assert len(offered) == 2
    assert pool.completed_jobs == 2


def test_provider_not_consulted_while_queue_nonempty():
    disk, pool = make_pool(threads=1)
    calls = []
    pool.set_provider(lambda: calls.append(1) or None)
    pool.submit("a", lambda: 1.0)
    pool.submit("b", lambda: 1.0)
    # queue non-empty -> provider skipped during fill
    n_before = len(calls)
    disk.clock.now = 0.0
    pool.pump()
    assert len(calls) == n_before


def test_wait_for_active_job_drains_synchronously():
    disk, pool = make_pool(threads=1)
    job = pool.submit("a", lambda: 3.0)
    elapsed = pool.wait_for(job)
    assert job.done
    assert elapsed == pytest.approx(3.0)
    assert disk.clock.now == pytest.approx(3.0)


def test_wait_for_queued_job_drains_predecessors():
    disk, pool = make_pool(threads=1)
    pool.submit("a", lambda: 2.0)
    job_b = pool.submit("b", lambda: 1.0)
    elapsed = pool.wait_for(job_b)
    assert elapsed == pytest.approx(3.0)
    assert pool.completed_jobs == 2


def test_wait_for_done_job_is_free():
    disk, pool = make_pool()
    job = pool.submit("a", lambda: 0.0)
    assert pool.wait_for(job) == 0.0


def test_drain_all_finishes_everything():
    disk, pool = make_pool(threads=2)
    for i in range(5):
        pool.submit(f"j{i}", lambda: 1.0)
    pool.drain_all()
    assert not pool.busy
    assert pool.completed_jobs == 5
    assert disk.clock.now == pytest.approx(5.0)


def test_step_drain_one_at_a_time():
    disk, pool = make_pool(threads=1)
    pool.submit("a", lambda: 1.0)
    pool.submit("b", lambda: 2.0)
    assert pool.step_drain() == pytest.approx(1.0)
    assert pool.step_drain() == pytest.approx(2.0)
    assert pool.step_drain() == 0.0


def test_negative_debt_rejected():
    disk, pool = make_pool()
    with pytest.raises(InvariantViolation):
        pool.submit("bad", lambda: -1.0)


@pytest.mark.parametrize("debt", [float("nan"), float("inf")])
def test_non_finite_debt_rejected(debt):
    # A NaN debt used to pass the ``< 0`` test and leave the clock at NaN
    # once the pool drained it.
    disk, pool = make_pool()
    with pytest.raises(InvariantViolation, match="probe"):
        pool.submit("probe", lambda: debt)
    assert disk.clock.now == 0.0 and disk.busy_until == 0.0


def test_threads_validation():
    disk = SimDisk(PROFILE)
    with pytest.raises(InvariantViolation):
        BackgroundPool(disk, 0)


def test_pump_respects_lookahead():
    disk, pool = make_pool(threads=1)
    pool.lookahead_s = 0.25
    pool.submit("a", lambda: 10.0)
    # now == 0: only the lookahead window is grantable
    pool.pump()
    assert pool.pending_debt_s == pytest.approx(10.0 - 0.25)
    assert disk.busy_until == pytest.approx(0.25)


def test_high_priority_fifo_within_class():
    # Regression: appendleft-style insertion ran queued flushes LIFO -- a
    # later memtable flushing before an earlier one.  High-priority jobs
    # must stay FIFO among themselves (ahead of normal jobs).
    disk, pool = make_pool(threads=1)
    ran = []
    pool.submit("long", lambda: ran.append("long") or 50.0)
    pool.submit("compact", lambda: ran.append("compact") or 1.0)
    pool.submit("flush1", lambda: ran.append("flush1") or 1.0, high_priority=True)
    pool.submit("flush2", lambda: ran.append("flush2") or 1.0, high_priority=True)
    disk.clock.now = 1000.0
    pool.pump()
    assert ran == ["long", "flush1", "flush2", "compact"]


def test_high_priority_fifo_under_drain():
    disk, pool = make_pool(threads=1)
    ran = []
    blocker = pool.submit("blocker", lambda: 10.0)
    for n in ("f1", "f2", "f3"):
        pool.submit(n, lambda n=n: ran.append(n) or 0.0, high_priority=True)
    pool.wait_for(blocker)
    pool.drain_all()
    assert ran == ["f1", "f2", "f3"]


def test_abandon_all_clears_pool():
    disk, pool = make_pool(threads=1)
    a = pool.submit("a", lambda: 5.0)
    b = pool.submit("b", lambda: 5.0)
    n = pool.abandon_all()
    assert n == 2
    assert a.done and a.failed and b.done and b.failed
    assert not pool.active and not pool.queue
    assert pool.pending_debt_s == 0.0
