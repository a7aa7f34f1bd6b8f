"""Fair background scheduling: per-class accounting, FIFO, no starvation.

The background pump's contract:

* the pump attributes every drained device-second to its job's class
  (``flush`` vs ``compaction``) and to the cumulative ``bg_drained_s``
  counter the pacers read;
* weighted fair queueing offers idle time to the class with the least
  weighted consumption -- a burst of compaction debt cannot starve a
  flush -- while the *flush* class itself stays strictly FIFO, even when
  fault injection re-queues a flush mid-stream.
"""

import random

import pytest

from repro.common.options import DeviceProfile, FaultOptions
from repro.storage.background import CLASS_WEIGHTS, BackgroundPool
from repro.storage.simdisk import SimDisk

PROFILE = DeviceProfile("test", 0.0, 0.0, 1000.0, 1000.0)


def make_pool(threads=1):
    disk = SimDisk(PROFILE)
    return disk, BackgroundPool(disk, threads)


# ------------------------------------------------------- drain accounting

def test_pump_accounts_drained_seconds_per_class():
    disk, pool = make_pool(threads=2)
    pool.submit("compact", lambda: 3.0)
    pool.submit("flush", lambda: 2.0, high_priority=True)
    disk.clock.now = 100.0
    pool.pump()
    assert pool.class_drained_s["compaction"] == pytest.approx(3.0)
    assert pool.class_drained_s["flush"] == pytest.approx(2.0)
    assert pool.bg_drained_s == pytest.approx(5.0)


def test_sync_drains_account_too():
    disk, pool = make_pool()
    job = pool.submit("flush", lambda: 1.5, high_priority=True)
    pool.wait_for(job)
    assert pool.bg_drained_s == pytest.approx(1.5)
    assert pool.class_drained_s["flush"] == pytest.approx(1.5)


# --------------------------------------------------------- fair ordering

def test_fair_order_prefers_least_weighted_class():
    disk, pool = make_pool(threads=2)
    compact = pool.submit("compact", lambda: 5.0)
    flush = pool.submit("flush", lambda: 5.0, high_priority=True)
    # Pre-charge the flush class so compaction's virtual time is lower.
    pool.class_drained_s["flush"] = 10.0 * CLASS_WEIGHTS["flush"]
    order = pool._fair_order()
    assert order[0] is compact
    pool.class_drained_s["compaction"] = 20.0
    order = pool._fair_order()
    assert order[0] is flush


def test_fair_order_is_fifo_within_class():
    disk, pool = make_pool(threads=3)
    flushes = [pool.submit(f"flush{i}", lambda: 4.0, high_priority=True)
               for i in range(3)]
    order = [j for j in pool._fair_order() if j.high_priority]
    assert [j.seq for j in order] == sorted(j.seq for j in order)
    assert order == flushes


def test_compaction_burst_cannot_starve_flush_share():
    # Ten compactions active alongside one flush: when idle time is too
    # small to finish everything, the flush must still see device share.
    disk, pool = make_pool(threads=11)
    for i in range(10):
        pool.submit(f"c{i}", lambda: 100.0)
    flush = pool.submit("flush", lambda: 1.0, high_priority=True)
    disk.clock.now = 30.0  # far less than the 1001s of total debt
    pool.pump()
    assert flush.done, "fair share must let the flush finish"


# --------------------------------------- flush FIFO under fault re-queues

def test_flush_fifo_survives_fault_requeues():
    """Fault-injected flush re-queues keep completion order == submit order."""
    from repro.db.iamdb import IamDB
    from tests.conftest import tiny_lsm_options, tiny_storage_options

    db = IamDB("leveldb", engine_options=tiny_lsm_options("leveldb"),
               storage_options=tiny_storage_options())
    db.runtime.attach_faults(FaultOptions(
        seed=3, rate=0.35, max_retries=1,
        backoff_base_s=1e-6, backoff_max_s=8e-6, giveup_backoff_s=2e-5))
    pool = db.runtime.pool
    submit_order = {}
    refs = []  # keep jobs alive so id() stays unique
    retired = []
    orig_submit = pool.submit
    orig_retire = pool._retire

    def spy_submit(name, start_fn, **kw):
        job = orig_submit(name, start_fn, **kw)
        if kw.get("high_priority") and id(job) not in submit_order:
            refs.append(job)
            submit_order[id(job)] = len(submit_order)
        return job

    def spy_retire(job):
        if job.high_priority and not job.failed and id(job) in submit_order:
            retired.append(submit_order[id(job)])
        orig_retire(job)

    pool.submit = spy_submit
    pool._retire = spy_retire
    rng = random.Random(7)
    for _ in range(2500):
        db.put(rng.randrange(1 << 30), 64)
    db.quiesce()
    assert len(retired) >= 3
    assert db.metrics.events.get("fault:job-fault", 0) > 0, \
        "fault plan must actually re-queue jobs for this test to bite"
    assert retired == sorted(retired), \
        "flushes must retire in submission order despite re-queues"
    db.close()


def test_requeued_flush_does_not_overtake_earlier_flush():
    disk, pool = make_pool(threads=1)

    class Injector:
        class options:
            max_retries = 2
            backoff_base_s = 0.5
            backoff_max_s = 2.0
            giveup_backoff_s = 5.0

        def __init__(self):
            self.giveups = 0
            self.fail_next = False

        def job_attempt_fails(self, job):
            failing, self.fail_next = self.fail_next, False
            return failing

    pool.injector = Injector()
    done = []
    blocker = pool.submit("blocker", lambda: 10.0)
    pool.injector.fail_next = True  # first flush faults once, re-queues
    pool.submit("flushA", lambda: done.append("A") or 1.0, high_priority=True)
    pool.submit("flushB", lambda: done.append("B") or 1.0, high_priority=True)
    disk.clock.now = 100.0
    pool.pump()
    pool.drain_all()
    assert done == ["A", "B"], "re-queued flushA must still run before flushB"
