"""Fault injection: deterministic plans, retries, degradation, equivalence."""

import pytest

from repro.common.errors import ConfigError, TransientIOError
from repro.common.options import FaultOptions
from repro.faults.plan import FaultInjector, FaultPlan, parse_fault_spec
from repro.storage.background import BackgroundPool
from tests.conftest import make_tiny_db


# --------------------------------------------------------------- options/spec
def test_fault_options_validation():
    with pytest.raises(ConfigError):
        FaultOptions(rate=1.0)
    with pytest.raises(ConfigError):
        FaultOptions(rate=-0.1)
    with pytest.raises(ConfigError):
        FaultOptions(op_windows=((5, 5),))
    with pytest.raises(ConfigError):
        FaultOptions(time_windows=((-1.0, 2.0),))
    with pytest.raises(ConfigError):
        FaultOptions(max_retries=0)
    with pytest.raises(ConfigError):
        FaultOptions(backoff_base_s=0.0)
    with pytest.raises(ConfigError):
        FaultOptions(backoff_max_s=0.0001, backoff_base_s=0.001)


def test_fault_options_enabled():
    assert not FaultOptions().enabled
    assert FaultOptions(rate=0.1).enabled
    assert FaultOptions(op_windows=((0, 5),)).enabled
    assert FaultOptions(time_windows=((0.0, 1.0),)).enabled


def test_parse_fault_spec():
    o = parse_fault_spec("rate=0.01,seed=7,retries=4,ops=100:200")
    assert o.rate == 0.01 and o.seed == 7 and o.max_retries == 4
    assert o.op_windows == ((100, 200),)
    o = parse_fault_spec("time=0.5:0.75,time=1:2")
    assert o.time_windows == ((0.5, 0.75), (1.0, 2.0))
    with pytest.raises(ConfigError):
        parse_fault_spec("nonsense=1")
    with pytest.raises(ConfigError):
        parse_fault_spec("rate=oops")


# ----------------------------------------------------------------------- plan
def test_plan_is_deterministic():
    a = FaultPlan(FaultOptions(seed=3, rate=0.2))
    b = FaultPlan(FaultOptions(seed=3, rate=0.2))
    assert [a.attempt_fails(0.0) for _ in range(500)] == \
           [b.attempt_fails(0.0) for _ in range(500)]


def test_plan_seed_changes_decisions():
    a = FaultPlan(FaultOptions(seed=3, rate=0.2))
    b = FaultPlan(FaultOptions(seed=4, rate=0.2))
    assert [a.attempt_fails(0.0) for _ in range(500)] != \
           [b.attempt_fails(0.0) for _ in range(500)]


def test_plan_rate_roughly_honoured():
    plan = FaultPlan(FaultOptions(seed=1, rate=0.1))
    hits = sum(plan.attempt_fails(0.0) for _ in range(5000))
    assert 300 < hits < 700  # ~500 expected


def test_plan_op_window_fails_exactly_inside():
    plan = FaultPlan(FaultOptions(op_windows=((10, 13),)))
    fails = [plan.attempt_fails(0.0) for _ in range(20)]
    assert fails == [i in (10, 11, 12) for i in range(20)]


def test_plan_time_window():
    plan = FaultPlan(FaultOptions(time_windows=((1.0, 2.0),)))
    assert not plan.attempt_fails(0.5)
    assert plan.attempt_fails(1.0)
    assert plan.attempt_fails(1.999)
    assert not plan.attempt_fails(2.0)


def test_plan_check_raises_transient():
    plan = FaultPlan(FaultOptions(op_windows=((0, 1),)))
    with pytest.raises(TransientIOError):
        plan.check(0.0)
    plan.check(0.0)  # second attempt is clean


# ----------------------------------------------------- foreground retry loop
def test_foreground_fault_adds_latency_not_loss():
    db = make_tiny_db("iam")
    injector = db.runtime.attach_faults(FaultOptions(seed=2, op_windows=((0, 3),)))
    t0 = db.runtime.clock.now
    db.put(1, 32)
    assert db.runtime.clock.now > t0
    assert injector.fg_errors >= 3
    assert db.metrics.events["fault:fg-error"] == injector.fg_errors
    assert db.get(1) == 32


def test_foreground_backoff_plateaus_past_max_retries():
    db = make_tiny_db("iam")
    opts = FaultOptions(seed=2, op_windows=((0, 10),), max_retries=2,
                        backoff_base_s=0.001, backoff_max_s=0.002,
                        giveup_backoff_s=0.05)
    injector = db.runtime.attach_faults(opts)
    t0 = db.runtime.clock.now
    db.put(1, 32)
    # 10 faulted attempts: 2 bounded backoffs, 8 at the give-up pace.
    assert injector.fg_errors == 10
    assert db.metrics.events["fault:fg-giveup"] == 8
    elapsed = db.runtime.clock.now - t0
    assert elapsed > 8 * 0.05
    assert db.get(1) == 32


# ------------------------------------------------------- background job faults
def _drain(db):
    db.flush()
    db.runtime.quiesce()


def test_job_fault_retries_with_backoff():
    db = make_tiny_db("iam")
    # Foreground attempts are plentiful; make only a narrow window fail so a
    # background activation lands in it with retries left.
    db.runtime.attach_faults(FaultOptions(seed=5, rate=0.02))
    for i in range(600):
        db.put(i % 300, 48)
    _drain(db)
    pool = db.runtime.pool
    assert db.metrics.events.get("fault:job-fault", 0) >= 1
    assert pool.failed_jobs == 0  # retries succeeded, nothing gave up
    for i in range(300):
        assert db.get(i) == 48
    db.check_invariants()


def test_flush_never_dropped_on_giveup():
    db = make_tiny_db("iam")
    # A flush gives up iff its first max_retries+1 activations all fault:
    # at rate 0.9 with max_retries=1 most flushes exhaust retries at least
    # once, and the job must be re-queued, never dropped.
    db.runtime.attach_faults(FaultOptions(
        seed=1, rate=0.9, max_retries=1,
        backoff_base_s=0.0005, backoff_max_s=0.001, giveup_backoff_s=0.01))
    for i in range(400):
        db.put(i, 48)
    _drain(db)
    assert db.metrics.events.get("fault:flush-requeue", 0) >= 1
    for i in range(400):
        assert db.get(i) == 48
    db.check_invariants()


def test_compaction_giveup_requeues_and_degrades():
    db = make_tiny_db("leveldb")
    db.runtime.attach_faults(FaultOptions(
        seed=1, rate=0.9, max_retries=1,
        backoff_base_s=0.0005, backoff_max_s=0.001, giveup_backoff_s=0.01))
    for i in range(1200):
        db.put(i % 500, 48)
    pool = db.runtime.pool
    assert db.metrics.events.get("fault:job-giveup", 0) >= 1
    assert pool.failed_jobs >= 1
    # The degraded write gate paced writers while the streak was nonzero.
    assert db.metrics.events.get("slowdown:fault-degraded", 0) >= 1
    _drain(db)
    for i in range(500):
        assert db.get(i) == 48
    db.check_invariants()


def test_failed_streak_resets_on_success():
    db = make_tiny_db("leveldb")
    db.runtime.attach_faults(FaultOptions(
        seed=1, op_windows=((50, 400),), max_retries=1,
        backoff_base_s=0.0005, backoff_max_s=0.001, giveup_backoff_s=0.01))
    for i in range(1500):
        db.put(i % 500, 48)
    _drain(db)
    # After the window closes, jobs retire cleanly and the streak resets.
    assert db.runtime.pool.failed_streak == 0
    db.check_invariants()


# ------------------------------------------------------------- determinism
def _run_faulted(seed):
    db = make_tiny_db("iam")
    db.runtime.attach_faults(FaultOptions(seed=seed, rate=0.03))
    for i in range(500):
        db.put(i % 200, 48)
    _drain(db)
    return (db.runtime.clock.now, db.metrics.wal_bytes,
            db.write_amplification(), dict(db.metrics.events),
            db.space_used_bytes())


def test_faulted_runs_are_deterministic():
    assert _run_faulted(9) == _run_faulted(9)


def test_never_firing_injector_is_equivalent_to_none():
    def run(attach):
        db = make_tiny_db("iam")
        if attach:
            # enabled (rate > 0) but the windowless rate never fires at
            # this magnitude within the run's attempt count.
            db.runtime.attach_faults(FaultOptions(seed=1, rate=1e-12))
        for i in range(400):
            db.put(i % 200, 48)
        _drain(db)
        return (db.runtime.clock.now, db.metrics.wal_bytes,
                db.write_amplification(), dict(db.metrics.events))

    assert run(False) == run(True)


def test_disabled_options_never_hook():
    db = make_tiny_db("iam")
    injector = db.runtime.attach_faults(FaultOptions())  # disabled
    for i in range(100):
        db.put(i, 48)
    _drain(db)
    assert injector.plan.ops == 0  # no attempt was ever consumed
    assert injector.fg_errors == 0


def test_injector_snapshot_is_jsonable():
    import json
    db = make_tiny_db("iam")
    injector = db.runtime.attach_faults(FaultOptions(seed=3, rate=0.05))
    for i in range(200):
        db.put(i, 48)
    _drain(db)
    snap = injector.snapshot()
    json.dumps(snap)
    assert snap["attempts"] == injector.plan.ops
    assert snap["fg_errors"] == injector.fg_errors
