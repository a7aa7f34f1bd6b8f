"""Crash-point scheduler, hard crash model, and the durability matrix."""

import pytest

from repro.common.errors import ConfigError
from repro.faults.crash import (
    CRASH_SITES,
    CrashPoints,
    CrashSpec,
    SimulatedCrash,
    run_crash_matrix,
)
from tests.conftest import make_tiny_db


# ---------------------------------------------------------------- CrashPoints
def test_crash_points_validation():
    with pytest.raises(ConfigError):
        CrashPoints("not-a-site")
    with pytest.raises(ConfigError):
        CrashPoints("mid-flush", occurrence=0)


def test_crash_points_fires_once_at_exact_occurrence():
    cp = CrashPoints("mid-flush", occurrence=2)
    cp.reached("mid-flush")
    with pytest.raises(SimulatedCrash) as exc:
        cp.reached("mid-flush")
    assert exc.value.site == "mid-flush" and exc.value.occurrence == 2
    cp.reached("mid-flush")  # fired already: pure counter from here on
    assert cp.counts["mid-flush"] == 3


def test_disarmed_crash_points_only_count():
    cp = CrashPoints()
    for site in CRASH_SITES:
        cp.reached(site)
    assert all(cp.counts[s] == 1 for s in CRASH_SITES)
    assert not cp.fired


def test_simulated_crash_is_not_a_repro_error():
    from repro.common.errors import ReproError
    assert not issubclass(SimulatedCrash, ReproError)


# ------------------------------------------------------------ hard crash model
def test_crash_mid_flush_abandons_job_and_recovers():
    db = make_tiny_db("iam")
    cp = CrashPoints("mid-flush", occurrence=1)
    db.runtime.arm_crash_points(cp)
    with pytest.raises(SimulatedCrash):
        for i in range(2000):
            db.put(i, 48)
    crashed_at = i
    report = db.crash_and_recover()
    assert report.abandoned_jobs >= 1
    assert db.runtime.pool.active == [] and not db.runtime.pool.queue
    # Every acked write survived (no torn tail).
    for k in range(crashed_at):
        assert db.get(k) == 48, k
    db.check_invariants()


def test_a_crash_inside_a_job_leaves_no_filter_build_pending():
    # The second "mid-split" fires inside a flush job's start_fn, after the
    # job appended sequences whose filters are built when start_fn returns:
    # the pool still finishes them as the crash unwinds through it.
    db = make_tiny_db("iam")
    pool, cp = db.runtime.pool, CrashPoints("mid-split", occurrence=2)
    batches, finish = [], pool.finish_builds
    pool.finish_builds = lambda builds: batches.append((cp.fired, len(builds))) or finish(builds)
    db.runtime.arm_crash_points(cp)
    acked = {}
    with pytest.raises(SimulatedCrash):
        for i in range(2000):
            db.put(i * 7919 % 100_003, i)
            acked[i * 7919 % 100_003] = i
    fired, n_builds = batches[-1]  # the crashed job's, finished anyway
    assert fired and n_builds > 0 and pool.builds is None
    tables = [node.table for level in db.engine.levels for node in level if node.table]
    assert all(len(t.probe_rows) == t.n_sequences for t in tables)
    db.crash_and_recover()
    assert all(db.get(key) == value for key, value in acked.items())
    db.check_invariants()


def test_torn_tail_loses_whole_batches_only():
    db = make_tiny_db("iam")
    db.put(1, 11)
    with db.write_batch() as b:
        for i in range(10, 20):
            b.put(i, 99)
    db.put(2, 22)
    # Tear 3 records: the single put (seq boundary) goes, then the keep
    # point must snap below the whole batch, never inside it.
    report = db.crash_and_recover(CrashSpec(torn_tail_records=3))
    assert report.torn_records == 11  # 1 single + the 10-record batch
    assert db.get(2) is None
    assert all(db.get(i) is None for i in range(10, 20))
    assert db.get(1) == 11


def test_torn_tail_zero_is_noop():
    db = make_tiny_db("iam")
    db.put(1, 11)
    report = db.crash_and_recover(CrashSpec(torn_tail_records=0))
    assert report.torn_records == 0
    assert db.get(1) == 11


def test_recovery_report_fields():
    db = make_tiny_db("iam")
    for i in range(600):
        db.put(i, 48)
    report = db.crash_and_recover()
    d = report.as_dict()
    assert d["recovered_seq"] == 600
    assert d["recovered_seq"] >= d["durable_seq"]
    assert d["replayed_records"] == len(db.memtable)
    assert db._seq == 600


def test_seq_rewinds_to_recovered_cut():
    db = make_tiny_db("iam")
    for i in range(1, 9):
        db.put(i, i)
    db.crash_and_recover(CrashSpec(torn_tail_records=3))
    assert db._seq == 5
    db.put(100, 1)
    assert db._seq == 6  # reissues the torn sequence numbers


def test_crash_sweeps_orphan_files():
    db = make_tiny_db("leveldb")
    cp = CrashPoints("mid-flush", occurrence=2)
    db.runtime.arm_crash_points(cp)
    with pytest.raises(SimulatedCrash):
        for i in range(4000):
            db.put(i % 700, 48)
    db.crash_and_recover()
    # Space accounting agrees with the files a fresh walk can see.
    disk = db.runtime.disk
    assert disk.live_bytes == sum(f.nbytes for f in disk.files.values())
    live = set(db.engine.live_file_ids())
    live.add(db.wal.file_id)
    live.add(db.manifest.file_id)
    assert set(disk.files) == live
    db.check_invariants()


def test_crash_during_engine_structural_site():
    # mid-combine fires inside an LSA structural mutation; the restored
    # checkpoint must roll the half-applied mutation back.
    db = make_tiny_db("lsa")
    cp = CrashPoints("mid-combine", occurrence=1)
    db.runtime.arm_crash_points(cp)
    seen = {}
    with pytest.raises(SimulatedCrash):
        for i in range(20000):
            k = i % 900
            db.put(k, 48)
            seen[k] = 48
    db.crash_and_recover()
    for k, v in seen.items():
        assert db.get(k) == v, k
    db.check_invariants()


def test_workload_continues_after_recovery():
    db = make_tiny_db("iam")
    cp = CrashPoints("post-checkpoint", occurrence=1)
    db.runtime.arm_crash_points(cp)
    i = 0
    try:
        for i in range(3000):
            db.put(i % 500, 40)
    except SimulatedCrash:
        db.crash_and_recover()
    for j in range(i, 3000):
        db.put(j % 500, 40)
    db.quiesce()
    for k in range(500):
        assert db.get(k) == 40, k
    db.check_invariants()


# ----------------------------------------------------------------- the matrix
def test_crash_matrix_iam_holds_contract():
    report = run_crash_matrix(("iam",), n_ops=150, per_site=1, seed=1)
    assert report["n_cases"] > 0
    assert report["n_failures"] == 0, report["failures"]
    # The workload reaches the flush/checkpoint pipeline at minimum.
    for site in ("post-wal-append", "mid-flush", "pre-checkpoint",
                 "post-checkpoint", "post-rotate"):
        assert report["sites"]["iam"].get(site, 0) > 0, site


def test_crash_matrix_leveldb_holds_contract():
    report = run_crash_matrix(("leveldb",), n_ops=150, per_site=1, seed=1)
    assert report["n_failures"] == 0, report["failures"]
    assert report["sites"]["leveldb"].get("post-compact", 0) > 0


def test_crash_matrix_holds_contract_on_the_other_engines():
    report = run_crash_matrix(("lsa", "rocksdb", "flsm", "lsmtrie"), n_ops=150,
                              per_site=1, seed=1)
    assert set(report["sites"]) == {"lsa", "rocksdb", "flsm", "lsmtrie"}
    assert report["n_failures"] == 0, report["failures"][:3]


def test_crash_matrix_report_is_jsonable():
    import json
    report = run_crash_matrix(("iam",), n_ops=60, per_site=1, seed=2,
                              sanitize=False)
    json.dumps(report)


def test_crash_matrix_is_a_function_of_its_seed():
    # The workload, every crash case and every recovery descend from
    # ``seed`` alone, so a second run repeats the report case for case.
    first = run_crash_matrix(("iam",), n_ops=60, per_site=1, seed=2,
                             sanitize=False)
    assert run_crash_matrix(("iam",), n_ops=60, per_site=1, seed=2,
                            sanitize=False) == first
