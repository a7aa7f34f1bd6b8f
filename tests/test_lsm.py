"""Leveled LSM engine: flushes, compaction, trivial moves, stall gates."""

import pytest

from repro.common.records import KEY, SEQ, make_put
from repro.db.iamdb import IamDB
from tests.conftest import make_tiny_db, tiny_lsm_options, tiny_storage_options

VAL = 64


def overflow_factors(eng):
    """Actual size over threshold per level (§6.2's "data overflows")."""
    return {i: eng.level_bytes[i] / eng.options.level_target_bytes(i)
            for i in range(1, eng.options.max_levels - 1) if eng.level_bytes[i]}


def effective_size_ratios(eng):
    """Measured size ratio between adjacent levels (paper: 5.4 vs 10)."""
    return {i: eng.level_bytes[i + 1] / eng.level_bytes[i]
            for i in range(1, eng.options.max_levels - 1)
            if eng.level_bytes[i] and eng.level_bytes[i + 1]}


def load_keys(db, keys, vsize=VAL):
    for k in keys:
        db.put(k, vsize)


def test_flush_lands_in_l0():
    db = make_tiny_db("leveldb")
    load_keys(db, range(40))  # > memtable capacity
    db.flush()
    eng = db.engine
    assert eng.flushes >= 1
    assert len(eng.levels[0]) >= 1
    for t in eng.levels[0]:
        assert t.n_sequences == 1


def test_l0_files_may_overlap_and_newest_wins():
    db = make_tiny_db("leveldb")
    load_keys(db, list(range(30)) + list(range(30)))  # second pass updates
    db.flush()
    assert db.get(5) == VAL
    rec, _ = db.engine.get(5)
    assert rec is not None


def test_compaction_triggers_and_deep_levels_sorted():
    db = make_tiny_db("leveldb")
    import random
    rng = random.Random(1)
    for _ in range(2000):
        db.put(rng.randrange(500), VAL)
    db.quiesce()
    eng = db.engine
    eng.check_invariants()
    assert eng.compactions > 0
    deep = [lvl for lvl in range(1, eng.options.max_levels) if eng.levels[lvl]]
    assert deep, "data should reach deeper levels"


def test_trivial_move_on_sequential_load():
    db = make_tiny_db("leveldb")
    load_keys(db, range(3000))
    db.quiesce()
    eng = db.engine
    assert eng.trivial_moves > 0
    # Sequential loads barely rewrite: WA stays near 1 (§6.6).
    assert db.write_amplification() < 1.6


def test_random_load_write_amplification_exceeds_sequential():
    seq_db = make_tiny_db("leveldb")
    load_keys(seq_db, range(2000))
    seq_db.quiesce()
    rnd_db = make_tiny_db("leveldb")
    import random
    rng = random.Random(2)
    seen = set()
    while len(seen) < 2000:
        k = rng.randrange(1 << 30)
        if k not in seen:
            seen.add(k)
            rnd_db.put(k, VAL)
    rnd_db.quiesce()
    assert rnd_db.write_amplification() > seq_db.write_amplification() + 1.0


def test_write_gate_stops_at_l0_limit():
    db = make_tiny_db("leveldb")
    import random
    rng = random.Random(3)
    for _ in range(3000):
        db.put(rng.randrange(1 << 30), VAL)
    stop = db.engine.options.l0_stop_trigger
    assert len(db.engine.levels[0]) <= stop + 1
    db.quiesce()
    db.check_invariants()


def test_rocksdb_debt_gate_paces_writes():
    db = make_tiny_db("rocksdb", pending_compaction_soft_bytes=1024)
    import random
    rng = random.Random(4)
    for _ in range(3000):
        db.put(rng.randrange(1 << 30), VAL)
    assert db.metrics.events.get("pace:token-bucket", 0) > 0
    db.quiesce()
    db.check_invariants()


def test_get_checks_l0_newest_first():
    db = make_tiny_db("leveldb")
    load_keys(db, range(25))
    db.flush()
    db.put(3, 99)
    db.flush()  # second L0 file with the update
    assert db.get(3) == 99


def test_scan_cursors_cover_all_levels():
    db = make_tiny_db("leveldb")
    import random
    rng = random.Random(5)
    keys = set()
    for _ in range(1500):
        k = rng.randrange(3000)
        keys.add(k)
        db.put(k, VAL)
    db.quiesce()
    got = db.scan(None, None)
    assert [k for k, _ in got] == sorted(keys)


def test_level_data_bytes_reports_live_levels():
    db = make_tiny_db("leveldb")
    load_keys(db, range(500))
    db.quiesce()
    sizes = db.engine.level_data_bytes()
    assert sum(sizes.values()) > 0


def test_checkpoint_restore_roundtrip():
    db = make_tiny_db("leveldb")
    load_keys(db, range(600))
    db.quiesce()
    state = db.engine.checkpoint_state()
    desc_before = db.engine.describe()
    db.engine.restore_state(state)
    db.engine.check_invariants()
    assert db.engine.describe()["levels"] == desc_before["levels"]
    assert db.get(5) == VAL


def test_overflow_factors_under_write_pressure():
    """§6.2: levels exceed their thresholds while compaction lags (LevelDB),
    shrinking the effective adjacent-level size ratio below the nominal
    multiplier."""
    db = make_tiny_db("leveldb")
    import random
    rng = random.Random(8)
    for _ in range(4000):
        db.put(rng.randrange(1 << 30), VAL)
    over = overflow_factors(db.engine)
    assert over, "some level should hold data mid-load"
    assert max(over.values()) > 1.0  # at least one level overflowed
    ratios = effective_size_ratios(db.engine)
    mult = db.engine.options.level_size_multiplier
    if ratios:
        assert min(ratios.values()) < mult  # effective fan-out shrank
    db.quiesce()
    # After the tuning phase completes, overflows drain back to ~thresholds.
    drained = overflow_factors(db.engine)
    assert all(v <= max(over.values()) + 0.01 for v in drained.values())


def test_per_level_wa_attribution():
    db = make_tiny_db("leveldb")
    import random
    rng = random.Random(6)
    for _ in range(2000):
        db.put(rng.randrange(1 << 30), VAL)
    db.quiesce()
    per = db.per_level_write_amplification()
    assert 0 in per  # flush charged to L0
    assert per[0] == pytest.approx(1.0, abs=0.35)
    assert sum(per.values()) == pytest.approx(db.write_amplification())
