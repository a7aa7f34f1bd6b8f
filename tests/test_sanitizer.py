"""Runtime sanitizer tests: clean runs stay silent, corrupted state is caught,
and the shared diagnostic formatting is used across the engine."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from tests.conftest import make_tiny_db, tiny_iam_options, tiny_storage_options
from repro.check.diagnostics import Diagnostic, diagnostic_of, invariant_error
from repro.check.sanitizer import Sanitizer, SanitizerOptions
from repro.common.errors import InvariantViolation
from repro.db.iamdb import IamDB
from repro.memtable import Memtable
from repro.storage.simdisk import SimClock


def make_sanitized_db(engine: str = "iam", **opt_kw) -> IamDB:
    options = SanitizerOptions(**opt_kw)
    return IamDB(engine, engine_options=tiny_iam_options(),
                 storage_options=tiny_storage_options(),
                 sanitizer_options=options)


def load(db: IamDB, n: int, seed: int = 7) -> None:
    rng = random.Random(seed)
    for _ in range(n):
        db.put(rng.randrange(n * 4), 64)


# ------------------------------------------------------------- clean runs
@pytest.mark.parametrize("engine", ["iam", "lsa"])
def test_clean_workload_has_no_violations(engine):
    db = make_sanitized_db(engine)
    load(db, 600)
    db.flush()
    db.crash_and_recover()
    load(db, 200, seed=11)
    db.quiesce()
    assert db.sanitizer is not None
    assert db.sanitizer.violations == []
    assert db.sanitizer.events_seen > 0
    assert db.sanitizer.checks_run > 0
    db.close()


def test_sanitizer_not_attached_by_default():
    db = make_tiny_db("iam")
    assert db.sanitizer is None
    assert db.engine.sanitizer is None
    db.close()


def test_check_every_skips_walks():
    db = make_sanitized_db("iam", check_every=3)
    s = db.sanitizer
    walks_before = s.checks_run
    for _ in range(6):
        s.after_structural_event(db.engine, "flush")
    assert s.events_seen == 6
    assert s.checks_run == walks_before + 2  # every 3rd event walks the tree
    db.close()


# ------------------------------------------------------- corrupted trees
def fresh_sanitizer(db: IamDB) -> Sanitizer:
    return Sanitizer(db, SanitizerOptions(halt_on_violation=False))


def checks_hit(sanitizer: Sanitizer) -> set:
    return {d.check for d in sanitizer.violations}


def loaded_engine_db():
    db = make_sanitized_db("iam")
    load(db, 800)
    db.quiesce()
    return db


def test_detects_unsorted_level():
    db = loaded_engine_db()
    engine = db.engine
    level = next(lvl for lvl in engine.levels[1:] if len(lvl) >= 2)
    level[0], level[1] = level[1], level[0]
    s = fresh_sanitizer(db)
    s.check_tree(engine)
    assert "level-sorted" in checks_hit(s)


def test_detects_range_not_covering_data():
    db = loaded_engine_db()
    engine = db.engine
    node = next(nd for lvl in engine.levels[1:] for nd in lvl if not nd.is_empty)
    node.range_hi = node.table.min_key  # shrink below the data
    s = fresh_sanitizer(db)
    s.check_tree(engine)
    assert "range-covers-data" in checks_hit(s)


def test_detects_unsorted_sequence_records():
    db = loaded_engine_db()
    engine = db.engine
    seq = next(sq for lvl in engine.levels[1:] for nd in lvl if not nd.is_empty
               for sq in nd.table.sequences if len(sq) >= 2)
    seq.run.keys[:] = seq.run.keys[::-1].copy()
    s = fresh_sanitizer(db)
    s.check_tree(engine)
    assert "sequence-sorted" in checks_hit(s)


def test_detects_probe_rows_drifting_from_sequences():
    db = loaded_engine_db()
    node = next(nd for lvl in db.engine.levels[1:] for nd in lvl if nd.n_sequences >= 2)
    node.table.sequences.reverse()  # bypass _account: get() still reads the rows
    s = fresh_sanitizer(db)
    s.check_tree(db.engine)
    assert "sequence-layout" in checks_hit(s)
    with pytest.raises(InvariantViolation, match="probe rows"):
        db.check_invariants()


def test_detects_file_byte_mismatch():
    db = loaded_engine_db()
    engine = db.engine
    node = next(nd for lvl in engine.levels[1:] for nd in lvl if not nd.is_empty)
    node.table.file.nbytes += 7  # bypass grow(): accounting now disagrees
    s = fresh_sanitizer(db)
    s.check_tree(engine)
    hit = checks_hit(s)
    assert "node-file-agreement" in hit
    assert "space-accounting" in hit


def test_detects_nodes_beyond_leaf():
    db = loaded_engine_db()
    engine = db.engine
    node = next(nd for lvl in engine.levels[1:] for nd in lvl)
    engine.levels.append([node])
    s = fresh_sanitizer(db)
    s.check_tree(engine)
    assert "leaf-is-last" in checks_hit(s)


def test_detects_clock_regression():
    db = loaded_engine_db()
    s = fresh_sanitizer(db)
    s._last_clock = db.runtime.clock.now + 1.0
    s.check_tree(db.engine)
    assert "clock-monotonic" in checks_hit(s)


def test_halt_on_violation_raises():
    db = loaded_engine_db()
    engine = db.engine
    level = next(lvl for lvl in engine.levels[1:] if len(lvl) >= 2)
    level[0], level[1] = level[1], level[0]
    s = Sanitizer(db, SanitizerOptions(halt_on_violation=True))
    with pytest.raises(InvariantViolation) as err:
        s.check_tree(engine)
    assert diagnostic_of(err.value).check == "level-sorted"


# ------------------------------------------------------------- db checks
def test_detects_wal_memtable_divergence():
    db = make_sanitized_db("iam")
    for i in range(5):
        db.put(i, 32)
    db.wal._records.pop()  # lose a WAL record behind the memtable's back
    s = fresh_sanitizer(db)
    s.check_db("test")
    assert "wal-memtable-agreement" in checks_hit(s)


def test_detects_manifest_ahead_of_db():
    db = make_sanitized_db("iam")
    load(db, 300)
    db.flush()
    db.manifest.checkpoint({"engine": None, "seq": db._seq + 100})
    s = fresh_sanitizer(db)
    s.check_db("test")
    assert "manifest-agreement" in checks_hit(s)


def test_detects_stale_wal_records():
    db = make_sanitized_db("iam")
    load(db, 50)
    db.put(999_999, 32)  # guarantee the WAL holds at least one record
    state = db.manifest.restore()
    # Pretend the checkpoint already covers the WAL's newest record.
    newest = max(rec[1] for rec in db.wal._records)
    db.manifest.checkpoint({"engine": None if state is None else state["engine"],
                            "seq": newest})
    db._seq = max(db._seq, newest)
    s = fresh_sanitizer(db)
    s.check_db("test")
    assert "manifest-agreement" in checks_hit(s)


# ------------------------------------------------- mixed-level bound logic
def fake_engine(m, k, levels):
    """Duck-typed engine for the transition-tracking unit tests."""
    return SimpleNamespace(m=m, k=k, n=len(levels) - 1, levels=levels)


def fake_node(n_sequences):
    return SimpleNamespace(n_sequences=n_sequences)


def bound_checker():
    db = SimpleNamespace(runtime=SimpleNamespace(clock=SimClock()))
    return Sanitizer(db, SanitizerOptions(halt_on_violation=False))


def test_bound_violation_on_growth_at_mixed_level():
    node = fake_node(2)
    engine = fake_engine(m=1, k=2, levels=[[], [node]])
    s = bound_checker()
    s._check_policy_bounds(engine, "t")
    assert s.violations == []
    node.n_sequences = 3  # grew past k without a move-down
    s._check_policy_bounds(engine, "t")
    assert checks_hit(s) == {"mixed-level-bound"}


def test_move_down_carry_is_tolerated():
    node = fake_node(3)
    s = bound_checker()
    # Observed over-bound while at an appending level: fine.
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [node], []]), "t")
    # Arrives at the mixed level still holding 3 sequences: carried debt.
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [], [node]]), "t")
    assert s.violations == []
    # Healed on first merge.
    node.n_sequences = 1
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [], [node]]), "t")
    assert s.violations == []


def test_carried_node_must_not_gain_sequences():
    node = fake_node(3)
    s = bound_checker()
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [node], []]), "t")
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [], [node]]), "t")
    node.n_sequences = 4  # appended to an over-bound node
    s._check_policy_bounds(fake_engine(m=2, k=2, levels=[[], [], [node]]), "t")
    assert checks_hit(s) == {"mixed-level-bound"}


def test_retune_resets_tracking():
    node = fake_node(2)
    s = bound_checker()
    s._check_policy_bounds(fake_engine(m=1, k=2, levels=[[], [node]]), "t")
    node.n_sequences = 4
    # m/k changed: the old observation no longer applies.
    s._check_policy_bounds(fake_engine(m=1, k=4, levels=[[], [node]]), "t")
    assert s.violations == []


# ------------------------------------------------------------ diagnostics
def test_invariant_error_carries_diagnostic():
    exc = invariant_error("some-check", "went wrong", a=1, b="x")
    assert isinstance(exc, InvariantViolation)
    assert exc.diagnostic == Diagnostic("some-check", "went wrong",
                                        {"a": 1, "b": "x"})
    assert str(exc) == "[some-check] went wrong | a=1 b='x'"


def test_diagnostic_of_synthesizes_for_plain_exceptions():
    diag = diagnostic_of(ValueError("boom"))
    assert diag.check == "unstructured"
    assert diag.message == "boom"


def test_memtable_raises_structured_diagnostic():
    mt = Memtable(8)
    mt.add((1, 5, 0, 16))
    with pytest.raises(InvariantViolation) as err:
        mt.add((1, 5, 0, 16))
    assert diagnostic_of(err.value).check == "memtable-seq-order"
    assert diagnostic_of(err.value).context["key"] == 1


def test_simclock_raises_structured_diagnostic():
    clock = SimClock()
    with pytest.raises(InvariantViolation) as err:
        clock.advance(-1.0)
    assert diagnostic_of(err.value).check == "clock-monotonic"
