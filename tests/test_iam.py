"""IAM-tree: the append/merge policy and the mixed level (§5)."""

import random

import pytest

from repro.db.iamdb import IamDB
from tests.conftest import (make_tiny_db, max_sequences_per_node,
                            tiny_iam_options, tiny_storage_options)

VAL = 64


def load_random(db, n, seed=0, keyspace=1 << 30):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < n:
        k = rng.randrange(keyspace)
        if k not in seen:
            seen.add(k)
            db.put(k, VAL)
    return seen


class _FakeNode:
    def __init__(self, n_sequences, nbytes=0):
        self.n_sequences = n_sequences
        self.nbytes = nbytes


def test_policy_by_level_class():
    db = make_tiny_db("iam", fixed_m=2, fixed_k=3)
    eng = db.engine
    eng.n = 4
    assert eng.level_class(1) == "appending"
    assert eng.level_class(2) == "mixed"
    assert eng.level_class(3) == "merging"
    assert not eng.merges_on_arrival(1, _FakeNode(10))
    assert not eng.merges_on_arrival(2, _FakeNode(2))
    assert eng.merges_on_arrival(2, _FakeNode(3))
    assert eng.merges_on_arrival(3, _FakeNode(1))


def test_leaf_policy():
    db = make_tiny_db("iam", fixed_m=2, fixed_k=3)
    eng = db.engine
    ct = eng.options.node_capacity
    eng.n = 3  # leaf deeper than mixed -> merging class: always merge
    assert eng.merges_on_arrival(3, _FakeNode(1, 10))
    eng.n = 2  # leaf == mixed -> merge at k sequences or when full
    assert not eng.merges_on_arrival(2, _FakeNode(1, 10))
    assert eng.merges_on_arrival(2, _FakeNode(3, 10))
    assert eng.merges_on_arrival(2, _FakeNode(1, ct))
    eng.n = 1  # leaf above mixed -> LSA behaviour (merge only when full)
    assert not eng.merges_on_arrival(1, _FakeNode(5, 10))
    assert eng.merges_on_arrival(1, _FakeNode(5, ct))


def test_lsa_corner_never_merges_internally():
    db = make_tiny_db("lsa")
    load_random(db, 5000, seed=12)
    db.quiesce()
    assert db.engine.n > 1  # there are internal levels to not merge in
    assert db.metrics.events.get("merge:internal", 0) == 0
    assert max_sequences_per_node(db.engine) > 1


def test_merging_levels_keep_single_sequences():
    db = IamDB("iam", engine_options=tiny_iam_options().as_lsm(),
               storage_options=tiny_storage_options())
    load_random(db, 4000, seed=1)
    db.quiesce()
    eng = db.engine
    # The LSM corner (m=1, k=1): every level merges, so every node that
    # received data holds one sequence (moves can't add sequences here).
    assert (eng.m, eng.k) == (1, 1)
    assert db.metrics.events.get("merge:internal", 0) > 0
    assert max_sequences_per_node(eng) <= 1
    db.check_invariants()


def test_mixed_level_bounds_sequences_by_k():
    db = make_tiny_db("iam", fixed_m=1, fixed_k=3)
    load_random(db, 4000, seed=2)
    eng = db.engine
    for node in eng.levels[1]:
        assert node.n_sequences <= 3
    db.check_invariants()


def _policy_debt(eng):
    """Nodes over their level's sequence bound.  Metadata-only move-downs
    can carry multi-sequence nodes into the mixed/merging levels; the rule
    merges them on their first arrival, so the count stays small."""
    return sum(node.n_sequences > (eng.k if level == eng.m else 1)
               for level in range(eng.m, eng.n + 1)
               for node in eng.levels[level])


def test_policy_debt_heals():
    db = make_tiny_db("iam", fixed_m=2, fixed_k=2)
    load_random(db, 5000, seed=3)
    debt_mid = _policy_debt(db.engine)
    load_random(db, 3000, seed=4)
    # debt may exist transiently (move-downs) but must not explode
    assert _policy_debt(db.engine) <= max(debt_mid, 5) + 10


def test_lsm_degenerate_has_higher_wa_than_lsa_degenerate():
    lsm_like = make_tiny_db("iam", fixed_m=1, fixed_k=1)
    load_random(lsm_like, 5000, seed=5)
    lsa_like = make_tiny_db("lsa")
    load_random(lsa_like, 5000, seed=5)
    assert lsm_like.write_amplification() > lsa_like.write_amplification() + 0.5


def test_larger_k_reduces_write_amplification():
    """Table 3's lever: more sequences at the mixed level, fewer merges."""
    was = {}
    for k in (1, 3):
        db = make_tiny_db("iam", fixed_m=1, fixed_k=k)
        load_random(db, 5000, seed=6)
        was[k] = db.write_amplification()
    assert was[3] < was[1]


def test_iam_between_lsa_and_lsm_in_wa():
    """Table 1: IAM's write amplification sits between LSA's and LSM-mode's."""
    results = {}
    for name, kw in [("lsa_mode", dict(fixed_m=10**9, fixed_k=1)),
                     ("iam", dict(fixed_m=2, fixed_k=2)),
                     ("lsm_mode", dict(fixed_m=1, fixed_k=1))]:
        db = make_tiny_db("iam", **kw)
        load_random(db, 6000, seed=7)
        results[name] = db.write_amplification()
    assert results["lsa_mode"] <= results["iam"] <= results["lsm_mode"]


def test_retune_runs_and_reports():
    db = make_tiny_db("iam", retune_interval=1)
    load_random(db, 3000, seed=8)
    eng = db.engine
    assert eng.m >= 1 and eng.k >= 1
    d = eng.describe()
    assert d["m"] == eng.m and d["k"] == eng.k
    assert set(d["level_classes"]) == set(range(1, eng.n + 1))


def test_bigger_cache_tunes_higher_m():
    small = make_tiny_db("iam", storage_kw=dict(page_cache_bytes=1024))
    load_random(small, 4000, seed=9)
    big = make_tiny_db("iam", storage_kw=dict(page_cache_bytes=1 << 22))
    load_random(big, 4000, seed=9)
    assert big.engine.m >= small.engine.m


def test_fixed_overrides_respected():
    db = make_tiny_db("iam", fixed_m=2, fixed_k=4, retune_interval=1)
    load_random(db, 3000, seed=10)
    assert (db.engine.m, db.engine.k) == (2, 4)


def test_forcible_caching_pins_appended_sequences():
    """§5.1.3: with pinning on, appended sequences stay memory-resident even
    under eviction pressure, so scans seek less."""
    pinned = make_tiny_db("iam", pin_appended_sequences=True, fixed_m=2,
                          fixed_k=3, storage_kw=dict(page_cache_bytes=8 * 1024))
    plain = make_tiny_db("iam", fixed_m=2, fixed_k=3,
                         storage_kw=dict(page_cache_bytes=8 * 1024))
    keys = load_random(pinned, 3000, seed=20)
    load_random(plain, 3000, seed=20)
    assert pinned.runtime.cache.pinned_blocks() > 0
    # Cold-ish scans: the pinned store needs no more seeks than the plain one.
    for db in (pinned, plain):
        db.quiesce()
    start = sorted(keys)[len(keys) // 2]
    seeks = {}
    for name, db in (("pinned", pinned), ("plain", plain)):
        before = db.metrics.query_seeks
        for _ in range(30):
            db.scan(start, None, limit=50)
        seeks[name] = db.metrics.query_seeks - before
    assert seeks["pinned"] <= seeks["plain"]


def test_pinning_released_when_sequences_merge():
    db = make_tiny_db("iam", pin_appended_sequences=True, fixed_m=1, fixed_k=2)
    load_random(db, 4000, seed=21)
    db.quiesce()
    cache = db.runtime.cache
    # Merges replaced appended sequences; pins must not accumulate without
    # bound (released on file invalidation).
    assert cache.pinned_blocks() * cache.block_size <= 4 * db.engine.options.node_capacity * 3


def test_reads_scans_correct_after_mixed_policy_churn():
    db = make_tiny_db("iam", fixed_m=1, fixed_k=2)
    rng = random.Random(11)
    ref = {}
    for _ in range(6000):
        k = rng.randrange(700)
        if rng.random() < 0.25:
            db.delete(k)
            ref.pop(k, None)
        else:
            v = rng.randrange(50, 90)
            db.put(k, v)
            ref[k] = v
    db.quiesce()
    for k in range(700):
        assert db.get(k) == ref.get(k)
    assert db.scan(None, None) == sorted(ref.items())
    db.check_invariants()
