"""Reads pay for what they touch, not for how wide a level is.

The paper's range-query cost is levels x sequences-per-node (§5.2/§5.3.2):
a scan seeks once per sorted sequence in the covering node of each level,
whatever the number of nodes beside it.  The host-side walk must have the
same shape, so this guard widens the leaf level fourfold -- leaving the low
end of the key space untouched -- and counts Python calls (``cProfile``, so
the figure repeats to the digit) for one limit-bounded open-ended scan and
one point read at that low end.

Inside a node likewise: a sequence whose range or Bloom filter rejects the
key costs a point read no Python call, and one get derives one hash pair.
"""

import cProfile
import gc
import random

import pytest

from repro.common.records import make_put
from repro.filters.bloom import hash_pair
from repro.table.run import Run
from tests.conftest import make_tiny_db
from tests.test_lsmtrie import make_trie_db


def _store(widen):
    """A quiesced IAM store; ``widen`` grafts three more leaf levels' worth
    of nodes beyond its largest key, so the leaf level holds N vs 4N nodes
    over an identical low end."""
    db = make_tiny_db("iam")
    rng = random.Random(23)
    for _ in range(1500):
        db.put(rng.randrange(1 << 20), 40)
    db.quiesce()
    eng = db.engine
    leaf = eng.levels[eng.n]
    n_leaf = len(leaf)
    if widen:
        seq = db._seq
        base = 1 << 21
        for j in range(3 * n_leaf):
            run = [make_put(base + 100 * j + i, seq + 8 * j + i + 1, 40)
                   for i in range(8)]
            eng._create_node_from_run(eng.n, Run.from_records(run))
        assert len(leaf) == 4 * n_leaf
    db.check_invariants()
    return db, n_leaf


def _calls(fn):
    fn()  # warm the page cache
    profiler = cProfile.Profile()
    gc.disable()  # hypothesis hooks gc.callbacks: a collection would be counted
    try:
        profiler.enable()
        fn()
        profiler.disable()
    finally:
        gc.enable()
    return sum(entry.callcount for entry in profiler.getstats())


def test_calls_per_read_do_not_grow_with_level_width():
    narrow, n_leaf = _store(widen=False)
    wide, _ = _store(widen=True)
    assert n_leaf >= 20
    key = narrow.engine.levels[narrow.engine.n][0].table.min_key
    assert narrow.scan(0, None, limit=10) == wide.scan(0, None, limit=10)
    assert narrow.get(key) == wide.get(key) == 40
    for read in (lambda db: db.scan(0, None, limit=10),
                 lambda db: db.get(key)):
        few = _calls(lambda: read(narrow))
        many = _calls(lambda: read(wide))
        assert abs(many - few) < 0.10 * few, (few, many)


@pytest.mark.parametrize("limit,ceiling", [(10, 450), (100, 580)])
def test_calls_per_scan_budget(limit, ceiling):
    # The planner visits each sequence component once before the sort and
    # derives its charges in Python ints (361 / 466 calls here; the
    # three-pass planner it replaced took 649 / 841).
    db, _ = _store(widen=False)
    assert len(db.scan(0, None, limit=limit)) == limit
    assert _calls(lambda: db.scan(0, None, limit=limit)) <= ceiling


def test_multi_get_costs_the_get_loop_plus_a_constant():
    # multi_get *is* the get loop; a batch path must beat the loop to get in.
    db, _ = _store(widen=False)
    rng = random.Random(5)
    keys = [rng.randrange(1 << 20) for _ in range(64)]

    def extra(batch):
        return (_calls(lambda: db.multi_get(batch))
                - _calls(lambda: [db.get(k) for k in batch]))
    assert extra(keys) == extra(keys[:4]) <= 4


def test_rejected_sequences_add_no_calls_to_a_point_read():
    db, _ = _store(widen=False)
    table = db.engine.levels[db.engine.n][0].table
    below, key, above = sorted(table.sequences[0].key_view)[1:4]
    m = db.metrics

    def probed_get():
        before = m.bloom_probes, m.bloom_negatives
        assert db.get(key) == 40
        return m.bloom_probes - before[0], m.bloom_negatives - before[1]
    probes, negatives = probed_get()
    hit = _calls(lambda: db.get(key))
    assert hit <= 44
    # Four newer sequences in the key's own leaf node: two whose range lies
    # past the key, two that straddle it without holding it.
    for keys in [(above,), (above, above + 1), (below, above), (below, above + 1)]:
        table.append_sequence(Run.from_records(
            [make_put(k, db._seq + 1, 41) for k in keys]), level=db.engine.n)
    assert probed_get() == (probes + 2, negatives + 2)
    assert _calls(lambda: db.get(key)) == hit


@pytest.mark.parametrize("engine", ["iam", "lsa", "leveldb", "flsm", "lsmtrie"])
def test_one_bloom_hash_per_get(engine):
    db = make_trie_db() if engine == "lsmtrie" else make_tiny_db(engine)
    keys = random.Random(23).sample(range(1 << 20), 1500)
    for key in keys:
        db.put(key, 40)
    db.quiesce()
    probes = db.metrics.bloom_probes
    profiler = cProfile.Profile()
    profiler.enable()
    assert [db.get(key) for key in keys[:50]] == [40] * 50
    profiler.disable()
    assert db.metrics.bloom_probes - probes > 50  # some get probed twice
    assert [entry.callcount for entry in profiler.getstats()
            if entry.code is hash_pair.__code__] == [50]
