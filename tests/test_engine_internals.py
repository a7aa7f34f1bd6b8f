"""Cross-checks of engine internals: pool edges, level searches, describe."""

import random

import pytest

from repro.common.records import KEY, make_delete, make_put
from repro.storage.background import BackgroundPool
from repro.storage.simdisk import SimDisk
from repro.common.options import DeviceProfile
from repro.core.engine import EngineBase
from repro.table.run import Run
from tests.conftest import make_tiny_db
from tests.frozen_kernels import frozen_gather_merge

PROFILE = DeviceProfile("t", 0.0, 0.0, 1e6, 1e6)


def test_pool_handles_job_submitted_from_callback():
    """on_complete may submit follow-up work (the flush->checkpoint chain)."""
    disk = SimDisk(PROFILE)
    pool = BackgroundPool(disk, 1)
    done = []

    def chain():
        pool.submit("second", lambda: 1.0, on_complete=lambda: done.append(2))

    pool.submit("first", lambda: 1.0, on_complete=chain)
    pool.drain_all()
    assert done == [2]


def test_gather_merge_is_the_inline_code_it_replaced():
    """Multi-sequence table, one live snapshot, file partly cache-resident:
    equal run columns, equal float debt, equal compaction-read accounting."""
    results = []
    for gather in (frozen_gather_merge, EngineBase._gather_merge):
        db = make_tiny_db("iam", storage_kw=dict(page_cache_bytes=4 * 256))
        engine = db.engine
        engine.snapshots_provider = lambda: (150,)
        table = engine._new_table()
        for base in (100, 200, 300):  # the later sequences evict the first
            table.append_sequence(Run.from_records(
                [make_put(k, base + k, 64) for k in range(40)]), level=1)
        assert 0 < table.resident_bytes() < table.data_bytes
        part = Run.from_records([make_delete(3, 400), make_put(7, 401, 64)])
        merged, debt = gather(engine, [table], part, drop_tombstones=True)
        assert debt > 0.0 and merged.n > 40  # the snapshot keeps old versions
        columns = [getattr(merged, c).tolist() for c in ("keys", "seqs", "kinds", "sizes")]
        results.append((columns, debt, db.metrics.compaction_read_bytes))
    assert results[0] == results[1]


@pytest.mark.parametrize("engine", ["iam", "leveldb"])
def test_describe_is_json_like(engine):
    import json
    db = make_tiny_db(engine)
    rng = random.Random(5)
    for _ in range(1500):
        db.put(rng.randrange(1 << 20), 64)
    db.flush()
    d = db.engine.describe()
    json.dumps(d)  # must be serializable (report-friendly)
    assert d["engine"] == db.engine.name


def test_leveldb_find_table_bisect():
    db = make_tiny_db("leveldb")
    for k in range(3000):
        db.put(k, 64)
    db.quiesce()
    eng = db.engine
    deep = max(lvl for lvl in range(1, eng.options.max_levels)
               if eng.levels[lvl])
    tables = eng.levels[deep]
    assert len(tables) >= 2
    for t in tables:
        assert eng._find_table(deep, t.min_key) is t
        assert eng._find_table(deep, t.max_key) is t
    below = tables[0].min_key - 1
    found = eng._find_table(deep, below)
    assert found is None or (found.min_key <= below <= found.max_key)


def test_lsm_split_records_never_splits_key_versions():
    from repro.common.records import make_put
    from repro.table.run import Run, split_run
    recs = []
    seq = 1000
    for k in range(20):
        for _ in range(3):  # three versions per key
            recs.append(make_put(k, seq, 64))
            seq -= 1
    recs.sort(key=lambda r: (r[0], -r[1]))
    chunks = [c.records() for c in split_run(Run.from_records(recs), 8, 300)]
    assert len(chunks) > 1
    for a, b in zip(chunks, chunks[1:]):
        assert a[-1][KEY] != b[0][KEY]
    assert sum(len(c) for c in chunks) == len(recs)
