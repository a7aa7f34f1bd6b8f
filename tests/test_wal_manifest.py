"""Write-ahead log and manifest."""

import pytest

from repro.common.options import StorageOptions
from repro.common.records import encoded_size, make_delete, make_put
from repro.storage.manifest import Manifest
from repro.storage.runtime import Runtime
from repro.storage.wal import WriteAheadLog

KEY_SIZE = 8


@pytest.fixture
def runtime() -> Runtime:
    return Runtime(StorageOptions(page_cache_bytes=0, block_size=256))


def test_append_accounts_bytes_and_advances_clock(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    rec = make_put(1, 1, 100)
    lat = wal.append(rec)
    assert lat > 0.0
    assert wal.nbytes == encoded_size(rec, KEY_SIZE)
    assert runtime.metrics.wal_bytes == wal.nbytes
    assert len(wal) == 1


def test_wal_bytes_excluded_from_write_amplification(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    runtime.metrics.add_user_bytes(100)
    wal.append(make_put(1, 1, 100))
    assert runtime.metrics.write_amplification() == 0.0
    assert runtime.metrics.write_amplification(include_wal=True) > 0.0


def test_truncate_through_drops_prefix(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    for seq in range(1, 6):
        wal.append(make_put(seq, seq, 10))
    wal.truncate_through(3)
    remaining = wal.replay()
    assert [r[1] for r in remaining] == [4, 5]
    assert wal.nbytes == sum(encoded_size(r, KEY_SIZE) for r in remaining)


def test_replay_preserves_order_and_kinds(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    recs = [make_put(5, 1, 10), make_delete(5, 2), make_put(1, 3, 20)]
    for r in recs:
        wal.append(r)
    assert wal.replay() == recs


def test_truncate_frees_space(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    for seq in range(1, 11):
        wal.append(make_put(seq, seq, 100))
    before = runtime.space_used_bytes()
    wal.truncate_through(10)
    assert runtime.space_used_bytes() < before
    assert wal.replay() == []


def test_append_many_single_run(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    recs = [make_put(i, i + 1, 50) for i in range(10)]
    ops_before = runtime.disk.write_ops
    lat = wal.append_many(recs)
    assert lat > 0.0
    assert runtime.disk.write_ops == ops_before + 1  # one device run
    assert wal.replay() == recs
    assert wal.append_many([]) == 0.0


def test_manifest_checkpoint_roundtrip(runtime):
    m = Manifest(runtime)
    assert m.restore() is None
    state = {"levels": [1, 2, 3]}
    m.checkpoint(state)
    assert m.restore() == state


def test_truncate_charges_suffix_rewrite(runtime):
    # Regression: the suffix rewrite used to be free I/O -- bytes moved to a
    # fresh file with no device time and no WAL-byte accounting.
    wal = WriteAheadLog(runtime, KEY_SIZE)
    for seq in range(1, 6):
        wal.append(make_put(seq, seq, 10))
    bytes_before = runtime.metrics.wal_bytes
    ops_before = runtime.disk.write_ops
    clock_before = runtime.clock.now
    lat = wal.truncate_through(3)
    remaining = sum(encoded_size(r, KEY_SIZE) for r in wal.replay())
    assert remaining > 0
    assert lat > 0.0
    assert runtime.clock.now == pytest.approx(clock_before + lat)
    assert runtime.metrics.wal_bytes == bytes_before + remaining
    assert runtime.disk.write_ops == ops_before + 1


def test_truncate_to_empty_charges_nothing(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    for seq in range(1, 4):
        wal.append(make_put(seq, seq, 10))
    bytes_before = runtime.metrics.wal_bytes
    clock_before = runtime.clock.now
    assert wal.truncate_through(3) == 0.0
    assert runtime.metrics.wal_bytes == bytes_before
    assert runtime.clock.now == clock_before
    assert wal.replay() == []


def test_tear_snaps_to_group_commit_boundary(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    wal.append(make_put(1, 1, 10))
    wal.append(make_put(2, 2, 10))
    wal.append_many([make_put(10 + i, 3 + i, 10) for i in range(4)])  # seqs 3-6
    # Tearing one record may not split the batch: the whole group goes.
    dropped = wal.tear(1)
    assert dropped == 4
    assert [r[1] for r in wal.replay()] == [1, 2]


def test_tear_is_uncharged_and_bounded(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    for seq in range(1, 6):
        wal.append(make_put(seq, seq, 10))
    bytes_before = runtime.metrics.wal_bytes
    clock_before = runtime.clock.now
    assert wal.tear(0) == 0
    assert wal.tear(100) == 5  # over-asking drops everything there is
    assert wal.replay() == []
    assert wal.tear(1) == 0  # nothing left
    assert runtime.metrics.wal_bytes == bytes_before  # crash writes nothing
    assert runtime.clock.now == clock_before
    assert wal.nbytes == 0


def test_tear_then_append_keeps_boundaries(runtime):
    wal = WriteAheadLog(runtime, KEY_SIZE)
    wal.append_many([make_put(i, 1 + i, 10) for i in range(3)])  # seqs 1-3
    wal.append(make_put(9, 4, 10))
    wal.tear(1)  # drops seq 4, keeps the batch
    wal.append(make_put(10, 4, 10))  # reissued seq
    assert wal.tear(1) == 1  # the new record tears off alone
    assert [r[1] for r in wal.replay()] == [1, 2, 3]


def test_manifest_checkpoint_is_immune_to_later_mutation():
    # The checkpoint contract: engines hand over *owned* pure-data
    # snapshots, so structural churn after the checkpoint must not leak
    # into what restore() returns.
    from tests.conftest import make_tiny_db

    db = make_tiny_db("iam")
    for i in range(400):
        db.put(i % 150, 40)
    db.flush()

    def shape(state):
        nodes = []
        for level in state["engine"]["levels"]:
            nodes.append([(lo, hi, None if snap is None else
                           (snap[2], len(snap[3]))) for lo, hi, snap in level])
        return (state["seq"], state["engine"]["n"], nodes)

    held = db.manifest.restore()
    before = shape(held)
    for i in range(3000):  # splits, combines, merges, more checkpoints
        db.put((i * 7) % 800, 40)
    db.quiesce()
    assert shape(held) == before
