"""Runtime charging conventions: query reads, compaction I/O, files."""

import pytest

from repro.common.options import DeviceProfile, StorageOptions
from repro.storage.runtime import Runtime

PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1000.0, write_bandwidth=1000.0)


def make_runtime(cache_bytes=10 * 256) -> Runtime:
    return Runtime(StorageOptions(device=PROFILE, page_cache_bytes=cache_bytes,
                                  block_size=256))


def test_fg_read_blocks_charges_one_seek_per_run():
    rt = make_runtime(cache_bytes=0)
    lat = rt.fg_read_blocks(1, [0, 1, 2])  # one consecutive run
    assert lat == pytest.approx(0.01 + 3 * 256 / 1000.0)
    assert rt.metrics.query_seeks == 1
    lat = rt.fg_read_blocks(1, [5, 7])  # two runs
    assert lat == pytest.approx(2 * 0.01 + 2 * 256 / 1000.0)
    assert rt.metrics.query_seeks == 3


def test_fg_read_blocks_cache_hits_are_free():
    rt = make_runtime()
    rt.cache.insert_range(1, 0, 3)
    lat = rt.fg_read_blocks(1, [0, 1, 2])
    assert lat == 0.0
    assert rt.metrics.cache_hits == 3
    assert rt.metrics.query_seeks == 0


def test_fg_read_blocks_partial_miss():
    rt = make_runtime()
    rt.cache.insert(1, 1)
    rt.fg_read_blocks(1, [0, 1, 2])
    assert rt.metrics.cache_hits == 1
    assert rt.metrics.cache_misses == 2
    assert rt.metrics.query_seeks == 2  # blocks 0 and 2 are separate runs
    # missed blocks are now resident
    assert rt.cache.contains(1, 0) and rt.cache.contains(1, 2)


def test_bg_write_run_accounting():
    rt = make_runtime()
    f = rt.create_file()
    debt = rt.bg_write_run(f, 512, level=3, first_block=0)
    assert debt == pytest.approx(0.001 + 512 / 1000.0)
    assert f.nbytes == 512
    assert rt.metrics.level_write_bytes[3] == 512
    assert rt.cache.contains(f.file_id, 0) and rt.cache.contains(f.file_id, 1)
    assert rt.bg_write_run(f, 0, level=3) == 0.0


def test_bg_write_run_explicit_cache_blocks():
    rt = make_runtime()
    f = rt.create_file()
    rt.bg_write_run(f, 1024, level=1, first_block=4, n_cache_blocks=2)
    assert rt.cache.contains(f.file_id, 4)
    assert rt.cache.contains(f.file_id, 5)
    assert not rt.cache.contains(f.file_id, 6)


def test_bg_read_run_resident_discount():
    rt = make_runtime()
    full = rt.bg_read_run(1, 1000)
    assert full == pytest.approx(0.001 + 1.0)
    none = rt.bg_read_run(1, 1000, resident_bytes=1000)
    assert none == 0.0
    part = rt.bg_read_run(1, 1000, resident_bytes=400)
    assert part == pytest.approx(0.001 + 0.6)
    assert rt.metrics.compaction_read_bytes == 3000


def test_delete_file_invalidates_cache():
    rt = make_runtime()
    f = rt.create_file()
    rt.bg_write_run(f, 512, level=1)
    assert rt.cache.resident_blocks(f.file_id) == 2
    rt.delete_file(f)
    assert rt.cache.resident_blocks(f.file_id) == 0
    assert rt.space_used_bytes() == 0


def test_stall_on_records_event():
    rt = make_runtime()
    job = rt.submit_job("j", lambda: 1.0)
    elapsed = rt.stall_on(job, "test")
    assert elapsed == pytest.approx(1.0)
    assert rt.metrics.events["stall:test"] == 1
    # waiting again is free and does not double count
    assert rt.stall_on(job, "test") == 0.0
    assert rt.metrics.events["stall:test"] == 1


def test_quiesce_drains_everything():
    rt = make_runtime()
    rt.submit_job("a", lambda: 2.0)
    rt.submit_job("b", lambda: 1.0)
    rt.quiesce()
    assert not rt.pool.busy
