"""Runtime charging conventions: query reads, compaction I/O, files."""

import copy

import pytest

from repro.common.options import DeviceProfile, StorageOptions
from repro.storage.runtime import Runtime
from repro.storage.simdisk import SimDisk

PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1000.0, write_bandwidth=1000.0)


def make_runtime(cache_bytes=10 * 256) -> Runtime:
    return Runtime(StorageOptions(device=PROFILE, page_cache_bytes=cache_bytes,
                                  block_size=256))


def test_fg_read_blocks_charges_one_seek_per_run():
    rt = make_runtime()
    rt.cache.insert(1, 6)
    lat = rt.fg_read_blocks(((1, range(0, 3)),))  # one consecutive run
    assert lat == pytest.approx(0.01 + 3 * 256 / 1000.0)
    assert rt.metrics.query_seeks == 1
    lat = rt.fg_read_blocks(((1, range(5, 8)),))  # two runs: block 6 is resident
    assert lat == pytest.approx(2 * 0.01 + 2 * 256 / 1000.0)
    assert rt.metrics.query_seeks == 3


def test_fg_read_blocks_cache_hits_are_free():
    rt = make_runtime()
    rt.cache.insert_many(1, range(3))
    lat = rt.fg_read_blocks(((1, range(0, 3)),))
    assert lat == 0.0
    assert rt.metrics.cache_hits == 3
    assert rt.metrics.query_seeks == 0


def test_fg_read_blocks_partial_miss():
    rt = make_runtime()
    rt.cache.insert(1, 1)
    lat = rt.fg_read_blocks(((1, range(0, 3)),))  # a resident block between
    assert lat == pytest.approx(2 * 0.01 + 2 * 256 / 1000.0)
    assert rt.metrics.cache_hits == 1
    assert rt.metrics.cache_misses == 2
    assert rt.metrics.query_seeks == 2  # blocks 0 and 2 are separate runs
    # missed blocks are now resident, admitted after the touched hit
    assert list(rt.cache._lru) == [(1, 1), (1, 0), (1, 2)]


def _traced_runtime(cache_blocks):
    rt = make_runtime(cache_bytes=cache_blocks * 256)
    instants = []
    rt.cache.on_evictions = lambda n: instants.append((rt.clock.now, n))
    return rt, instants


def _observed(rt, instants):
    m = rt.metrics
    return (rt.clock.now, m.query_seeks, m.cache_hits, m.cache_misses,
            list(rt.cache._lru), rt.cache.insertions, rt.cache.evictions,
            instants)


@pytest.mark.parametrize("cache_blocks,reads", [
    # Partial-miss runs among hits and misses of two files; nothing evicted.
    (16, [(1, range(0, 4)), (2, range(2, 5)), (1, range(3, 8)),
          (2, range(0, 2))]),
    # Runs that evict what earlier runs admitted and touched.
    (8, [(1, range(0, 6)), (2, range(0, 6)), (1, range(4, 9)),
         (3, range(1, 3)), (2, range(3, 7))]),
], ids=["partial-miss", "evicting"])
def test_one_request_equals_its_runs_one_call_each(cache_blocks, reads):
    # One fg_read_blocks over k runs is the k one-run calls it replaces:
    # same clock, query counters, LRU order, and eviction instants stamped
    # at the same times (each run is touched, filled, then admitted).
    observed = []
    for batched in (True, False):
        rt, instants = _traced_runtime(cache_blocks)
        rt.cache.insert_many(1, range(2, 5))  # residents inside the first run
        rt.cache.insert(2, 3)
        if batched:
            elapsed = rt.fg_read_blocks(reads)
        else:
            elapsed = sum(rt.fg_read_blocks((run,)) for run in reads)
        observed.append((elapsed, _observed(rt, instants)))
    (lat_one, one), (lat_each, each) = observed
    assert one == each
    assert lat_one == pytest.approx(lat_each)
    _, seeks, hits, _, _, _, evictions, instants = one
    assert seeks > len(reads) and hits > 0  # a run with a resident block
    assert (evictions > 0) == (cache_blocks == 8) == bool(instants)


def test_evictions_are_stamped_after_the_fill():
    # touch -> fill -> admit: the admission's evictions happen at the clock
    # the fill left, not at the request's start.
    rt, instants = _traced_runtime(cache_blocks=2)
    rt.cache.insert_many(9, range(2))
    lat = rt.fg_read_blocks(((1, range(0, 2)),))
    assert lat > 0.0 and instants == [(lat, 1), (lat, 1)]


def test_a_query_fill_is_looked_up_per_request(monkeypatch):
    # The fill is the disk's fg_io as it is when the request runs: a class
    # patch made after the runtime was built (the ledger's probe) sees each
    # run's fetch.  The second one raises: the first run's misses are in,
    # the second run's hit is promoted, and no query counter settles.
    rt = make_runtime()
    rt.cache.insert(2, 1)
    seen = []

    def fg_io(disk, **kw):
        seen.append((disk, kw))
        if len(seen) == 2:
            raise OSError("fill failed")
        return 1.0
    monkeypatch.setattr(SimDisk, "fg_io", fg_io)
    with pytest.raises(OSError):
        rt.fg_read_blocks(((1, range(0, 2)), (2, range(0, 3)), (3, range(0, 2))))
    assert seen == [(rt.disk, {"nbytes_read": 2 * 256, "seeks": 1}),
                    (rt.disk, {"nbytes_read": 2 * 256, "seeks": 2})]
    m = rt.metrics
    assert (m.query_seeks, m.cache_hits, m.cache_misses) == (0, 0, 0)
    assert list(rt.cache._lru) == [(1, 0), (1, 1), (2, 1)]


def test_a_deep_copied_runtime_charges_its_own_disk():
    rt = make_runtime()
    twin = copy.deepcopy(rt)
    lat = twin.fg_read_blocks(((1, range(0, 3)),))
    assert lat == pytest.approx(0.01 + 3 * 256 / 1000.0)
    assert (twin.disk.bytes_read, twin.clock.now) == (3 * 256, lat)
    assert (rt.disk.bytes_read, rt.clock.now, len(rt.cache)) == (0, 0.0, 0)


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
