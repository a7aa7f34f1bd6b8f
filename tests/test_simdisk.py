"""Simulated device: time accounting, queueing, files and space."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.options import DeviceProfile
from repro.storage.simdisk import SimClock, SimDisk

PROFILE = DeviceProfile("test", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1000.0, write_bandwidth=500.0)


@pytest.fixture
def disk() -> SimDisk:
    return SimDisk(PROFILE)


def test_clock_advances_monotonically():
    c = SimClock()
    c.advance(1.5)
    assert c.now == 1.5
    with pytest.raises(InvariantViolation):
        c.advance(-0.1)


def test_io_time_components(disk):
    assert disk.io_time(nbytes_read=1000) == pytest.approx(1.0)
    assert disk.io_time(nbytes_write=500) == pytest.approx(1.0)
    assert disk.io_time(seeks=2) == pytest.approx(0.02)
    assert disk.io_time(bulk_seeks=3) == pytest.approx(0.003)
    assert disk.io_time(nbytes_read=1000, seeks=1) == pytest.approx(1.01)


def test_fg_io_advances_clock_and_counts(disk):
    lat = disk.fg_io(nbytes_read=1000, seeks=1)
    assert lat == pytest.approx(1.01)
    assert disk.clock.now == pytest.approx(1.01)
    assert disk.bytes_read == 1000
    assert disk.read_ops == 1
    assert disk.seeks == 1


def test_fg_io_queues_behind_busy_channel(disk):
    disk.busy_until = 5.0  # committed background work
    lat = disk.fg_io(nbytes_write=500)
    assert lat == pytest.approx(5.0 + 1.0)  # waits, then service
    assert disk.clock.now == pytest.approx(6.0)


def test_fg_stream_does_not_queue(disk):
    disk.busy_until = 5.0
    f = disk.create_file()
    lat = disk.fg_stream(f, nbytes_write=500)
    assert lat == pytest.approx(1.0)
    assert disk.clock.now == pytest.approx(1.0)
    assert disk.busy_until == 5.0  # untouched
    assert f.nbytes == disk.live_bytes == disk.bytes_written == 500


def test_bg_grant_respects_not_before_and_now(disk):
    disk.clock.now = 10.0
    granted = disk.bg_grant(not_before=4.0, want_s=100.0)
    assert granted == pytest.approx(6.0)  # [4, 10]
    assert disk.busy_until == pytest.approx(10.0)
    assert disk.bg_grant(not_before=0.0, want_s=1.0) == 0.0  # channel full


def test_bg_grant_lookahead_extends_horizon(disk):
    disk.clock.now = 1.0
    disk.busy_until = 1.0
    granted = disk.bg_grant(not_before=0.0, want_s=10.0, lookahead_s=0.5)
    assert granted == pytest.approx(0.5)
    assert disk.busy_until == pytest.approx(1.5)


def test_bg_grant_cannot_run_before_submission(disk):
    disk.clock.now = 10.0
    granted = disk.bg_grant(not_before=9.5, want_s=100.0)
    assert granted == pytest.approx(0.5)


@pytest.mark.parametrize("want_s", [0.0, -0.25, float("nan")])
def test_bg_grant_of_nothing_or_less_leaves_the_channel_alone(disk, want_s):
    # A zero ask used to mark [busy_until, not_before) busy, and a negative
    # one to move busy_until back (to -0.25 here); both now refuse.
    disk.clock.now = 1.0
    if want_s == 0.0:
        assert disk.bg_grant(0.6, want_s) == 0.0
    else:
        with pytest.raises(InvariantViolation, match="device-time"):
            disk.bg_grant(0.6, want_s)
    assert disk.busy_until == 0.0


def test_sync_drain_jumps_clock(disk):
    disk.clock.now = 2.0
    disk.busy_until = 3.0
    elapsed = disk.sync_drain(1.0)
    assert elapsed == pytest.approx(2.0)  # waited 1.0 + worked 1.0
    assert disk.clock.now == pytest.approx(4.0)
    with pytest.raises(InvariantViolation):
        disk.sync_drain(-1.0)


def test_file_lifecycle_and_space(disk):
    f = disk.create_file()
    f.grow(100)
    g = disk.create_file()
    g.grow(50)
    assert disk.live_bytes == 150
    disk.delete_file(f)
    assert disk.live_bytes == 50
    assert f.file_id not in disk.files
    disk.delete_file(f)  # idempotent
    assert disk.live_bytes == 50
    with pytest.raises(InvariantViolation):
        f.grow(10)


def test_file_ids_unique(disk):
    ids = {disk.create_file().file_id for _ in range(10)}
    assert len(ids) == 10


@pytest.mark.parametrize("profile", [
    PROFILE,
    DeviceProfile("ssd", seek_time_s=1e-4, bulk_seek_time_s=2e-5,
                  read_bandwidth=550e6, write_bandwidth=520e6 / 3),
    DeviceProfile("zero", seek_time_s=0.0, bulk_seek_time_s=0.0,
                  read_bandwidth=1.0, write_bandwidth=7.0)])
def test_bg_append_is_grow_count_and_io_time_bit_for_bit(profile):
    # One background table append was SimFile.grow + bg_count(nbytes_write=n,
    # seeks=1) + io_time(nbytes_write=n, bulk_seeks=1); now it is one call.
    one, split = SimDisk(profile), SimDisk(profile)
    f, g = one.create_file(), split.create_file()
    for n in (1, 4096, 12_345, 3 * 2**20 + 17):
        debt = one.bg_append(f, n)
        g.grow(n)
        split.bg_count(nbytes_write=n, seeks=1)
        assert debt.hex() == split.io_time(nbytes_write=n, bulk_seeks=1).hex()
    assert [f.nbytes, one.live_bytes, one.bytes_written, one.write_ops, one.seeks] \
        == [g.nbytes, split.live_bytes, split.bytes_written, split.write_ops, split.seeks]
    assert one.clock.now == one.busy_until == 0.0  # debt only: no time moves


@pytest.mark.parametrize("write", [
    lambda disk, f, n: disk.fg_stream(f, nbytes_write=n),
    lambda disk, f, n: disk.bg_append(f, n)], ids=["fg_stream", "bg_append"])
def test_a_growing_disk_call_keeps_the_file_lifecycle_checks(disk, write):
    f = disk.create_file()
    for n, deleted in ((-1, False), (10, True)):
        if deleted:
            disk.delete_file(f)
        with pytest.raises(InvariantViolation) as err:
            write(disk, f, n)
        assert err.value.diagnostic.check == "file-lifecycle"
    assert [disk.clock.now, disk.live_bytes, disk.bytes_written, disk.write_ops] \
        == [0.0, 0, 0, 0]


def test_fg_stream_runs_the_fault_hook_after_growing_the_file(disk):
    seen = []

    class Hook:
        def on_foreground_request(self, clock):
            seen.append((clock.now, f.nbytes))
            clock.now += 0.5  # a retried attempt's backoff

    f = disk.create_file()
    disk.faults = Hook()
    assert disk.fg_stream(f, nbytes_write=500) == pytest.approx(1.0)
    assert seen == [(0.0, 500)] and disk.clock.now == pytest.approx(1.5)
