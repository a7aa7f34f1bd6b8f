"""Property-based invariants of the device/time model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.network import NetworkOptions, SimNetwork
from repro.common.options import DeviceProfile
from repro.objstore.store import ObjStoreOptions, SimObjectStore
from repro.storage.simdisk import SimClock, SimDisk, SimResource

PROFILE = DeviceProfile("t", seek_time_s=0.01, bulk_seek_time_s=0.001,
                        read_bandwidth=1000.0, write_bandwidth=500.0)


@st.composite
def io_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["fg", "stream", "bg", "drain"]))
        nbytes = draw(st.integers(0, 5000))
        ops.append((kind, nbytes))
    return ops


@settings(max_examples=60, deadline=None)
@given(io_ops())
def test_clock_monotone_and_busy_bounded(ops):
    disk = SimDisk(PROFILE)
    last_now = 0.0
    for kind, nbytes in ops:
        if kind == "fg":
            disk.fg_io(nbytes_read=nbytes, seeks=1)
            # After a foreground op the channel frees exactly at "now".
            assert disk.busy_until == disk.clock.now
        elif kind == "stream":
            disk.fg_stream(nbytes_write=nbytes)
        elif kind == "bg":
            granted = disk.bg_grant(0.0, nbytes / 1000.0, lookahead_s=0.01)
            assert granted >= 0.0
            assert disk.busy_until <= disk.clock.now + 0.01 + 1e-12
        else:
            disk.sync_drain(nbytes / 1000.0)
            assert disk.busy_until == disk.clock.now
        assert disk.clock.now >= last_now
        last_now = disk.clock.now


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3000), st.booleans()), min_size=1,
                max_size=30))
def test_byte_counters_additive(ops):
    disk = SimDisk(PROFILE)
    expect_r = expect_w = 0
    for nbytes, is_read in ops:
        if is_read:
            disk.fg_io(nbytes_read=nbytes)
            expect_r += nbytes
        else:
            disk.fg_io(nbytes_write=nbytes)
            expect_w += nbytes
    assert disk.bytes_read == expect_r
    assert disk.bytes_written == expect_w


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0))
def test_bg_grant_never_exceeds_request_or_horizon(now, want, lookahead):
    disk = SimDisk(PROFILE)
    disk.clock.now = now
    granted = disk.bg_grant(0.0, want, lookahead)
    assert 0.0 <= granted <= want + 1e-12
    assert disk.busy_until <= now + lookahead + 1e-9


# ------------------------------------------------- the one FIFO server
# Disk, link and store queue on the same SimResource.  Each case: the service
# time of an ``n``-byte request, a foreground request, a reservation.

def _bare(clock):
    server = SimResource(clock)
    return (lambda n: n / 1000.0, lambda n: server.fg(n / 1000.0),
            lambda n: server.reserve(n / 1000.0))


def _disk(clock):
    disk = SimDisk(PROFILE, clock)
    return (lambda n: disk.io_time(nbytes_read=n, seeks=1),
            lambda n: disk.fg_io(nbytes_read=n, seeks=1),
            lambda n: disk.reserve(disk.io_time(nbytes_read=n, seeks=1)))


def _link(clock):
    net = SimNetwork(clock, NetworkOptions(latency_s=0.01, bandwidth=1000.0,
                                           rpc_bytes=8))
    return (lambda n: 0.01 + (n + 8) / 1000.0,
            lambda n: net.send(0, 1, n), lambda n: net.reserve(0, 1, n))


def _store(clock):
    store = SimObjectStore(clock, ObjStoreOptions(
        latency_s=0.02, bandwidth=2000.0, request_bytes=16))
    names = iter(range(10**6))
    return (store.service_time, lambda n: store.put(f"fg{next(names)}", n),
            lambda n: store.reserve_put(f"bg{next(names)}", n))


@pytest.mark.parametrize("make", [_bare, _disk, _link, _store])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["advance", "fg", "reserve"]),
                          st.integers(0, 5000)), min_size=1, max_size=40))
def test_every_request_is_served_fifo(make, ops):
    clock = SimClock()
    service, fg, reserve = make(clock)
    served = []  # the model: every (start, end) so far, in arrival order
    for kind, n in ops:
        now = clock.now
        if kind == "advance":
            clock.advance(n / 1000.0)
            continue
        start = max([now] + [end for _, end in served])
        end = start + service(n)
        served.append((start, end))
        if kind == "fg":
            result = fg(n)  # elapsed, or (elapsed, queued)
            assert result in (end - now, (end - now, start - now))
            assert clock.now == end
        else:
            assert reserve(n) == end - now
            assert clock.now == now
