"""Virtual clock, the one FIFO server, and the simulated block device.

:class:`SimResource` is how every piece of simulated hardware queues: one
channel on the shared clock, committed through ``busy_until``.  A request
starts at ``max(now, busy_until)``; the gap is its queueing delay.  ``fg`` is
a request the caller waits for (the clock moves to its end); ``reserve``
leaves the clock alone and returns the tail a background job owes.  Disk,
network link and object store are this server plus a *cost model* -- bytes to
service seconds, counters, files / objects (DESIGN.md "Simulated hardware").

The disk's model is the two parameters the paper's analysis depends on: seek
cost and sequential bandwidth (§2.1: LSM substitutes sequential I/O for random
I/O).  The disk is also the one resource asked for *past-idle* time
(:meth:`SimDisk.bg_grant`, see :mod:`repro.storage.background`): background
work fills the channel only up to "now" plus a bounded lookahead, so it never
starves foreground traffic but does push ``busy_until`` forward and delay it
-- the paper's "writes might saturate disk bandwidth and block user queries".

Space accounting is separate from time: :class:`SimFile` tracks live bytes
(MSTable holes are sparse and cost nothing, §4.1).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.check.diagnostics import invariant_error
from repro.common.options import DeviceProfile


class SimClock:
    """Monotonic virtual clock shared by one DB instance."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise invariant_error("clock-monotonic",
                                  "clock cannot go backwards", dt=dt)
        self.now += dt


class SimResource:
    """One FIFO server on the shared clock: a channel busy through
    ``busy_until``.  The only code that queues a request on a horizon."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        #: Timestamp until which the channel is committed.
        self.busy_until = 0.0

    def fg(self, service_s: float) -> Tuple[float, float]:
        """Serve a request the caller waits for (the clock moves to its
        end); returns ``(elapsed, queued)``."""
        clock = self.clock
        now = clock.now
        start = self.busy_until
        if start < now:
            start = now
        end = start + service_s
        self.busy_until = end
        clock.now = end
        return end - now, start - now

    def reserve(self, service_s: float) -> float:
        """Queue a background request; returns its tail, clock untouched."""
        now = self.clock.now
        start = self.busy_until
        if start < now:
            start = now
        end = start + service_s
        self.busy_until = end
        return end - now


class SimFile:
    """A file on the simulated device.  Tracks live bytes only."""

    __slots__ = ("file_id", "nbytes", "deleted", "_disk")

    def __init__(self, file_id: int, disk: "SimDisk") -> None:
        self.file_id = file_id
        self.nbytes = 0
        self.deleted = False
        self._disk = disk

    def grow(self, nbytes: int) -> None:
        """Add live bytes to the file (space accounting only)."""
        if self.deleted:
            raise invariant_error("file-lifecycle", "grow on a deleted file",
                                  file=self.file_id, nbytes=nbytes)
        if nbytes < 0:
            raise invariant_error("file-lifecycle", "file growth must be >= 0",
                                  file=self.file_id, nbytes=nbytes)
        self.nbytes += nbytes
        self._disk.live_bytes += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimFile(id={self.file_id}, nbytes={self.nbytes})"


class SimDisk(SimResource):
    """The simulated device: seek + bandwidth cost model, byte counters and
    file space on one :class:`SimResource` channel."""

    def __init__(self, profile: DeviceProfile, clock: Optional[SimClock] = None) -> None:
        super().__init__(clock if clock is not None else SimClock())
        self.profile = profile
        self.files: Dict[int, SimFile] = {}
        self._next_file_id = 1
        #: Optional fault injector (repro.faults.plan.FaultInjector); when set,
        #: every foreground request first runs its retry loop.
        self.faults: Optional[object] = None
        #: Total live bytes across all files (space-usage numerator).
        self.live_bytes = 0
        # Device counters.
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.seeks = 0

    # ------------------------------------------------------------------ files
    def create_file(self) -> SimFile:
        f = SimFile(self._next_file_id, self)
        self.files[f.file_id] = f
        self._next_file_id += 1
        return f

    def delete_file(self, f: SimFile) -> None:
        if f.deleted:
            return
        f.deleted = True
        self.live_bytes -= f.nbytes
        del self.files[f.file_id]

    # ------------------------------------------------------------- io costing
    def io_time(self, *, nbytes_read: int = 0, nbytes_write: int = 0,
                seeks: int = 0, bulk_seeks: int = 0) -> float:
        """Device service time for a batch of I/O.

        ``seeks`` are query-path random I/Os; ``bulk_seeks`` are the cheaper
        run repositionings of flush/compaction streams (see DeviceProfile).
        """
        t = seeks * self.profile.seek_time_s + bulk_seeks * self.profile.bulk_seek_time_s
        if nbytes_read:
            t += nbytes_read / self.profile.read_bandwidth
        if nbytes_write:
            t += nbytes_write / self.profile.write_bandwidth
        return t

    def _count(self, nbytes_read: int, nbytes_write: int, seeks: int) -> None:
        if nbytes_read:
            self.bytes_read += nbytes_read
            self.read_ops += 1
        if nbytes_write:
            self.bytes_written += nbytes_write
            self.write_ops += 1
        self.seeks += seeks

    # ------------------------------------------------------------- foreground
    def fg_io(self, *, nbytes_read: int = 0, nbytes_write: int = 0, seeks: int = 0) -> float:
        """Perform foreground I/O: wait for the channel, advance the clock.

        Returns the elapsed simulated time (queueing delay + service).
        """
        if self.faults is not None:
            self.faults.on_foreground_request(self.clock)  # type: ignore[attr-defined]
        elapsed = self.fg(self.io_time(
            nbytes_read=nbytes_read, nbytes_write=nbytes_write, seeks=seeks))[0]
        self._count(nbytes_read, nbytes_write, seeks)
        return elapsed

    def fg_stream(self, *, nbytes_write: int) -> float:
        """Foreground *streaming* write: paced by bandwidth, not queued.

        Models buffered sequential writes (the WAL: absorbed by the page
        cache and streamed out, never waiting behind compaction I/O).  The
        clock advances by the transfer time only; ``busy_until`` is not
        touched, so the un-throttled writer races compaction exactly as a
        LevelDB client does -- backpressure comes solely from the engine
        gates (slowdown / stop / memtable rotation), which is where the
        paper's bursts and stalls originate (§6.2).
        """
        if self.faults is not None:
            self.faults.on_foreground_request(self.clock)  # type: ignore[attr-defined]
        service = 0.0
        if nbytes_write:
            # io_time(nbytes_write=n), bit for bit (``0.0 + n/bw``), and
            # _count's write half.
            service = nbytes_write / self.profile.write_bandwidth
            self.bytes_written += nbytes_write
            self.write_ops += 1
        self.clock.now += service
        return service

    # ------------------------------------------------------------- background
    def bg_grant(self, not_before: float, want_s: float,
                 lookahead_s: float = 0.0) -> float:
        """Grant up to ``want_s`` seconds of device time to background work.

        Time is granted inside ``[max(busy_until, not_before), now +
        lookahead]``: jobs cannot run before they were submitted, but they
        may fill the channel a bounded ``lookahead_s`` ahead of "now" -- the
        in-flight background I/O a real device interleaves with foreground
        traffic.  Foreground ops queue behind ``busy_until``, so bandwidth is
        shared and compaction pressure surfaces as foreground queueing delay
        ("writes might saturate disk bandwidth and block user queries", §1).
        The one horizon write outside :class:`SimResource`: a grant may
        start in the past, a request never does.  A zero ask is granted
        nothing and leaves the horizon alone.
        """
        if not want_s > 0.0:
            if want_s == 0.0:
                return 0.0
            raise invariant_error("device-time", "bg_grant needs want_s >= 0",
                                  want_s=want_s)
        start = self.busy_until
        if start < not_before:
            start = not_before
        horizon = self.clock.now + lookahead_s
        if start >= horizon:
            return 0.0
        granted = horizon - start
        if want_s < granted:
            granted = want_s
        self.busy_until = start + granted
        return granted

    def bg_count(self, *, nbytes_read: int = 0, nbytes_write: int = 0, seeks: int = 0) -> None:
        """Record background I/O volume (time is handled via bg_grant)."""
        self._count(nbytes_read, nbytes_write, seeks)

    # ----------------------------------------------------------- synchronous
    def sync_drain(self, service_s: float) -> float:
        """Consume device time synchronously (a stall): the clock jumps to the
        completion of ``service_s`` seconds of work queued behind ``busy_until``.

        Returns the elapsed simulated time experienced by the stalled caller.
        """
        if service_s < 0:
            raise invariant_error("device-time",
                                  "sync_drain needs service_s >= 0",
                                  service_s=service_s)
        return self.fg(service_s)[0]
