"""The storage runtime bundle handed to every engine.

Bundles the clock, device, page cache, background pool and metrics of one DB
instance, and centralizes the charging conventions:

* Query block reads (:meth:`fg_read_blocks`) go through the page cache; each
  run of consecutive missing blocks costs one seek plus bandwidth and counts
  toward read amplification.
* Flush/compaction I/O is charged through :meth:`bg_write_run` /
  :meth:`bg_read_run`, which return device-time *debt* for a
  :class:`~repro.storage.background.BackgroundJob`; bytes are counted and
  cache blocks are populated immediately (write-back page cache).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.options import IO_CHUNK_BYTES, StorageOptions
from repro.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.storage.background import BackgroundJob, BackgroundPool
from repro.storage.pagecache import PageCache
from repro.storage.simdisk import SimClock, SimDisk, SimFile
from repro.check.effects.registry import effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.common.options import FaultOptions
    from repro.faults.crash import CrashPoints
    from repro.faults.plan import FaultInjector
    from repro.objstore.store import SimObjectStore
    from repro.obs.sampler import TimeseriesSampler
    from repro.obs.tracer import Tracer

#: Objstore span ids live far above the background pool's job-id spans so
#: the two async-span families never collide within one tracer.
_OBJSTORE_SPAN_BASE = 1_000_000_000


class Runtime:
    """Storage stack of one DB instance."""

    def __init__(self, options: Optional[StorageOptions] = None, *,
                 background_threads: int = 1,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.options = options if options is not None else StorageOptions()
        # ``clock`` lets several stacks share one timeline (the cluster layer
        # runs every shard/replica on a single simulated clock).
        self.clock = clock if clock is not None else SimClock()
        self.disk = SimDisk(self.options.device, self.clock)
        self.cache = PageCache(self.options.page_cache_bytes, self.options.block_size)
        self.pool = BackgroundPool(self.disk, background_threads)
        # Background I/O may run one chunk ahead of "now" (bandwidth sharing).
        self.pool.lookahead_s = (IO_CHUNK_BYTES
                                 / self.options.device.write_bandwidth)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool.metrics = self.metrics
        #: Trace sink; NULL_TRACER until :meth:`attach_tracer` swaps it.
        self.tracer: NullTracer = NULL_TRACER
        #: Timeseries sampler driven by :meth:`pump`; None until attached.
        self.sampler: Optional["TimeseriesSampler"] = None
        #: Fault injector; None until :meth:`attach_faults` wires one in.
        self.faults: Optional["FaultInjector"] = None
        #: Crash-point scheduler; None until :meth:`arm_crash_points`.
        self.crash_points: Optional["CrashPoints"] = None
        #: Shared object store; None until :meth:`attach_objstore`.
        self.objstore: Optional["SimObjectStore"] = None
        self._objstore_span = _OBJSTORE_SPAN_BASE

    # ---------------------------------------------------------- observability
    def attach_tracer(self, tracer: "Tracer") -> None:
        """Route this stack's trace hooks into ``tracer`` (observation-only)."""
        self.tracer = tracer
        self.pool.tracer = tracer

        def on_evictions(n: int) -> None:
            tracer.instant("cache", "evict", blocks=n)

        self.cache.on_evictions = on_evictions

    def attach_sampler(self, sampler: "TimeseriesSampler") -> None:
        """Drive ``sampler`` from this runtime's per-operation pump."""
        self.sampler = sampler

    # -------------------------------------------------------- fault injection
    def attach_faults(self, options: "FaultOptions") -> "FaultInjector":
        """Arm deterministic transient-fault injection on this stack.

        Wires one :class:`~repro.faults.plan.FaultInjector` into both the
        device (foreground I/O retry loop) and the background pool (job
        activation faults).  Idempotent per options object; returns the
        injector for inspection.
        """
        from repro.faults.plan import FaultInjector

        injector = FaultInjector(options, self)
        self.faults = injector
        self.disk.faults = injector
        self.pool.injector = injector
        return injector

    def arm_crash_points(self, crash_points: Optional["CrashPoints"]) -> None:
        """Install (or clear, with None) the crash-point scheduler."""
        self.crash_points = crash_points
        self.pool.crash_points = crash_points

    # --------------------------------------------------------------- lifecycle
    @property
    def block_size(self) -> int:
        return self.options.block_size

    def now(self) -> float:
        return self.clock.now

    def pump(self) -> None:
        if not self.pool.idle:
            self.pool.pump()
        if self.sampler is not None:
            self.sampler.maybe_sample()

    def submit_job(self, name: str, start_fn: Callable[[], float], *,
                   high_priority: bool = False,
                   on_complete: Optional[Callable[[], None]] = None) -> BackgroundJob:
        return self.pool.submit(name, start_fn, high_priority=high_priority,
                                on_complete=on_complete)

    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def stall_on(self, job: BackgroundJob, reason: str) -> float:
        """Foreground wait for a background job; records the stall event.

        The pool records the structured reason/duration pair (and the trace
        instant); the legacy ``stall:<reason>`` event counter stays bumped.
        """
        elapsed = self.pool.wait_for(job, reason=reason)
        if elapsed > 0.0:
            self.metrics.bump(f"stall:{reason}")
        return elapsed

    def quiesce(self) -> float:
        """Finish all background work (end-of-run barrier)."""
        return self.pool.drain_all()

    # ------------------------------------------------------------- query reads
    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "OBJSTORE_CHARGE", "SPAN_BEGIN",
             "SPAN_END", "STATE_MUTATE")
    def fg_read_blocks(self, file_id: int, block_nos: Iterable[int]) -> float:
        """Read blocks for a query through the cache; returns elapsed time."""
        if isinstance(block_nos, range):
            n_requested = len(block_nos)
        else:
            block_nos = list(block_nos)
            n_requested = len(block_nos)
        misses: List[int] = self.cache.touch_many(file_id, block_nos)
        if not misses:
            self.metrics.add_query_io(seeks=0, hits=n_requested, misses=0)
            return 0.0
        # Group consecutive missing blocks into runs: one seek per run.
        runs = 1
        for prev, cur in zip(misses, misses[1:]):
            if cur != prev + 1:
                runs += 1
        n_missed = len(misses)
        elapsed = self._fill_misses(n_missed * self.block_size, runs)
        self.cache.insert_many(file_id, misses)
        self.metrics.add_query_io(seeks=runs, hits=n_requested - n_missed,
                                  misses=n_missed)
        return elapsed

    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "STATE_MUTATE")
    def _fill_misses(self, nbytes: int, runs: int) -> float:
        """Fetch ``nbytes`` of missing blocks lying in ``runs`` consecutive
        runs: from this stack's own disk, one seek per run."""
        return self.disk.fg_io(nbytes_read=nbytes, seeks=runs)

    # --------------------------------------------------------- compaction I/O
    @effects("DISK_CHARGE", "STATE_MUTATE")
    def bg_write_run(self, file: SimFile, nbytes: int, *, level: int,
                     first_block: int = 0, n_cache_blocks: Optional[int] = None) -> float:
        """Charge one sequential background write run; returns device debt.

        Grows the file, attributes the bytes to ``level`` for write
        amplification, and populates the page cache with the written data
        blocks -- appended sequences start out memory-resident.
        ``n_cache_blocks`` overrides the block count entered into the cache
        (data blocks only, when ``nbytes`` includes metadata).
        """
        if nbytes <= 0:
            return 0.0
        file.grow(nbytes)
        self.metrics.add_level_write(level, nbytes)
        self.disk.bg_count(nbytes_write=nbytes, seeks=1)
        if n_cache_blocks is None:
            n_cache_blocks = -(-nbytes // self.block_size)
        if n_cache_blocks > 0:
            self.cache.insert_range(file.file_id, first_block, n_cache_blocks)
        return self.disk.io_time(nbytes_write=nbytes, bulk_seeks=1)

    @effects("DISK_CHARGE", "STATE_MUTATE")
    def bg_read_run(self, file_id: int, nbytes: int, *,
                    resident_bytes: int = 0) -> float:
        """Charge a background (compaction) read; returns device debt.

        ``resident_bytes`` of the run are served from the page cache for free
        (the OS reads cached pages without touching the device).
        """
        if nbytes <= 0:
            return 0.0
        miss_bytes = max(0, nbytes - resident_bytes)
        self.metrics.add_compaction_read(nbytes)
        if miss_bytes == 0:
            return 0.0
        self.disk.bg_count(nbytes_read=miss_bytes, seeks=1)
        return self.disk.io_time(nbytes_read=miss_bytes, bulk_seeks=1)

    # ----------------------------------------------------------- object store
    def attach_objstore(self, store: "SimObjectStore") -> None:
        """Point this stack at a shared object store (idempotent)."""
        self.objstore = store

    def _objstore_or_raise(self) -> "SimObjectStore":
        if self.objstore is None:
            raise ConfigError("no object store attached to this runtime")
        return self.objstore

    def _objstore_span_id(self) -> int:
        self._objstore_span += 1
        return self._objstore_span

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "SPAN_BEGIN", "SPAN_END",
             "STATE_MUTATE")
    def objstore_put(self, name: str, nbytes: int) -> float:
        """Foreground object upload (manifest-log entries); elapsed time."""
        store = self._objstore_or_raise()
        tracer = self.tracer
        span = 0
        if tracer.enabled:
            span = self._objstore_span_id()
            tracer.begin("objstore", "objstore:put", span, obj=name,
                         nbytes=nbytes)
        elapsed, queued = store.put(name, nbytes)
        self.metrics.add_objstore_up(nbytes)
        self.metrics.bump("objstore:put")
        if queued > 0.0:
            self.metrics.add_stall("objstore-append", queued)
        if tracer.enabled:
            tracer.end("objstore", "objstore:put", span)
        return elapsed

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "SPAN_BEGIN", "SPAN_END",
             "STATE_MUTATE")
    def objstore_get(self, name: str) -> float:
        """Foreground object download (bootstrap/catch-up); elapsed time."""
        store = self._objstore_or_raise()
        nbytes = store.size_of(name)
        tracer = self.tracer
        span = 0
        if tracer.enabled:
            span = self._objstore_span_id()
            tracer.begin("objstore", "objstore:get", span, obj=name,
                         nbytes=nbytes)
        elapsed, queued = store.get(name)
        self.metrics.add_objstore_down(nbytes)
        self.metrics.bump("objstore:get")
        if queued > 0.0:
            self.metrics.add_stall("objstore-fetch", queued)
        if tracer.enabled:
            tracer.end("objstore", "objstore:get", span)
        return elapsed

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "SPAN_BEGIN", "SPAN_END",
             "STATE_MUTATE")
    def objstore_read_fill(self, nbytes: int, requests: int) -> float:
        """Charge ranged GETs filling the page cache (tiered reads)."""
        store = self._objstore_or_raise()
        tracer = self.tracer
        span = 0
        if tracer.enabled:
            span = self._objstore_span_id()
            tracer.begin("objstore", "objstore:get", span, nbytes=nbytes,
                         requests=requests)
        elapsed, queued = store.read_fill(nbytes, requests)
        self.metrics.add_objstore_down(nbytes)
        self.metrics.bump("objstore:get", requests)
        if queued > 0.0:
            self.metrics.add_stall("objstore-fetch", queued)
        if tracer.enabled:
            tracer.end("objstore", "objstore:get", span)
        return elapsed

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "SPAN_BEGIN", "SPAN_END",
             "STATE_MUTATE")
    def objstore_list(self, prefix: str) -> List[str]:
        """Foreground prefix listing (recovery, bootstrap discovery)."""
        store = self._objstore_or_raise()
        tracer = self.tracer
        span = 0
        if tracer.enabled:
            span = self._objstore_span_id()
            tracer.begin("objstore", "objstore:list", span, prefix=prefix)
        names, _ = store.list_prefix(prefix)
        self.metrics.bump("objstore:list")
        if tracer.enabled:
            tracer.end("objstore", "objstore:list", span, names=len(names))
        return names

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def objstore_delete(self, name: str) -> float:
        """Foreground object delete (recovery orphan sweep); elapsed time."""
        store = self._objstore_or_raise()
        elapsed = store.delete(name)
        self.metrics.bump("objstore:delete")
        if self.tracer.enabled:
            self.tracer.instant("objstore", "objstore:delete", obj=name)
        return elapsed

    @effects("OBJSTORE_CHARGE", "STATE_MUTATE")
    def objstore_reserve_put(self, name: str, nbytes: int) -> float:
        """Background object upload (MSTable mirroring); returns its tail."""
        store = self._objstore_or_raise()
        tail = store.reserve_put(name, nbytes)
        self.metrics.add_objstore_up(nbytes)
        self.metrics.bump("objstore:put")
        if self.tracer.enabled:
            self.tracer.instant("objstore", "objstore:put", obj=name,
                                nbytes=nbytes, background=1)
        return tail

    @effects("OBJSTORE_CHARGE", "STATE_MUTATE")
    def objstore_reserve_delete(self, name: str) -> float:
        """Background object delete (tombstone cleanup); returns its tail."""
        store = self._objstore_or_raise()
        tail = store.reserve_delete(name)
        self.metrics.bump("objstore:delete")
        if self.tracer.enabled:
            self.tracer.instant("objstore", "objstore:delete", obj=name,
                                background=1)
        return tail

    # ------------------------------------------------------------------ files
    def create_file(self) -> SimFile:
        return self.disk.create_file()

    def delete_file(self, file: SimFile) -> None:
        self.cache.invalidate_file(file.file_id)
        self.disk.delete_file(file)

    # ---------------------------------------------------------------- reports
    def space_used_bytes(self) -> int:
        return self.disk.live_bytes

    def io_report(self) -> Tuple[int, int, int]:
        """(bytes_read, bytes_written, seeks) device totals."""
        return (self.disk.bytes_read, self.disk.bytes_written, self.disk.seeks)
