"""Simulated shared object store on the cluster's sim clock.

The store models a disaggregated blob service (S3-style): a flat namespace
of **immutable** objects behind a single high-bandwidth channel with
per-request latency.  The channel is one
:class:`~repro.storage.simdisk.SimResource` on the cluster's clock, so store
traffic and local disk I/O interleave on the one shared timeline; this
module adds the cost model (``latency_s`` + bytes/bandwidth per request),
the counters and the objects.

* :meth:`SimObjectStore.put` / :meth:`get` / :meth:`read_fill` /
  :meth:`list_prefix` / :meth:`delete` -- foreground requests (``fg``):
  the caller waits.
* :meth:`reserve_put` / :meth:`reserve_delete` -- background requests
  (MSTable mirroring, tombstone cleanup; ``reserve``): the returned tail
  is the transfer's, and later foreground requests queue behind it --
  uploads overlap foreground work the way compactions overlap queries.

Objects are write-once: a second ``put`` of a live name is an
:class:`~repro.common.errors.InvariantViolation`.  Growing local files
(IAM/LSA nodes append sequences in place) therefore mirror under
*size-versioned* names -- a new object per (file, size) version, with the
stale version tombstoned -- which is how the manifest log keeps every
referenced object immutable (IceDB's append-only design, SNIPPETS.md §1).

The zero store (``ObjStoreOptions.zero()``) has no latency, infinite
bandwidth and no framing: every request takes exactly 0 simulated seconds
and never advances the clock, which is what makes an objstore-mirrored DB
byte-identical to a bare one (``tests/test_objstore_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, InvariantViolation
from repro.storage.simdisk import SimClock, SimResource
from repro.check.effects.registry import effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

#: Default channel bandwidth: 1 GiB/s (a fat pipe to the blob service,
#: slower than the 2 GiB/s cluster fabric, faster than one SSD's
#: sequential stream -- the store is remote but wide).
DEFAULT_BANDWIDTH = float(1024**3)

#: Default per-request latency: 2ms first-byte (S3-ish within a region,
#: ~40x a local SSD seek, so request *count* matters more than bytes).
DEFAULT_LATENCY_S = 2e-3

#: Default fixed framing/metadata overhead per request (HTTP + auth).
DEFAULT_REQUEST_BYTES = 256


@dataclass(frozen=True)
class ObjStoreOptions:
    """Service parameters of the simulated object store."""

    #: Per-request first-byte latency, in seconds.
    latency_s: float = DEFAULT_LATENCY_S
    #: Channel bandwidth in bytes/second (``float("inf")`` = free bytes).
    bandwidth: float = DEFAULT_BANDWIDTH
    #: Fixed framing overhead added to every request's payload.
    request_bytes: int = DEFAULT_REQUEST_BYTES

    def __post_init__(self) -> None:
        if self.latency_s < 0.0:
            raise ConfigError("objstore latency_s must be >= 0")
        if not self.bandwidth > 0.0:
            raise ConfigError("objstore bandwidth must be > 0")
        if self.request_bytes < 0:
            raise ConfigError("objstore request_bytes must be >= 0")

    @staticmethod
    def zero() -> "ObjStoreOptions":
        """The free store: zero latency, infinite bandwidth, no framing."""
        return ObjStoreOptions(latency_s=0.0, bandwidth=float("inf"),
                               request_bytes=0)


class SimObjectStore(SimResource):
    """Immutable put/get/list/delete blob store, one FIFO channel."""

    def __init__(self, clock: SimClock,
                 options: Optional[ObjStoreOptions] = None) -> None:
        super().__init__(clock)
        self.options = options if options is not None else ObjStoreOptions()
        #: Live objects: name -> size in bytes.  The mapping *is* the durable
        #: state: what survives a simulated process crash is exactly what is
        #: in here (a separate service; node crashes do not touch it).
        self.objects: Dict[str, int] = {}
        #: Fault injector; None = no transient request faults.
        self.faults: Optional["FaultInjector"] = None
        # Request counters for the report / sampler.
        self.puts = 0
        self.gets = 0
        self.lists = 0
        self.deletes = 0
        self.bytes_up = 0
        self.bytes_down = 0

    # ------------------------------------------------------------------ model
    def service_time(self, nbytes: int, requests: int = 1) -> float:
        """Latency + transfer time of ``requests`` requests of ``nbytes``."""
        t = requests * self.options.latency_s
        total = nbytes + requests * self.options.request_bytes
        if total > 0:
            t += total / self.options.bandwidth
        return t

    def _fg_request(self, nbytes: int, requests: int = 1) -> Tuple[float, float]:
        """Foreground request behind the fault hook; (elapsed, queued)."""
        if self.faults is not None:
            self.faults.on_foreground_request(self.clock)
        return self.fg(self.service_time(nbytes, requests))

    # ------------------------------------------------------------- foreground
    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def put(self, name: str, nbytes: int) -> Tuple[float, float]:
        """Upload one immutable object synchronously; (elapsed, queued).

        The caller waits for the upload to land (manifest-log entries are
        written this way: the cut is durable when the call returns).
        """
        if name in self.objects:
            raise InvariantViolation(
                f"objstore put of existing object {name!r} (objects are "
                f"immutable; version the name instead)")
        elapsed, queued = self._fg_request(nbytes)
        self.puts += 1
        self.bytes_up += nbytes
        self.objects[name] = nbytes
        return elapsed, queued

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def get(self, name: str) -> Tuple[float, float]:
        """Download one object synchronously; returns (elapsed, queued).

        The single FIFO channel already orders a get behind any in-flight
        background upload, so an object reserved earlier is always fully
        landed by the time a later get's service window starts.
        """
        nbytes = self.objects.get(name)
        if nbytes is None:
            raise InvariantViolation(f"objstore get of missing object {name!r}")
        elapsed, queued = self._fg_request(nbytes)
        self.gets += 1
        self.bytes_down += nbytes
        return elapsed, queued

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def read_fill(self, nbytes: int, requests: int) -> Tuple[float, float]:
        """Charge a ranged read of ``nbytes`` in ``requests`` GETs.

        Serves page-cache fills from the store (tiered reads): each run of
        consecutive missing blocks costs one ranged request, mirroring how
        :meth:`~repro.storage.runtime.Runtime.fg_read_blocks` charges one
        seek per run.  Returns (elapsed, queued).
        """
        if nbytes <= 0 or requests <= 0:
            return 0.0, 0.0
        elapsed, queued = self._fg_request(nbytes, requests)
        self.gets += requests
        self.bytes_down += nbytes
        return elapsed, queued

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def list_prefix(self, prefix: str) -> Tuple[List[str], float]:
        """List live object names under ``prefix``, sorted; (names, elapsed)."""
        elapsed, _ = self._fg_request(0)
        self.lists += 1
        names = sorted(n for n in self.objects if n.startswith(prefix))
        return names, elapsed

    @effects("CLOCK_ADVANCE", "OBJSTORE_CHARGE", "STATE_MUTATE")
    def delete(self, name: str) -> float:
        """Delete one object synchronously; returns the elapsed sim time."""
        if name not in self.objects:
            raise InvariantViolation(
                f"objstore delete of missing object {name!r}")
        elapsed, _ = self._fg_request(0)
        self.deletes += 1
        del self.objects[name]
        return elapsed

    # ------------------------------------------------------------- background
    def reserve_put(self, name: str, nbytes: int) -> float:
        """Reserve a background upload; returns its tail, clock untouched.

        The object is visible immediately; because the channel is one FIFO,
        every later request -- including a follower's bootstrap get --
        starts after the upload lands.  Used for mirroring flushed/compacted
        MSTables.
        """
        if name in self.objects:
            raise InvariantViolation(
                f"objstore put of existing object {name!r} (objects are "
                f"immutable; version the name instead)")
        self.puts += 1
        self.bytes_up += nbytes
        self.objects[name] = nbytes
        return self.reserve(self.service_time(nbytes))

    def reserve_delete(self, name: str) -> float:
        """Reserve a background delete (tombstone cleanup); returns its tail."""
        if name not in self.objects:
            raise InvariantViolation(
                f"objstore delete of missing object {name!r}")
        self.deletes += 1
        del self.objects[name]
        return self.reserve(self.service_time(0))

    # ------------------------------------------------------------- inspection
    def exists(self, name: str) -> bool:
        return name in self.objects

    def size_of(self, name: str) -> int:
        """Size in bytes of a live object (raises if missing)."""
        nbytes = self.objects.get(name)
        if nbytes is None:
            raise InvariantViolation(f"objstore size_of missing object {name!r}")
        return nbytes

    @property
    def live_bytes(self) -> int:
        return sum(self.objects.values())

    @property
    def requests(self) -> int:
        return self.puts + self.gets + self.lists + self.deletes

    def snapshot(self) -> Dict[str, object]:
        """Deterministic counter dump for the cluster report."""
        return {
            "objects": len(self.objects),
            "live_bytes": self.live_bytes,
            "puts": self.puts,
            "gets": self.gets,
            "lists": self.lists,
            "deletes": self.deletes,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "requests": self.requests,
        }
