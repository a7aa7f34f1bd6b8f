"""Structured sim-time event tracer (the repo's observability core).

The paper's headline phenomena are *temporal* -- LevelDB's multi-second
stalls, the "serious data overflows" of §6.2, IAM's stable throughput
timeline (Fig. 8) -- so the tracer records *when* things happen on the
**simulated clock only**.  No wall-clock source is ever read (the REP001
determinism lint covers this package): two runs with the same seed and
options produce byte-identical traces.

Two event shapes:

* **instant events** (`ph="i"`) -- flushes, appends, merges, splits,
  combines, move-downs, write-gate slowdowns, stalls, memtable rotations,
  cache evictions, retunes, recoveries.
* **spans** (`ph="b"` / `ph="e"`) -- one per background job, opened when a
  thread activates the job (its structural effect runs) and closed when its
  device-time debt is fully drained.  Spans are keyed by the job's
  deterministic ``job_id``, so every begin has exactly one matching end.

Events are buffered in a bounded ring (oldest dropped first, drop count
kept) and exported by :mod:`repro.obs.export` as JSONL or Chrome
trace-event JSON loadable in Perfetto.

The disabled path is pay-for-what-you-use: call sites guard on
``tracer.enabled`` (a plain class attribute) and the shared
:data:`NULL_TRACER` sink turns every hook into an early return, so a run
without tracing does no extra allocation on the hot path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple


class ClockLike:
    """Structural stand-in for :class:`repro.storage.simdisk.SimClock`.

    Kept as a plain attribute holder (not a Protocol) so this module has no
    dependency on the storage package and no runtime ``isinstance`` cost.
    """

    now: float = 0.0


#: One recorded event: (ts_s, ph, cat, name, span_id, args).
#: ``ph`` is "i" (instant), "b" (span begin) or "e" (span end); ``span_id``
#: is None for instants; ``args`` is None when the event carries no payload.
Event = Tuple[float, str, str, str, Optional[int], Optional[Dict[str, object]]]

#: Event phases understood by the exporters.
PH_INSTANT = "i"
PH_BEGIN = "b"
PH_END = "e"


#: Bound of the in-memory event buffer; when full, the oldest events are
#: dropped (and counted in ``Tracer.dropped``) so a long run keeps its most
#: recent window instead of growing without bound.
RING_CAPACITY = 1 << 16


class NullTracer:
    """The disabled sink: every hook is a no-op.

    This is also the base class of the real :class:`Tracer`, so annotations
    throughout the storage stack can use ``NullTracer`` and call sites stay
    monomorphic.  ``enabled`` is a class attribute -- checking it costs two
    attribute loads, no call.
    """

    enabled: bool = False

    def instant(self, cat: str, name: str, **args: object) -> None:
        """Record an instant event (no-op when disabled)."""

    def begin(self, cat: str, name: str, span_id: int, **args: object) -> None:
        """Open a span (no-op when disabled)."""

    def end(self, cat: str, name: str, span_id: int, **args: object) -> None:
        """Close a span (no-op when disabled)."""


#: Shared disabled sink installed by default on every Runtime/BackgroundPool.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer bound to one DB instance's simulated clock."""

    enabled = True

    def __init__(self, clock: ClockLike) -> None:
        self.clock = clock
        self.events: Deque[Event] = deque()
        #: Events evicted from the ring (ring overflow, not an error).
        self.dropped = 0
        #: Per-event-name counters; survive ring overflow (summary input).
        self.counts: Dict[str, int] = {}
        #: Spans opened/closed since creation (balance survives overflow).
        self.spans_opened = 0
        self.spans_closed = 0
        #: Currently-open spans: id -> (cat, name).  The Chrome exporter
        #: closes these as "inflight" so viewers always see balanced pairs.
        self.open_spans: Dict[int, Tuple[str, str]] = {}

    # ------------------------------------------------------------------- sink
    def _push(self, event: Event) -> None:
        if len(self.events) >= RING_CAPACITY:
            self.events.popleft()
            self.dropped += 1
        self.events.append(event)

    def instant(self, cat: str, name: str, **args: object) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self._push((self.clock.now, PH_INSTANT, cat, name, None,
                    args if args else None))

    def begin(self, cat: str, name: str, span_id: int, **args: object) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self.spans_opened += 1
        self.open_spans[span_id] = (cat, name)
        self._push((self.clock.now, PH_BEGIN, cat, name, span_id,
                    args if args else None))

    def end(self, cat: str, name: str, span_id: int, **args: object) -> None:
        self.spans_closed += 1
        self.open_spans.pop(span_id, None)
        self._push((self.clock.now, PH_END, cat, name, span_id,
                    args if args else None))

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self.events)

    def event_count(self) -> int:
        """Total events recorded, including those dropped from the ring."""
        return len(self.events) + self.dropped
