"""Scan streams: the components a scan merges, as values both tiers share.

A scan "checks memtable, immutable memtable and all sequences in a node in
every on-disk level and merges them" (§5.2).  Each of those components is
one *stream* of records in (key asc, seq desc) order, and a stream is one
value with two faces:

* it **is iterable** -- iterating it runs the lazily-charging generator
  cursors (:meth:`repro.table.mstable.MSTable.cursor`, read-ahead charges
  landing as records are consumed).  That is what the heap merge of
  :func:`repro.db.iterator.merge_visible` consumes: ``iterate()`` and
  :func:`merge_scan`.
* it **carries its description** -- the record list, or the level's lazy
  table walk plus the scan bounds.  That is what the vectorized planner
  (:func:`repro.table.scanplan.planned_scan`) reads to compute the same
  merge with array operations and replay the same charges, iterating
  nothing.

Engines whose levels are not a chain of disjoint tables (FLSM's guards) hand
out plain generators instead; the planner declines any stream it does not
know, and the heap merge takes whatever iterates.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence as SequenceType, Tuple

from repro.common.records import Key, RecordTuple
from repro.storage.runtime import Runtime
from repro.check.effects.registry import effects


class ListStream:
    """In-memory sorted records (a memtable's slice of the scan range)."""

    __slots__ = ("recs",)

    def __init__(self, recs: SequenceType[RecordTuple]) -> None:
        self.recs = recs

    def __iter__(self) -> Iterator[RecordTuple]:
        return iter(self.recs)


class ChainStream:
    """One on-disk component: a run of disjoint tables in key order.

    ``walk()`` is the engine's lazy walk of the level -- a fresh in-order
    iterator over the non-empty tables of the scan's captured slice.  A
    table costs work only when a consumer advances to it: its cursors are
    opened (and their first blocks charged) on reaching it, and the members
    a limit-bounded scan never reaches are never looked at.
    """

    __slots__ = ("runtime", "walk", "lo_key", "hi_key")

    def __init__(self, runtime: Runtime, walk: Callable[[], Iterator],
                 lo_key: Optional[Key], hi_key: Optional[Key]) -> None:
        self.runtime = runtime
        self.walk = walk
        self.lo_key = lo_key
        self.hi_key = hi_key

    def __iter__(self) -> Iterator[RecordTuple]:
        lo_key, hi_key = self.lo_key, self.hi_key
        for table in self.walk():
            yield from table.cursor(lo_key, hi_key)


# The constructors stay functions of their own (never aliases of the
# classes): the e2e ledger wraps them by name, and a wrapped alias would
# replace the class the planner's isinstance checks.
def chain_stream(runtime: Runtime, walk: Callable[[], Iterator],
                 lo_key: Optional[Key], hi_key: Optional[Key]) -> ChainStream:
    """A sorted level's stream: its overlapping tables, reached through the
    engine's lazy ``walk`` (see :class:`ChainStream`)."""
    return ChainStream(runtime, walk, lo_key, hi_key)


def table_stream(runtime: Runtime, table, lo_key: Optional[Key],
                 hi_key: Optional[Key]) -> ChainStream:
    """The stream of a single table (each L0 file seeks on its own)."""
    return ChainStream(runtime, partial(iter, (table,)), lo_key, hi_key)


def list_stream(recs: SequenceType[RecordTuple]) -> ListStream:
    return ListStream(recs)


@effects("CLOCK_ADVANCE", "DISK_CHARGE", "STATE_MUTATE")
def merge_scan(streams: list, *, snapshot: Optional[int] = None,
               hi_key: Optional[Key] = None,
               limit: Optional[int] = None) -> List[Tuple[Key, object]]:
    """The generator tier, drained: every scan the planner declines.

    Heap-merges ``streams`` record by record through ``merge_visible``, the
    one statement of the visibility rule, charging as the cursors advance.
    """
    # Imported here: repro.db imports the engines, which import this module.
    from repro.db.iterator import merge_visible
    return list(merge_visible(streams, snapshot=snapshot, hi_key=hi_key,
                              limit=limit))
