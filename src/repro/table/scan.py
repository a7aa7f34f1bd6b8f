"""Scan streams: the components a scan merges, as values both tiers share.

A scan "checks memtable, immutable memtable and all sequences in a node in
every on-disk level and merges them" (§5.2).  Each of those components is
one *stream* of records in (key asc, seq desc) order, and a stream is one
value with two faces:

* it **is iterable** -- iterating it runs the lazily-charging generator
  cursors (:meth:`repro.table.mstable.MSTable.cursor`, read-ahead charges
  landing as records are consumed).  That is the charge model's reference:
  :func:`repro.bench.reference.reference_scan` heap-merges the iterated
  streams record by record.
* it **carries its description** -- the span of a memtable's columnar run,
  or the level's lazy node walk plus the scan bounds.  That is what the
  vectorized planner (:func:`repro.table.scanplan.planned_scan`) reads to
  compute the same merge with array operations and replay the same
  charges, iterating nothing.

Every engine's level is a chain of key-disjoint nodes.  A node is one table
(LSA, IAM, the leveled engines) or a tuple of tables whose ranges may
overlap (an FLSM guard's fragments), opened together.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

from repro.common.records import Key, RecordTuple, sort_key
from repro.storage.runtime import Runtime
from repro.table.run import Run


class ListStream:
    """In-memory sorted records: the span ``[i, j)`` of a memtable's run
    (``key_view`` is the run's keys, for the planner's bisects)."""

    __slots__ = ("run", "key_view", "i", "j")

    def __init__(self, run: Run, key_view: memoryview, i: int, j: int) -> None:
        self.run = run
        self.key_view = key_view
        self.i = i
        self.j = j

    def __iter__(self) -> Iterator[RecordTuple]:
        return iter(self.run.records()[self.i:self.j])


class ChainStream:
    """One on-disk component: a run of key-disjoint nodes in key order.

    ``walk()`` is the engine's lazy walk of the level -- a fresh in-order
    iterator over the nodes of the scan's slice (a table, None or empty
    ones skipped, or a non-empty tuple of overlapping tables).  A node costs
    work only when a consumer advances to it: its cursors are opened (and
    their first blocks charged) on reaching it, and the nodes a
    limit-bounded scan never reaches are never looked at.
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
        for node in self.walk():
            if node.__class__ is tuple:
                yield from heapq.merge(*[t.cursor(lo_key, hi_key) for t in node],
                                       key=sort_key)
            elif node is not None and node.sequences:
                yield from node.cursor(lo_key, hi_key)


# The constructors stay functions of their own (never aliases of the
# classes): the e2e ledger wraps them by name, and a wrapped alias would
# replace the class the planner's class checks.
def chain_stream(runtime: Runtime, walk: Callable[[], Iterator],
                 lo_key: Optional[Key], hi_key: Optional[Key]) -> ChainStream:
    """A sorted level's stream: its nodes overlapping the scan, reached
    through the engine's lazy ``walk`` (see :class:`ChainStream`)."""
    return ChainStream(runtime, walk, lo_key, hi_key)


def table_stream(runtime: Runtime, table, lo_key: Optional[Key],
                 hi_key: Optional[Key]) -> ChainStream:
    """The stream of a single table (each L0 file seeks on its own)."""
    return ChainStream(runtime, partial(iter, (table,)), lo_key, hi_key)


def list_stream(run: Run, lo_key: Optional[Key],
                hi_key: Optional[Key]) -> ListStream:
    """A memtable's stream: the records of its sorted ``run`` with ``lo_key
    <= key < hi_key`` (None bounds are open), as a span of the run."""
    kv = run.key_view()
    return ListStream(run, kv, 0 if lo_key is None else bisect_left(kv, lo_key),
                      run.n if hi_key is None else bisect_left(kv, hi_key))


def merge_scan(streams: list, *, snapshot: Optional[int] = None,
               hi_key: Optional[Key] = None,
               limit: Optional[int] = None) -> List[Tuple[Key, object]]:
    """The generator tier, drained: ``streams`` heap-merged record by record
    through ``merge_visible``, charging as the cursors advance.

    No scan takes this path (the planner plans every stream); it stays a
    module-level function because the e2e ledger looks it up by name.
    """
    # Imported here: repro.db imports the engines, which import this module.
    from repro.db.iterator import merge_visible
    return list(merge_visible(streams, snapshot=snapshot, hi_key=hi_key,
                              limit=limit))
