"""Batched scan assembly: a charge-order mirror of the scalar merge path.

The scalar scan pipeline is ``heapq.merge`` over lazily-charging cursors fed
into :func:`repro.db.iterator.merge_visible`.  Everything observable about
that pipeline -- the simulated clock, the page-cache state, the metrics --
flows through the ``fg_read_blocks`` calls the sequence cursors issue, so a
batched assembler is *state-identical* exactly when it issues the same
charges in the same order and yields the same visible records.

This module rebuilds the pipeline as explicit pull states instead of stacked
generators:

* :class:`_SeqState` mirrors :meth:`repro.table.block.Sequence.cursor`
  record for record and charge for charge (same read-ahead chunking).
* :class:`_ChainState` mirrors the per-level ``yield from`` chain over node
  cursors; multi-sequence nodes get a :class:`_RawMerge`, the lazy mirror of
  the ``heapq.merge`` inside :meth:`repro.table.mstable.MSTable.cursor`.
* :func:`merge_scan` mirrors ``merge_visible`` over the top-level streams,
  with one structural speedup: while one stream's keys stay strictly below
  every other head, consecutive pulls must come from that stream (unique
  ``(key, seq)`` pairs make sort-key ties impossible), so the assembler
  drains it in a tight bulk loop -- no per-record heap dance -- which is
  where the batched scan wins its time.  Between two charges of a bulk run
  no other stream is pulled, so the charge order is untouched.

:class:`MergeScanner` exposes the same machinery one record at a time for
:class:`repro.db.iterator.DbIterator` (``seek`` repositions the states via
the per-sequence key columns instead of re-running the level walks).
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, Optional, Sequence as SequenceType, Tuple

from repro.common.records import DELETE, Key, RecordTuple, sort_key
from repro.storage.runtime import Runtime

_SENTINEL = object()


class _Sink:
    """The visibility consumer: a line-for-line mirror of ``merge_visible``."""

    __slots__ = ("out", "served", "snapshot", "hi_key", "limit", "count", "done")

    def __init__(self, snapshot: Optional[int], hi_key: Optional[Key],
                 limit: Optional[int]) -> None:
        self.out: List[Tuple[Key, object]] = []
        self.served: object = _SENTINEL
        self.snapshot = snapshot
        self.hi_key = hi_key
        self.limit = limit
        self.count = 0
        self.done = False

    def push(self, rec: RecordTuple) -> bool:
        """Consume one merged record; returns True when the scan is over."""
        key = rec[0]
        hi = self.hi_key
        if hi is not None and key >= hi:
            self.done = True
            return True
        served = self.served
        if key is served or key == served:
            return False
        if self.snapshot is not None and rec[1] > self.snapshot:
            return False
        self.served = key
        if rec[2] == DELETE:
            return False
        self.out.append((key, rec[3]))
        self.count += 1
        if self.limit is not None and self.count >= self.limit:
            self.done = True
            return True
        return False


class _ListStream:
    """In-memory sorted records (memtable / immutable snapshot lists)."""

    __slots__ = ("recs", "pos")

    def __init__(self, recs: SequenceType[RecordTuple]) -> None:
        self.recs = recs
        self.pos = 0

    def pull(self) -> Optional[RecordTuple]:
        pos = self.pos
        if pos >= len(self.recs):
            return None
        self.pos = pos + 1
        return self.recs[pos]

    def bulk_into(self, sink: _Sink,
                  stop_key: Optional[Key]) -> Optional[RecordTuple]:
        recs = self.recs
        n = len(recs)
        pos = self.pos
        push = sink.push
        while pos < n:
            rec = recs[pos]
            pos += 1
            if stop_key is not None and rec[0] >= stop_key:
                self.pos = pos
                return rec
            if push(rec):
                self.pos = pos
                return rec
        self.pos = pos
        return None

    def reseek(self, key: Key) -> None:
        self.pos = bisect.bisect_left(self.recs, key, key=lambda r: r[0])


class _SeqState:
    """Pull mirror of :meth:`Sequence.cursor`: same records, same charges."""

    __slots__ = ("runtime", "file_id", "seq", "recs", "starts", "first",
                 "last_block", "idx", "j", "b", "next_start", "charged_through",
                 "readahead")

    def __init__(self, runtime: Runtime, file_id: int, seq, lo_key: Optional[Key],
                 hi_key: Optional[Key], readahead: int = 8) -> None:
        i, j = seq.span_for_range(lo_key, hi_key)
        self.runtime = runtime
        self.file_id = file_id
        self.seq = seq
        recs = seq.run.records()  # pull-based readers walk tuples
        self.recs = recs
        starts = seq.block_start_idx
        self.starts = starts
        self.first = seq.first_block
        self.last_block = seq.first_block + seq.n_blocks  # exclusive
        self.idx = i
        self.j = j
        self.b = bisect.bisect_right(starts, i) - 1 if i < j else 0
        self.next_start = starts[self.b + 1] if self.b + 1 < len(starts) else len(recs)
        self.charged_through = -1
        self.readahead = readahead

    def pull(self) -> Optional[RecordTuple]:
        idx = self.idx
        if idx >= self.j:
            return None
        if idx >= self.next_start:
            self.b += 1
            starts = self.starts
            b1 = self.b + 1
            self.next_start = starts[b1] if b1 < len(starts) else len(self.recs)
        abs_block = self.first + self.b
        if abs_block > self.charged_through:
            stop = min(abs_block + self.readahead, self.last_block)
            self.runtime.fg_read_blocks(self.file_id, range(abs_block, stop))
            self.charged_through = stop - 1
        self.idx = idx + 1
        return self.recs[idx]

    def bulk_into(self, sink: _Sink,
                  stop_key: Optional[Key]) -> Optional[RecordTuple]:
        """Drain records with key < ``stop_key`` into the sink (tight loop).

        Returns the first pulled-but-unconsumed record (the stream's new
        head, already charged -- exactly the state the scalar merge leaves
        behind) or None when the span is exhausted.
        """
        recs = self.recs
        starts = self.starts
        n_starts = len(starts)
        nrec = len(recs)
        first = self.first
        last_block = self.last_block
        readahead = self.readahead
        fg = self.runtime.fg_read_blocks
        fid = self.file_id
        push = sink.push
        idx = self.idx
        j = self.j
        b = self.b
        next_start = self.next_start
        charged_through = self.charged_through
        try:
            while idx < j:
                if idx >= next_start:
                    b += 1
                    next_start = starts[b + 1] if b + 1 < n_starts else nrec
                abs_block = first + b
                if abs_block > charged_through:
                    stop = min(abs_block + readahead, last_block)
                    fg(fid, range(abs_block, stop))
                    charged_through = stop - 1
                rec = recs[idx]
                idx += 1
                if stop_key is not None and rec[0] >= stop_key:
                    return rec
                if push(rec):
                    return rec
            return None
        finally:
            self.idx = idx
            self.b = b
            self.next_start = next_start
            self.charged_through = charged_through

    def reseek(self, key: Optional[Key], hi_key: Optional[Key]) -> None:
        """Reposition using the key column; block charges reset so
        every consumed block is touched again (mostly cache hits)."""
        i, j = self.seq.span_for_range(key, hi_key)
        self.idx = i
        self.j = j
        starts = self.starts
        self.b = bisect.bisect_right(starts, i) - 1 if i < j else 0
        self.next_start = starts[self.b + 1] if self.b + 1 < len(starts) else len(self.recs)
        self.charged_through = -1


class _RawMerge:
    """Lazy mirror of the ``heapq.merge`` inside a multi-sequence node.

    The replacement for a returned head is pulled on the *next* ``pull()``
    ("owe" protocol), matching the suspended-generator timing of the scalar
    merge so charges never reorder across sequences.
    """

    __slots__ = ("states", "heads", "skeys", "owe")

    def __init__(self, states: List[_SeqState]) -> None:
        # Build order matches heapq.merge's first-next fill: one pull per
        # stream, in sequence order.
        self.states: List[_SeqState] = []
        self.heads: List[RecordTuple] = []
        self.skeys: List[Tuple[Key, int]] = []
        for st in states:
            rec = st.pull()
            if rec is not None:
                self.states.append(st)
                self.heads.append(rec)
                self.skeys.append(sort_key(rec))
        self.owe = -1

    def pull(self) -> Optional[RecordTuple]:
        owe = self.owe
        if owe >= 0:
            rec = self.states[owe].pull()
            if rec is None:
                del self.states[owe], self.heads[owe], self.skeys[owe]
            else:
                self.heads[owe] = rec
                self.skeys[owe] = sort_key(rec)
            self.owe = -1
        heads = self.heads
        if not heads:
            return None
        t = 0
        if len(heads) > 1:
            skeys = self.skeys
            best = skeys[0]
            for i in range(1, len(skeys)):
                if skeys[i] < best:
                    best = skeys[i]
                    t = i
        self.owe = t
        return heads[t]


class _ChainState:
    """Pull mirror of a per-level node chain (``yield from`` over cursors).

    ``walk()`` is the engine's lazy, restartable walk of the level -- a
    fresh in-order iterator over the non-empty tables of the scan's
    captured slice -- and ``walk(key)`` the same from the member that may
    hold ``key``.  The chain takes one table at a time and creates its
    state only on reaching it, so a node's first-block charges land exactly
    when the scalar chain generator would have issued them and the members
    a scan never reaches cost nothing.
    """

    __slots__ = ("runtime", "walk", "lo_key", "hi_key", "rest", "current")

    def __init__(self, runtime: Runtime, walk: Callable[..., Iterator],
                 lo_key: Optional[Key], hi_key: Optional[Key]) -> None:
        self.runtime = runtime
        self.walk = walk
        self.lo_key = lo_key
        self.hi_key = hi_key
        self.rest: Optional[Iterator] = None  # unstarted until the first pull
        self.current = None

    def _next_node(self):
        """Advance to the next table of the walk; None when it is over."""
        rest = self.rest
        if rest is None:
            rest = self.rest = self.walk()
        table = next(rest, None)
        if table is None:
            return None
        runtime, fid, lo, hi = self.runtime, table.file_id, self.lo_key, self.hi_key
        states = [_SeqState(runtime, fid, seq, lo, hi) for seq in table.sequences]
        cur = self.current = states[0] if len(states) == 1 else _RawMerge(states)
        return cur

    def pull(self) -> Optional[RecordTuple]:
        while True:
            cur = self.current or self._next_node()
            if cur is None:
                return None
            rec = cur.pull()
            if rec is not None:
                return rec
            self.current = None

    def bulk_into(self, sink: _Sink,
                  stop_key: Optional[Key]) -> Optional[RecordTuple]:
        while True:
            cur = self.current or self._next_node()
            if cur is None:
                return None
            if isinstance(cur, _SeqState):
                rec = cur.bulk_into(sink, stop_key)
                if rec is not None:
                    return rec
                if sink.done:
                    return None
                self.current = None
                continue
            # Multi-sequence node: per-record pulls through the raw merge.
            while True:
                rec = cur.pull()
                if rec is None:
                    self.current = None
                    break
                if stop_key is not None and rec[0] >= stop_key:
                    return rec
                if sink.push(rec):
                    return rec

    def reseek(self, key: Optional[Key]) -> None:
        """Restart the walk at the member that may hold ``key`` (the
        engine's fence bisect; no per-chain fence column is built)."""
        self.lo_key = key
        self.rest = self.walk(key)
        self.current = None
        self._next_node()


def chain_stream(runtime: Runtime, walk: Callable[..., Iterator],
                 lo_key: Optional[Key], hi_key: Optional[Key]) -> _ChainState:
    """One engine-plan stream: a level's overlapping node tables in order,
    reached through the engine's lazy ``walk`` (see :class:`_ChainState`)."""
    return _ChainState(runtime, walk, lo_key, hi_key)


def table_stream(runtime: Runtime, table, lo_key: Optional[Key],
                 hi_key: Optional[Key]) -> _ChainState:
    """One engine-plan stream for a single table (L0 files)."""
    return _ChainState(runtime, lambda key=None: iter((table,)), lo_key, hi_key)


def list_stream(recs: SequenceType[RecordTuple]) -> _ListStream:
    return _ListStream(recs)


def merge_scan(streams: list, *, snapshot: Optional[int] = None,
               hi_key: Optional[Key] = None,
               limit: Optional[int] = None) -> List[Tuple[Key, object]]:
    """Batched ``merge_visible``: same records, same charge order, no heap.

    ``streams`` are pull states in the scalar stream order (memtable first,
    then the engine plan).  A single stream is drained directly, mirroring
    ``merge_visible``'s no-merge fast path.
    """
    sink = _Sink(snapshot, hi_key, limit)
    if not streams:
        return sink.out
    if len(streams) == 1:
        streams[0].bulk_into(sink, None)
        return sink.out
    # Initial fill, in stream order (heapq.merge's lazy first-next fill
    # happens before any record is yielded, so the relative charge order is
    # the same).
    states = []
    heads = []
    skeys = []
    for st in streams:
        rec = st.pull()
        if rec is not None:
            states.append(st)
            heads.append(rec)
            skeys.append(sort_key(rec))
    while len(states) > 1:
        t = 0
        best = skeys[0]
        for i in range(1, len(skeys)):
            if skeys[i] < best:
                best = skeys[i]
                t = i
        if sink.push(heads[t]):
            return sink.out
        # Everything strictly below the next-best head must come from this
        # stream; drain it in bulk, then re-enter the merge with its new
        # (already-charged) head.
        stop_key = None
        for i in range(len(skeys)):
            if i != t and (stop_key is None or skeys[i][0] < stop_key):
                stop_key = skeys[i][0]
        rec = states[t].bulk_into(sink, stop_key)
        if sink.done:
            return sink.out
        if rec is None:
            del states[t], heads[t], skeys[t]
        else:
            heads[t] = rec
            skeys[t] = sort_key(rec)
    if states:
        if sink.push(heads[0]):
            return sink.out
        states[0].bulk_into(sink, None)
    return sink.out


class MergeScanner:
    """One-record-at-a-time view of the batched merge, for DbIterator.

    Pulls are owe-lazy (a returned head's replacement is fetched on the next
    call), so abandoning the scanner mid-stream issues no further charges.
    """

    __slots__ = ("streams", "states", "heads", "skeys", "owe", "built")

    def __init__(self, streams: list) -> None:
        self.streams = streams
        self.states: List[object] = []
        self.heads: List[RecordTuple] = []
        self.skeys: List[Tuple[Key, int]] = []
        self.owe = -1
        self.built = False

    def reset(self) -> None:
        """Forget merge state (after the underlying streams were reseeked)."""
        self.states = []
        self.heads = []
        self.skeys = []
        self.owe = -1
        self.built = False

    def pull(self) -> Optional[RecordTuple]:
        if not self.built:
            for st in self.streams:
                rec = st.pull()
                if rec is not None:
                    self.states.append(st)
                    self.heads.append(rec)
                    self.skeys.append(sort_key(rec))
            self.built = True
        owe = self.owe
        if owe >= 0:
            rec = self.states[owe].pull()
            if rec is None:
                del self.states[owe], self.heads[owe], self.skeys[owe]
            else:
                self.heads[owe] = rec
                self.skeys[owe] = sort_key(rec)
            self.owe = -1
        heads = self.heads
        if not heads:
            return None
        t = 0
        if len(heads) > 1:
            skeys = self.skeys
            best = skeys[0]
            for i in range(1, len(skeys)):
                if skeys[i] < best:
                    best = skeys[i]
                    t = i
        self.owe = t
        return heads[t]
