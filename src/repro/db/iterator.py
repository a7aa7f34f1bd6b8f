"""The merging iterator: snapshot-consistent visibility over sorted streams.

Scans merge the memtable, the immutable memtable and one cursor per
independently-seeking on-disk component (§5.2: "a scan checks memtable,
immutable memtable and all sequences in a node in every on-disk level and
merges them").  Every stream yields records in (key asc, seq desc) order;
this module collapses them to the newest visible version per key, elides
tombstones, and applies bound/limit cut-offs.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.records import (
    DELETE,
    KEY,
    KIND,
    Key,
    RecordTuple,
    SEQ,
    VALUE,
    sort_key,
)
from repro.table.scan import MergeScanner, list_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB


def check_limit(limit: Optional[int]) -> None:
    """Reject a negative scan ``limit`` (0 validly asks for no rows)."""
    if limit is not None and limit < 0:
        raise ConfigError(f"scan limit must be >= 0, got {limit}")


def merge_visible(streams: List[Iterable[RecordTuple]], *,
                  snapshot: Optional[int] = None,
                  hi_key: Optional[Key] = None,
                  limit: Optional[int] = None) -> Iterator[Tuple[object, object]]:
    """Yield ``(key, value)`` pairs visible at ``snapshot``.

    ``hi_key`` is exclusive; ``limit`` caps the number of yielded pairs
    (0 yields nothing and pulls nothing, so it charges nothing).
    Tombstoned keys are skipped (they still consume nothing from the limit).
    """
    check_limit(limit)
    live = [s for s in streams if s is not None]
    if not live or limit == 0:
        return
    merged = live[0] if len(live) == 1 else heapq.merge(*live, key=sort_key)
    served_key = _sentinel = object()
    count = 0
    for rec in merged:
        key = rec[KEY]
        if hi_key is not None and key >= hi_key:
            break
        if key is served_key or key == served_key:
            continue
        if snapshot is not None and rec[SEQ] > snapshot:
            # Invisible version; an older visible one may follow for this key.
            continue
        served_key = key
        if rec[KIND] == DELETE:
            continue
        yield (key, rec[VALUE])
        count += 1
        if limit is not None and count >= limit:
            break


_SENTINEL = object()


class DbIterator:
    """Seekable ordered iterator over ``(key, value)`` pairs.

    The view is fixed at creation time (plus the given snapshot), exactly
    like :meth:`repro.db.iamdb.IamDB.iterate`.  On engines with a batched
    scan plan, :meth:`seek` repositions the pull states through the
    per-sequence key columns (one bisect per stream) instead of tearing the
    cursor stack down and re-running the per-level walks; consumed blocks
    are re-touched on the way back through, which the page cache absorbs.
    Engines without a plan fall back to rebuilding the scalar merge.
    """

    def __init__(self, db: "IamDB", lo_key: Optional[Key],
                 hi_key: Optional[Key], snapshot: Optional[int]) -> None:
        self._db = db
        self._lo_key = lo_key
        self._hi_key = hi_key
        self._snapshot = snapshot
        self._served: object = _SENTINEL
        plan = db.engine.scan_plan(lo_key, hi_key)
        if plan is None:
            self._scanner: Optional[MergeScanner] = None
            self._fallback = db.iterate(lo_key, hi_key, snapshot=snapshot)
        else:
            streams = [list_stream(list(db.memtable.iter_range(lo_key, hi_key)))]
            if db.immutable is not None:
                streams.append(list_stream(
                    list(db.immutable.iter_range(lo_key, hi_key))))
            streams.extend(plan)
            self._scanner = MergeScanner(streams)
            self._fallback = None

    def __iter__(self) -> "DbIterator":
        return self

    def __next__(self) -> Tuple[Key, object]:
        if self._scanner is None:
            return next(self._fallback)
        scanner = self._scanner
        hi_key = self._hi_key
        snapshot = self._snapshot
        while True:
            rec = scanner.pull()
            if rec is None:
                raise StopIteration
            key = rec[KEY]
            if hi_key is not None and key >= hi_key:
                raise StopIteration
            served = self._served
            if key is served or key == served:
                continue
            if snapshot is not None and rec[SEQ] > snapshot:
                continue
            self._served = key
            if rec[KIND] == DELETE:
                continue
            return (key, rec[VALUE])

    def seek(self, key: Key) -> None:
        """Reposition at the first visible pair with key >= ``key``.

        The target is clamped into the iterator's ``[lo_key, hi_key)``
        bounds; seeking backwards is allowed.
        """
        target = key
        if self._lo_key is not None and target < self._lo_key:
            target = self._lo_key
        self._served = _SENTINEL
        if self._scanner is None:
            self._fallback = self._db.iterate(target, self._hi_key,
                                              snapshot=self._snapshot)
            return
        for stream in self._scanner.streams:
            stream.reseek(target)
        self._scanner.reset()
