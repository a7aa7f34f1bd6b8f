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
    bad_key,
    sort_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.iamdb import IamDB


def check_limit(limit: Optional[int]) -> None:
    """Reject a negative scan ``limit`` (0 validly asks for no rows)."""
    if limit is not None and limit < 0:
        raise ConfigError(f"scan limit must be >= 0, got {limit}")


def check_bounds(lo_key: Optional[Key], hi_key: Optional[Key]) -> None:
    """Reject a scan bound that is not a Python int (None leaves it open)."""
    if lo_key is not None and type(lo_key) is not int:
        raise bad_key(lo_key)
    if hi_key is not None and type(hi_key) is not int:
        raise bad_key(hi_key)


def merge_visible(streams: List[Iterable[RecordTuple]], *,
                  snapshot: Optional[int] = None,
                  hi_key: Optional[Key] = None,
                  limit: Optional[int] = None) -> Iterator[Tuple[Key, object]]:
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


class DbIterator:
    """Seekable ordered iterator over ``(key, value)`` pairs.

    It is :meth:`repro.db.iamdb.IamDB.iterate` plus :meth:`seek`, and the
    seek contract is exact: after ``seek(k)`` the iterator is
    indistinguishable -- rows and charges -- from a fresh
    ``iterate(max(k, lo_key), hi_key, snapshot=snapshot)``.  So a seek
    costs what opening an iterator costs (the per-level fence bisects; no
    I/O until the next row is pulled), blocks consumed before the seek are
    not touched again, and the view of the store is the one at the seek.
    """

    def __init__(self, db: "IamDB", lo_key: Optional[Key],
                 hi_key: Optional[Key], snapshot: Optional[int]) -> None:
        self._db = db
        self._lo_key = lo_key
        self._hi_key = hi_key
        self._snapshot = snapshot
        self._rows = db.iterate(lo_key, hi_key, snapshot=snapshot)

    def __iter__(self) -> "DbIterator":
        return self

    def __next__(self) -> Tuple[Key, object]:
        return next(self._rows)

    def seek(self, key: Key) -> None:
        """Reposition at the first visible pair with key >= ``key``.

        The target is clamped into the iterator's ``[lo_key, hi_key)``
        bounds; seeking backwards is allowed.
        """
        if type(key) is not int:
            raise bad_key(key)
        if self._lo_key is not None and key < self._lo_key:
            key = self._lo_key
        self._rows = self._db.iterate(key, self._hi_key,
                                      snapshot=self._snapshot)
