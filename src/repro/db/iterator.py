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
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.records import (
    DELETE,
    KEY,
    KIND,
    Key,
    RecordTuple,
    SEQ,
    VALUE,
    check_scan,
    sort_key,
)


def merge_visible(streams: List[Iterable[RecordTuple]], *,
                  snapshot: Optional[int] = None,
                  hi_key: Optional[Key] = None,
                  limit: Optional[int] = None) -> Iterator[Tuple[Key, object]]:
    """Yield ``(key, value)`` pairs visible at ``snapshot``.

    ``hi_key`` is exclusive; ``limit`` caps the number of yielded pairs
    (0 yields nothing and pulls nothing, so it charges nothing).
    Tombstoned keys are skipped (they still consume nothing from the limit).
    """
    check_scan(None, None, limit)
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

