"""K-way merging of sorted runs with MVCC garbage collection.

Merges (during compactions, leaf flushes, and IAM's merging levels) remove
outdated records while keeping every version some live snapshot still needs
(§5.2: "the actual deletes and updates are deferred and fulfilled during later
compactions").  Tombstones are only eliminated at the bottom level, where no
older data can exist beneath them.

One kernel serves every merge: the runs' columns are concatenated, ordered
with one ``lexsort`` by (key asc, seq desc) and filtered with a keep mask --
no per-record Python step, whatever the inputs.  The mask keeps

* the first version of each key (the "latest" view), and
* with live snapshots, each later version some snapshot in
  ``[seq, seq of the version before it)`` sees as its newest.

With ``drop_tombstones`` a kept tombstone then goes unless an older kept PUT
of its key follows it: dropping that tombstone would let the views it
serves see the PUT again.

The output is record-identical to
:func:`repro.bench.reference.reference_merge_runs` (enforced by
``tests/test_merge_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence as PySequence

import numpy as np

from repro.common.records import DELETE
from repro.table.run import Run


def merge_runs(runs: PySequence[Run], *, drop_tombstones: bool = False,
               snapshots: Optional[PySequence[int]] = None) -> Run:
    """Merge sorted runs into one, discarding obsolete versions.

    ``runs`` are (key asc, seq desc) sorted; the output is too.  A version is
    kept iff it is the newest version visible to the "latest" view or to one
    of the live ``snapshots`` *within this merge*.  With ``drop_tombstones``
    (bottom level only) surviving tombstones are elided entirely.
    """
    if not runs:
        return Run.from_records(())
    if len(runs) == 1:
        merged = runs[0]  # already (key asc, seq desc)
        order = None
    else:
        merged = Run.concat(runs)
        order = np.lexsort((~merged.seqs, merged.keys))
    n = merged.n
    if not n:
        return merged
    keys = merged.keys if order is None else merged.keys[order]
    # The first record per key is its newest version.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if drop_tombstones:
        put = (merged.kinds if order is None else merged.kinds[order]) != DELETE
    if snapshots:
        seqs = merged.seqs if order is None else merged.seqs[order]
        # Snapshots below each version: a change against the (newer)
        # predecessor means some snapshot sees this version as its newest.
        below = np.searchsorted(np.array(sorted(set(snapshots)), dtype=np.uint64), seqs)
        keep = first.copy()
        keep[1:] |= below[1:] != below[:-1]
        if drop_tombstones:
            pos = np.arange(n)
            last_put = np.maximum.reduceat(np.where(keep & put, pos, -1),
                                           np.flatnonzero(first))
            keep &= put | (pos < last_put[np.cumsum(first) - 1])
    else:
        # With no snapshot every older version is unreachable, and a kept
        # tombstone is the only -- so the oldest -- kept version of its key.
        keep = first
        if drop_tombstones:
            keep &= put
    return merged.take(keep if order is None else order[keep])
