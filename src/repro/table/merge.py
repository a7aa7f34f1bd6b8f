"""K-way merging of sorted runs with MVCC garbage collection.

Merges (during compactions, leaf flushes, and IAM's merging levels) remove
outdated records while keeping every version some live snapshot still needs
(§5.2: "the actual deletes and updates are deferred and fulfilled during later
compactions").  Tombstones are only eliminated at the bottom level, where no
older data can exist beneath them.

The kernel is tiered by how much work the inputs actually need:

* **No live snapshots, uint64 keys** (every merge of every benchmark
  workload): only the newest version of each key can survive, so the runs'
  columns are concatenated, ordered with one ``lexsort`` and filtered with a
  first-of-key mask -- no per-record Python step.
* **Live snapshots or wider keys**: the general loop over record tuples --
  a pairwise index-pointer merge for two runs, ``heapq.merge`` beyond --
  walking the per-key view list with an advancing index.

All paths are record-identical to
:func:`repro.bench.reference.reference_merge_runs` (enforced by
``tests/test_merge_equivalence.py``).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence as PySequence

import numpy as np

from repro.common.records import DELETE, KEY, KIND, RecordTuple, SEQ, sort_key
from repro.table.run import Run


def _merge2(a: List[RecordTuple], b: List[RecordTuple]) -> List[RecordTuple]:
    """Pairwise merge of two (key asc, seq desc) sorted runs."""
    out: List[RecordTuple] = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ra = a[i]
        rb = b[j]
        # (key asc, seq desc): ra first if key smaller, or same key newer.
        ka, kb = ra[0], rb[0]
        if ka < kb or (ka == kb and ra[1] > rb[1]):
            append(ra)
            i += 1
        else:
            append(rb)
            j += 1
    if i < na:
        out.extend(a[i:])
    elif j < nb:
        out.extend(b[j:])
    return out


def _merge_newest(runs: PySequence[Run], drop_tombstones: bool) -> Run:
    """No-snapshot tier: keep only the newest version of each key.

    With no live snapshots every older version is unreachable, and a
    surviving tombstone is elided iff ``drop_tombstones`` (it is then by
    construction the oldest -- and only -- kept version of its key).
    """
    if len(runs) == 1:
        merged = runs[0]  # already (key asc, seq desc)
        order = None
    else:
        merged = Run.concat(runs)
        order = np.lexsort((~merged.seqs, merged.keys))
    if not merged.n:
        return merged
    keys = merged.keys if order is None else merged.keys[order]
    # The first record per key is its newest version.
    keep = np.empty(merged.n, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    if drop_tombstones:
        kinds = merged.kinds if order is None else merged.kinds[order]
        keep &= kinds != DELETE
    return merged.take(keep if order is None else order[keep])


_SENTINEL = object()


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

    # Views that must stay observable, newest first; None stands for "latest".
    snap_desc: List[int] = sorted(set(snapshots), reverse=True) if snapshots else []
    if not snap_desc:
        for run in runs:
            if run.okeys is not None:
                break
        else:
            return _merge_newest(runs, drop_tombstones)

    if len(runs) == 1:
        stream: Iterable[RecordTuple] = runs[0].records()
    elif len(runs) == 2:
        stream = _merge2(runs[0].records(), runs[1].records())
    else:
        stream = heapq.merge(*[run.records() for run in runs], key=sort_key)

    n_views = len(snap_desc)
    out: List[RecordTuple] = []
    kept: List[RecordTuple] = []  # versions of the current key, newest first
    cur_key = _SENTINEL
    vi = n_views  # index into snap_desc: views [vi:] are still unserved
    served_latest = False

    def emit() -> None:
        # A tombstone is only removable at the bottom when nothing older of
        # its key survives beneath it -- otherwise dropping it would
        # resurrect the older version for newer views.
        if drop_tombstones:
            while kept and kept[-1][KIND] == DELETE:
                kept.pop()
        out.extend(kept)
        kept.clear()

    for rec in stream:
        key = rec[KEY]
        if key != cur_key:
            emit()
            cur_key = key
            vi = 0
            served_latest = False
        seq = rec[SEQ]
        keep = False
        if not served_latest:
            served_latest = True
            keep = True
        # Serve every snapshot view this version is the newest visible for.
        while vi < n_views and snap_desc[vi] >= seq:
            vi += 1
            keep = True
        if keep:
            kept.append(rec)
    emit()
    return Run.from_records(out)
