"""Memtable: the sorted in-memory component.

LevelDB uses a skip list; a Python skip list is strictly slower than the
standard library's primitives, so the memtable keeps a two-tier key index:

* ``_sorted_keys`` -- distinct keys in sorted order (the *base* tier);
* ``_delta_keys``  -- distinct keys inserted since the last consolidation,
  in arrival order (the *delta* tier).

Inserting a new key appends to the delta in O(1); ordered access
(``iter_range`` / ``sorted_records``) consolidates the delta into the base
lazily.  Consolidation sorts the delta and re-sorts the concatenation, which
Timsort handles in near-linear time because both halves are runs -- so a bulk
load of n records costs O(n log n) total instead of the O(n^2) element shifts
of per-record ``bisect.insort``.  Point reads never touch the key index: they
go straight to the per-key version map.

The public behaviour is what the engines rely on:

* MVCC: every version is kept until flush; ``get`` honours snapshots.
* Size accounting in *encoded* bytes, so the capacity threshold ``Ct``
  matches what the flush will write.
* ``sorted_records()`` emits a valid sorted run, (key asc, seq desc), as the
  columnar :class:`~repro.table.run.Run` the whole flush path carries, and
  keeps it until the next ``add``: a scan's memtable stream is a span of it
  (:func:`repro.table.scan.list_stream`), not a re-typed record list.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.check.diagnostics import invariant_error
from repro.common.records import (
    Key,
    RecordTuple,
    encoded_size,
)
from repro.table.run import Run

#: Version entry stored per key: (seq, kind, vsize).
Version = Tuple[int, int, int]


class Memtable:
    """Sorted, MVCC-aware in-memory buffer."""

    __slots__ = ("key_size", "_sorted_keys", "_delta_keys", "_versions",
                 "nbytes", "n_records", "min_seq", "max_seq", "_run")

    def __init__(self, key_size: int) -> None:
        self.key_size = key_size
        self._sorted_keys: List = []
        self._delta_keys: List = []
        self._versions: Dict[object, List[Version]] = {}
        self.nbytes = 0
        self.n_records = 0
        self.min_seq: Optional[int] = None
        self.max_seq: Optional[int] = None
        #: :meth:`sorted_records`' run, until the next :meth:`add`.
        self._run: Optional[Run] = None

    def __len__(self) -> int:
        return self.n_records

    @property
    def n_keys(self) -> int:
        return len(self._versions)

    def add(self, rec: RecordTuple, nbytes: Optional[int] = None) -> None:
        """Insert one record of any kind (``nbytes``: its encoded size, when
        the caller holds it already)."""
        key, seq, kind, vsize = rec
        self._run = None
        versions = self._versions.get(key)
        if versions is None:
            self._delta_keys.append(key)
            self._versions[key] = [(seq, kind, vsize)]
        else:
            if versions[-1][0] >= seq:
                raise invariant_error(
                    "memtable-seq-order",
                    "memtable sequence numbers must increase per key",
                    key=key, last_seq=versions[-1][0], seq=seq)
            versions.append((seq, kind, vsize))
        if nbytes is None:
            nbytes = encoded_size(rec, self.key_size)
        self.nbytes += nbytes
        self.n_records += 1
        if self.min_seq is None or seq < self.min_seq:
            self.min_seq = seq
        if self.max_seq is None or seq > self.max_seq:
            self.max_seq = seq

    def get(self, key: Key,
            snapshot: Optional[int] = None) -> Optional[RecordTuple]:
        """Newest version of ``key`` visible at ``snapshot`` (None = latest)."""
        versions = self._versions.get(key)
        if versions is None:
            return None
        if snapshot is None:
            seq, kind, vsize = versions[-1]
            return (key, seq, kind, vsize)
        for seq, kind, vsize in reversed(versions):
            if seq <= snapshot:
                return (key, seq, kind, vsize)
        return None

    def _consolidate(self) -> List:
        """Fold the delta tier into the sorted base; returns the base."""
        keys = self._sorted_keys
        delta = self._delta_keys
        if delta:
            # base and (sorted) delta are both runs: Timsort merges them in
            # near-linear time via galloping.
            delta.sort()
            keys.extend(delta)
            keys.sort()
            self._delta_keys = []
        return keys

    def iter_range(self, lo: Optional[Key] = None,
                   hi: Optional[Key] = None) -> List[RecordTuple]:
        """Records with ``lo <= key < hi`` in (key asc, seq desc) order.

        ``None`` bounds are open; every version is listed (the merge filters
        snapshots), by one comprehension -- no call per record.
        """
        keys = self._consolidate()
        start = 0 if lo is None else bisect.bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect.bisect_left(keys, hi)
        versions = self._versions
        return [(key, seq, kind, vsize) for key in keys[start:stop]
                for seq, kind, vsize in versions[key][::-1]]

    def sorted_records(self) -> Run:
        """All records as one columnar sorted run, ready for flushing or
        scanning; built once and kept until the next :meth:`add`."""
        run = self._run
        if run is None:
            keys = self._consolidate()
            per_key = list(map(self._versions.__getitem__, keys))
            if self.n_records == len(keys):
                versions = [v[0] for v in per_key]
            else:
                # Some key holds several versions: newest first within it.
                keys = [key for key, v in zip(keys, per_key) for _ in v]
                versions = list(chain.from_iterable(map(reversed, per_key)))
            run = self._run = (Run.from_columns(keys, *zip(*versions))
                               if versions else Run.from_records(()))
        return run
