"""Memtable: the sorted in-memory component.

LevelDB uses a skip list; a Python skip list is strictly slower than the
standard library's primitives, so the memtable is one tier: a dict from each
key to its newest record -- the very tuple the write built and the WAL holds,
so an insert allocates nothing of its own -- and, for a key written more than
once, its older records (oldest first) in a second dict.  An insert is a dict
store with no call.  Ordered access sorts the keys once per rebuild
(``sorted_records`` keeps its run until the next ``add``); point reads go
straight to the dict.

The public behaviour is what the engines rely on:

* MVCC: every version is kept until flush; ``get`` honours snapshots and
  returns the stored record.
* Size accounting in *encoded* bytes, so the capacity threshold ``Ct``
  matches what the flush will write.
* ``sorted_records()`` emits a valid sorted run, (key asc, seq desc), as the
  columnar :class:`~repro.table.run.Run` the whole flush path carries, and
  keeps it until the next ``add``: a scan's memtable stream is a span of it
  (:func:`repro.table.scan.list_stream`), not a re-typed record list.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.check.diagnostics import invariant_error
from repro.common.records import SEQ, Key, RecordTuple, encoded_size
from repro.table.run import Run


class Memtable:
    """Sorted, MVCC-aware in-memory buffer."""

    __slots__ = ("key_size", "_latest", "_older", "nbytes", "n_records",
                 "min_seq", "max_seq", "_run")

    def __init__(self, key_size: int) -> None:
        self.key_size = key_size
        #: Newest record per key; older ones of keys written more than once.
        self._latest: Dict[Key, RecordTuple] = {}
        self._older: Dict[Key, List[RecordTuple]] = {}
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
        return len(self._latest)

    def add(self, rec: RecordTuple, nbytes: Optional[int] = None) -> None:
        """Insert one record of any kind (``nbytes``: its encoded size, when
        the caller holds it already)."""
        key, seq, _, _ = rec
        self._run = None
        latest = self._latest
        if key in latest:
            prev = latest[key]
            if prev[SEQ] >= seq:
                raise invariant_error(
                    "memtable-seq-order",
                    "memtable sequence numbers must increase per key",
                    key=key, last_seq=prev[SEQ], seq=seq)
            self._older.setdefault(key, []).append(prev)
        latest[key] = rec
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
        latest = self._latest
        if key not in latest:  # a miss costs no call
            return None
        rec = latest[key]
        if snapshot is None or rec[SEQ] <= snapshot:
            return rec
        for old in reversed(self._older.get(key, ())):
            if old[SEQ] <= snapshot:
                return old
        return None

    def iter_range(self, lo: Optional[Key] = None,
                   hi: Optional[Key] = None) -> List[RecordTuple]:
        """Records with ``lo <= key < hi`` in (key asc, seq desc) order.

        ``None`` bounds are open; every version is listed (the merge filters
        snapshots), by one comprehension -- no call per record.
        """
        latest = self._latest
        keys = sorted(latest)
        if lo is not None:
            keys = keys[bisect.bisect_left(keys, lo):]
        if hi is not None:
            keys = keys[:bisect.bisect_left(keys, hi)]
        older = self._older
        if not older:
            return list(map(latest.__getitem__, keys))
        return [rec for key in keys
                for rec in ((latest[key], *older[key][::-1]) if key in older
                            else (latest[key],))]

    def sorted_records(self) -> Run:
        """All records as one columnar sorted run, ready for flushing or
        scanning; built once and kept until the next :meth:`add`."""
        run = self._run
        if run is None:
            run = self._run = Run.from_records(self.iter_range())
        return run
