"""Write-ahead log.

Every user write is appended to the log before entering the memtable (§5.2,
identical to LevelDB).  Appends are sequential device writes charged in the
foreground; WAL bytes are tracked separately because the paper's write
amplification numbers exclude the log (§6.2).

The log's *content* (the record tuples) survives a simulated crash -- it is
the durable source for recovery (:mod:`repro.db.recovery`).  After a memtable
flush becomes durable, the covered prefix is truncated; the surviving suffix
is rewritten into a fresh file and that rewrite is charged like any other
WAL write (device time + ``add_wal_bytes``), as LevelDB's log rotation does.

A *torn tail* (``tear``) models the crash-time loss of un-synced records:
the kept prefix always snaps down to a group-commit boundary, so a batch is
either wholly present or wholly absent after recovery -- the durability
contract asserted by the crash-point matrix (:mod:`repro.faults.crash`).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import List, Optional

from repro.common.records import RecordTuple, SEQ, encoded_size, encoded_size_many
from repro.storage.runtime import Runtime

_SEQ_OF = itemgetter(SEQ)


class WriteAheadLog:
    """Sequential log of record tuples on the simulated device, in sequence
    order: appends carry increasing sequence numbers, and ``tear`` /
    ``truncate_through`` keep a prefix / suffix."""

    def __init__(self, runtime: Runtime, key_size: int) -> None:
        self.runtime = runtime
        self.key_size = key_size
        self._file = runtime.create_file()
        self._records: List[RecordTuple] = []
        #: Record-count positions of group-commit boundaries: after each
        #: append/append_many the current length is a consistent cut.
        self._bounds: List[int] = []
        self.appended_records = 0

    @property
    def nbytes(self) -> int:
        return self._file.nbytes

    @property
    def file_id(self) -> int:
        return self._file.file_id

    def __len__(self) -> int:
        return len(self._records)

    def append(self, rec: RecordTuple, nbytes: Optional[int] = None) -> float:
        """Append one record (``nbytes``: its encoded size, when the caller
        holds it already); returns the foreground write latency."""
        if nbytes is None:
            nbytes = encoded_size(rec, self.key_size)
        records = self._records
        records.append(rec)
        self._bounds.append(len(records))
        self._file.grow(nbytes)
        runtime = self.runtime
        runtime.metrics.wal_bytes += nbytes
        self.appended_records += 1
        # Buffered sequential append: paced by bandwidth, never queued
        # behind compaction I/O (see SimDisk.fg_stream).
        return runtime.disk.fg_stream(nbytes_write=nbytes)

    def append_many(self, recs: List[RecordTuple]) -> float:
        """Group-commit: append a batch under one sequential write run."""
        if not recs:
            return 0.0
        nbytes = encoded_size_many(recs, self.key_size)
        self._records.extend(recs)
        self._bounds.append(len(self._records))
        self._file.grow(nbytes)
        self.runtime.metrics.add_wal_bytes(nbytes)
        self.appended_records += len(recs)
        return self.runtime.disk.fg_stream(nbytes_write=nbytes)

    def truncate_through(self, seq: int) -> float:
        """Discard log entries with sequence numbers <= ``seq``.

        Called once a memtable flush covering those records is durable.  The
        old log file is released and a fresh one started, as LevelDB does.
        The surviving suffix is *rewritten* into the fresh file, and that
        rewrite is charged (device time and WAL bytes) -- it is real I/O,
        not free.  Returns the foreground latency of the rewrite.
        """
        dropped = bisect_right(self._records, seq, key=_SEQ_OF)
        self._records = self._records[dropped:]
        self._bounds = [b - dropped for b in self._bounds if b > dropped]
        old = self._file
        self._file = self.runtime.create_file()
        remaining = encoded_size_many(self._records, self.key_size)
        latency = 0.0
        if remaining:
            self._file.grow(remaining)
            self.runtime.metrics.add_wal_bytes(remaining)
            latency = self.runtime.disk.fg_stream(nbytes_write=remaining)
        self.runtime.delete_file(old)
        return latency

    def tear(self, drop_records: int) -> int:
        """Crash model: lose up to ``drop_records`` un-synced tail records.

        The keep-point snaps *down* to the last group-commit boundary, so no
        batch is ever half-lost.  No I/O is charged -- nothing is written at
        crash time; the surviving prefix simply moves to a fresh file (space
        accounting only).  Returns the number of records actually dropped.
        """
        if drop_records <= 0 or not self._records:
            return 0
        want_keep = max(0, len(self._records) - drop_records)
        keep = 0
        for b in self._bounds:
            if b <= want_keep:
                keep = b
            else:
                break
        dropped = len(self._records) - keep
        self._records = self._records[:keep]
        self._bounds = [b for b in self._bounds if b <= keep]
        old = self._file
        self._file = self.runtime.create_file()
        remaining = encoded_size_many(self._records, self.key_size)
        if remaining:
            self._file.grow(remaining)
        self.runtime.delete_file(old)
        return dropped

    def replay(self) -> List[RecordTuple]:
        """Records that survive a crash (ordered by append time)."""
        return list(self._records)
