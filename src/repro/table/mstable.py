"""MSTable: the Multiple Sequence Table (§4.1).

An MSTable is one on-disk node file.  Data blocks fill from the beginning;
the clustered metadata (block indexes + Bloom filters) grows from the end;
the middle hole is sparse and occupies no space.  An SSTable is simply an
MSTable holding exactly one sequence, so the LSM engines reuse this class.

Sequences are kept in append order; because data always moves down the tree
in memtable-flush cohorts, a later sequence only ever holds newer records
than an earlier one.  Point reads therefore probe sequences newest-first and
stop at the first visible hit (§5.2).  A job's appended sequences get their
Bloom filters together, when it returns (:func:`finish_builds`).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Tuple

from repro.check.diagnostics import invariant_error
from repro.common.errors import InvariantViolation
from repro.common.hashing import MASK64
from repro.common.records import Key, RecordTuple, sort_key
from repro.filters.bloom import hash_pair
from repro.storage.runtime import Runtime
from repro.table.block import Sequence, finish_sequences
from repro.table.run import Run


class MSTable:
    """One on-disk node file holding one or more sorted sequences."""

    __slots__ = ("runtime", "file", "sequences", "probe_rows", "next_block", "key_size",
                 "bloom_bits_per_key", "deleted", "data_bytes",
                 "metadata_bytes", "n_records", "min_key", "max_key", "snap")

    def __init__(self, runtime: Runtime, *, key_size: int, bloom_bits_per_key: int) -> None:
        self.runtime = runtime
        self.file = runtime.create_file()
        self.sequences: List[Sequence] = []
        #: What :meth:`get` reads of each finished sequence, newest first:
        #: ``(min_key, max_key, min_seq, n_bits, n_hashes, bits, sequence)``.
        self.probe_rows: List[tuple] = []
        self.next_block = 0
        self.key_size = key_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self.deleted = False
        # Aggregates over ``sequences``, kept current (as ``snap`` is) by
        # the two places that change the list (append_sequence,
        # from_snapshot): level fence bisects and node-size checks read them.
        self.data_bytes = 0
        self.metadata_bytes = 0
        self.n_records = 0
        # Keys once a sequence is appended, None while the table is empty:
        # ``Any``, not ``Optional[Key]``, as fence compares only ever see
        # non-empty tables.
        self.min_key: Any = None
        self.max_key: Any = None
        #: The manifest checkpoint's owned snapshot: sequences are immutable,
        #: so the tuple pins the list and the layout cursor, and no file leaks.
        self.snap: Tuple[int, int, int, Tuple[Sequence, ...]] = (key_size, bloom_bits_per_key, 0, ())

    # ------------------------------------------------------------- properties
    @property
    def file_id(self) -> int:
        return self.file.file_id

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    def _account(self, seq: Sequence) -> None:
        """Fold one more sequence into the aggregates."""
        self.data_bytes += seq.nbytes
        self.metadata_bytes += seq.metadata_bytes
        self.n_records += seq.n_records
        if self.min_key is None or seq.min_key < self.min_key:
            self.min_key = seq.min_key
        if self.max_key is None or seq.max_key > self.max_key:
            self.max_key = seq.max_key

    def check_invariants(self, level: int) -> None:
        """Raise a named diagnostic when the table disagrees with its file
        (``node-file-agreement``), its probe rows or block layout drift
        (``sequence-layout``), or a sequence is out of order
        (``sequence-sorted``); ``level`` is the context's level number."""
        file = self.file
        expected = self.data_bytes + self.metadata_bytes
        if file.deleted or file.file_id not in self.runtime.disk.files or file.nbytes != expected:
            raise invariant_error(
                "node-file-agreement", "table file is deleted or its bytes disagree with the table",
                level=level, file=file.file_id, deleted=file.deleted, file_bytes=file.nbytes,
                table_bytes=expected)
        if self.probe_rows != [_probe_row(seq) for seq in reversed(self.sequences)]:
            raise invariant_error("sequence-layout",
                                  "probe rows are not reversed(sequences)",
                                  level=level, file=file.file_id)
        prev_end = 0
        for seq in self.sequences:
            if seq.first_block < prev_end:
                raise invariant_error(
                    "sequence-layout", "sequence blocks overlap an earlier sequence",
                    level=level, file=file.file_id, first_block=seq.first_block,
                    prev_end=prev_end)
            prev_end = seq.first_block + seq.n_blocks
            run = seq.run
            if not (run.n and run.is_sorted() and run.key_at(0) == seq.min_key
                    and run.key_at(-1) == seq.max_key):
                raise invariant_error(
                    "sequence-sorted", "sequence is empty, not (key asc, seq desc) sorted, "
                    "or its min/max keys disagree with its records",
                    level=level, file=file.file_id, n_records=run.n,
                    min_key=seq.min_key, max_key=seq.max_key)

    def resident_bytes(self) -> int:
        """``mincore`` probe: cached bytes of this file (§5.1.3)."""
        return self.runtime.cache.resident_bytes(self.file_id)

    # ---------------------------------------------------------------- writing
    def append_sequence(self, run: Run, *, level: int) -> Tuple[Sequence, float]:
        """Append one sorted run; returns (sequence, device-time debt).

        Charges a sequential background write of data + metadata attributed
        to ``level``; the written data blocks enter the page cache.
        """
        if self.deleted:
            raise InvariantViolation("append to a deleted MSTable")
        seq = Sequence(
            run,
            key_size=self.key_size,
            block_size=self.runtime.options.block_size,
            bloom_bits_per_key=self.bloom_bits_per_key,
            first_block=self.next_block,
        )
        self.next_block += seq.n_blocks
        self.sequences.append(seq)
        self._account(seq)
        self.snap = (self.key_size, self.bloom_bits_per_key, self.next_block,
                     tuple(self.sequences))
        builds = self.runtime.pool.builds
        if builds is None:
            finish_builds([(self, seq)])
        else:
            builds.append((self, seq))
        debt = self.runtime.bg_write_run(
            self.file,
            seq.nbytes + seq.metadata_bytes,
            level=level,
            first_block=seq.first_block,
            n_cache_blocks=seq.n_blocks,
        )
        return seq, debt

    def delete(self) -> None:
        """Release the file (after a merge/split replaced this node)."""
        if not self.deleted:
            self.deleted = True
            self.runtime.delete_file(self.file)

    # --------------------------------------------------------------- recovery
    @staticmethod
    def from_snapshot(runtime: Runtime,
                      snap: Tuple[int, int, int, Tuple[Sequence, ...]]) -> "MSTable":
        """Rebuild a table from a :attr:`snap` onto a fresh file.

        Space accounting only -- recovery re-opens tables, it does not
        rewrite them -- and the fresh file starts cache-cold.
        """
        key_size, bloom_bits, next_block, sequences = snap
        table = MSTable(runtime, key_size=key_size,
                        bloom_bits_per_key=bloom_bits)
        table.sequences = list(sequences)
        table.next_block = next_block
        table.snap = snap
        for seq in sequences:
            table._account(seq)
        table.probe_rows = [_probe_row(seq) for seq in reversed(sequences)]
        nbytes = table.data_bytes + table.metadata_bytes
        if nbytes:
            table.file.grow(nbytes)
        return table

    # ---------------------------------------------------------------- reading
    def get(self, key: Key, snapshot: Optional[int] = None,
            hashes: Optional[Tuple[int, int]] = None,
            ) -> Tuple[Optional[RecordTuple], float]:
        """Newest visible version across sequences; (record|None, latency).

        ``hashes`` is the caller's ``hash_pair(key)``.  Per probe row this is
        ``Sequence.get`` with ``BloomFilter.might_contain`` written out on
        the row's ``bytes``: only a filter pass calls into the sequence.
        """
        latency = 0.0
        runtime = self.runtime
        metrics = runtime.metrics
        file_id = self.file.file_id
        h1, h2 = hashes or hash_pair(key)
        for min_key, max_key, min_seq, n_bits, n_hashes, bits, seq in self.probe_rows:
            if key < min_key or key > max_key or (snapshot is not None and min_seq > snapshot):
                continue
            metrics.bloom_probes += 1
            h = h1
            for _ in range(n_hashes):
                idx = h % n_bits
                if not bits[idx >> 3] >> (idx & 7) & 1:
                    metrics.bloom_negatives += 1
                    break
                h = (h + h2) & MASK64
            else:
                rec, lat = seq.lookup(runtime, file_id, key, snapshot)
                latency += lat
                if rec is not None:
                    return rec, latency
        return None, latency

    def cursor(self, lo_key: Optional[Key] = None,
               hi_key: Optional[Key] = None) -> Iterator[RecordTuple]:
        """Merged lazily-charging iterator over the whole node's range slice.

        Opens one cursor per sequence (each seeks independently -- the
        multi-sequence scan cost of append trees, §5.3.2) and merges them.
        """
        cursors = [
            seq.cursor(self.runtime, self.file_id, lo_key, hi_key)
            for seq in self.sequences
        ]
        if len(cursors) == 1:
            return cursors[0]
        return heapq.merge(*cursors, key=sort_key)

    def compaction_read_debt(self) -> float:
        """Background-read debt for consuming this table in a compaction.

        Resident bytes are free (read from page cache); the paper's mixed
        level counts on exactly this (§5.1.2).
        """
        total = self.data_bytes
        resident = min(self.resident_bytes(), total)
        return self.runtime.bg_read_run(self.file_id, total, resident_bytes=resident)


def _probe_row(seq: Sequence) -> tuple:
    """The :attr:`MSTable.probe_rows` entry of a finished sequence."""
    bloom = seq.bloom
    return (seq.min_key, seq.max_key, seq.min_seq, bloom.n_bits, bloom.n_hashes,
            bloom.bits, seq)


def finish_builds(builds: List[Tuple[MSTable, Sequence]]) -> None:
    """Finish ``(table, sequence)`` appends, in append order: their filters
    in one build, then each in front of its table's probe rows."""
    width = builds[0][0].bloom_bits_per_key
    finish_sequences([seq for table, seq in builds
                      if table.bloom_bits_per_key == width], width)
    for table, seq in builds:
        if table.bloom_bits_per_key != width:  # never within one engine's job
            finish_sequences([seq], table.bloom_bits_per_key)
        table.probe_rows.insert(0, _probe_row(seq))
