"""Sorted sequences and their block layout.

A :class:`Sequence` is one sorted run inside an MSTable (§4.1): records are
partitioned into fixed-size data blocks; the index (block first-keys) and the
Bloom filter form the sequence's metadata, which the paper assumes is always
cached (§2.1), so metadata access costs no device I/O.  Record *content* is
the sequence's columnar :class:`~repro.table.run.Run` (the simulation
substrate); device reads are charged per block through
:meth:`repro.storage.runtime.Runtime.fg_read_blocks`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional, Tuple

from repro.common.errors import InvariantViolation
from repro.common.records import Key, RECORD_OVERHEAD, RecordTuple
from repro.filters.bloom import BloomFilter
from repro.storage.runtime import Runtime
from repro.table.run import Run

#: Per-block index entry overhead charged as metadata (key + offset).
INDEX_ENTRY_BYTES = 24

#: Blocks a scan cursor charges per read-ahead chunk (the paper's testbed
#: enables filesystem read-ahead, §6.1).  The scan planner replays the
#: cursor's charges, so it reads the same constant.
READAHEAD_BLOCKS = 8


class Sequence:
    """One immutable sorted run: records + block index + Bloom filter."""

    __slots__ = (
        "run",
        "n_records",
        "nbytes",
        "metadata_bytes",
        "first_block",
        "n_blocks",
        "block_start_idx",
        "bloom",
        "min_key",
        "max_key",
        "min_seq",
        "max_seq",
        "key_view",
        "hit_views",
    )

    def __init__(self, run: Run, *, key_size: int, block_size: int,
                 bloom_bits_per_key: int, first_block: int) -> None:
        n = run.n
        if not n:
            raise InvariantViolation("a Sequence must hold at least one record")
        self.run = run
        self.n_records = n
        self.first_block = first_block
        # Block layout: greedy fill up to block_size encoded bytes per block
        # (always at least one record).
        sizes = run.sizes.tolist()
        if sizes.count(sizes[0]) == n:
            # One record size throughout: every block takes the same count.
            record_bytes = key_size + RECORD_OVERHEAD + sizes[0]
            self.nbytes = n * record_bytes
            # Kept as the range it is: the scan planner finds a chunk as
            # ``i // step`` instead of bisecting a list.
            starts = range(0, n, block_size // record_bytes or 1)
        else:
            # Each block is the longest record prefix that fits, found by
            # bisecting the cumulative size column.
            ends = run.encoded_ends(key_size)
            self.nbytes = ends[-1]
            starts = [0]
            start = base = 0
            while True:
                stop = max(bisect_right(ends, base + block_size, start), start + 1)
                if stop >= n:
                    break
                starts.append(stop)
                base = ends[stop - 1]
                start = stop
        self.block_start_idx = starts
        self.n_blocks = len(starts)
        #: Keys as Python ints, zero-copy: what every point read bisects.
        keys = self.key_view = run.key_view()
        #: The other columns likewise, opened by the first point-read hit.
        self.hit_views: Optional[Tuple[Any, Any, Any]] = None
        self.min_key = keys[0]
        self.max_key = keys[-1]
        seqs = run.seqs.tolist()
        self.min_seq = min(seqs)
        self.max_seq = max(seqs)
        self.bloom = BloomFilter.build(run.keys, bloom_bits_per_key, run.hashes)
        run.hashes = None
        self.metadata_bytes = self.bloom.nbytes + INDEX_ENTRY_BYTES * self.n_blocks

    def __len__(self) -> int:
        return self.n_records

    def __deepcopy__(self, memo: dict) -> "Sequence":
        # Immutable once built: a cloned store shares its sequences with its
        # base, as MSTable.snapshot() already does.
        return self

    # ------------------------------------------------------------- block math
    def span_for_range(self, lo_key: Optional[Key],
                       hi_key: Optional[Key]) -> Tuple[int, int]:
        """Record index range [i, j) with lo_key <= key <= hi_key (inclusive)."""
        keys = self.key_view
        i = 0 if lo_key is None else bisect_left(keys, lo_key)
        j = self.n_records if hi_key is None else bisect_right(keys, hi_key)
        return i, j

    def _blocks_for_span(self, i: int, j: int) -> range:
        """File-relative block numbers covering record indices [i, j)."""
        if i >= j:
            return range(0)
        starts = self.block_start_idx
        b_lo = bisect_right(starts, i) - 1
        b_hi = bisect_right(starts, j - 1) - 1
        return range(self.first_block + b_lo, self.first_block + b_hi + 1)

    def block_numbers(self) -> range:
        """All file-relative block numbers of this sequence."""
        return range(self.first_block, self.first_block + self.n_blocks)

    # ------------------------------------------------------------------ reads
    def get(self, runtime: Runtime, file_id: int, key: Key,
            snapshot: Optional[int] = None,
            hashes: Optional[Tuple[int, int]] = None,
            ) -> Tuple[Optional[RecordTuple], float]:
        """Newest visible version of ``key``; returns (record|None, latency).

        Charges block reads only when the Bloom filter and key range admit
        the key (metadata checks are free, §2.1).  ``hashes`` is the
        caller's ``hash_pair(key)``; without it the filter derives its own.
        """
        if key < self.min_key or key > self.max_key:
            return None, 0.0
        metrics = runtime.metrics
        metrics.bloom_probes += 1
        if not self.bloom.might_contain(key, hashes):
            metrics.bloom_negatives += 1
            return None, 0.0
        return self.lookup(runtime, file_id, key, snapshot)

    def lookup(self, runtime: Runtime, file_id: int, key: Key,
               snapshot: Optional[int] = None,
               ) -> Tuple[Optional[RecordTuple], float]:
        """:meth:`get` past the range and filter checks: search the data,
        charging the block read whether or not the key is there."""
        keys = self.key_view
        i = bisect_left(keys, key)
        j = bisect_right(keys, key, i)
        if i >= j:
            # Bloom false positive: the data block is still fetched and
            # searched before the miss is known.
            i = min(i, self.n_records - 1)
            return None, runtime.fg_read_blocks(file_id, self._blocks_for_span(i, i + 1))
        latency = runtime.fg_read_blocks(file_id, self._blocks_for_span(i, j))
        seqs, kinds, values = self.hit_views or self._open_hit_views()
        if snapshot is not None:
            while seqs[i] > snapshot:  # versions run newest first
                i += 1
                if i == j:
                    return None, latency
        return (keys[i], seqs[i], kinds[i], values[i]), latency

    def _open_hit_views(self) -> Tuple[Any, Any, Any]:
        """Seq, kind and value columns as indexables of plain Python values,
        zero-copy.  Opened by the first hit, not the build (a view outweighs
        a short column and most sequences of a write-heavy store are never
        hit); held here, not on the Run: a memoryview cannot be deep-copied.
        """
        run = self.run
        views = self.hit_views = (
            memoryview(run.seqs), memoryview(run.kinds),
            memoryview(run.sizes) if run.vals is None else run.vals)
        return views

    def cursor(self, runtime: Runtime, file_id: int, lo_key: Optional[Key] = None,
               hi_key: Optional[Key] = None,
               readahead_blocks: int = READAHEAD_BLOCKS) -> Iterator[RecordTuple]:
        """Lazily-charging forward iterator over [lo, hi] (inclusive).

        Blocks are charged as the cursor reaches them, ``readahead_blocks``
        at a time, so a limit-bounded scan only pays for what it consumes.  Positioning
        uses the cached index and is free.
        """
        i, j = self.span_for_range(lo_key, hi_key)
        recs = self.run.records()
        starts = self.block_start_idx
        first = self.first_block
        last_block = first + self.n_blocks  # exclusive
        charged_through = -1  # absolute block number charged so far
        idx = i
        # Which block does record `idx` live in?
        b = bisect_right(starts, idx) - 1 if i < j else 0
        next_start = starts[b + 1] if b + 1 < len(starts) else len(recs)
        while idx < j:
            if idx >= next_start:
                b += 1
                next_start = starts[b + 1] if b + 1 < len(starts) else len(recs)
            abs_block = first + b
            if abs_block > charged_through:
                stop = min(abs_block + readahead_blocks, last_block)
                runtime.fg_read_blocks(file_id, range(abs_block, stop))
                charged_through = stop - 1
            yield recs[idx]
            idx += 1
