"""Sorted sequences and their block layout.

A :class:`Sequence` is one sorted run inside an MSTable (§4.1): records are
partitioned into fixed-size data blocks; the index (block first-keys) and the
Bloom filter form the sequence's metadata, which the paper assumes is always
cached (§2.1), so metadata access costs no device I/O.  Record *content* lives
in Python lists (the simulation substrate); device reads are charged per
block through :meth:`repro.storage.runtime.Runtime.fg_read_blocks`.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import InvariantViolation
from repro.common.records import KEY, Key, RECORD_OVERHEAD, RecordTuple, SEQ
from repro.filters.bloom import BloomFilter
from repro.storage.runtime import Runtime

_key_of = itemgetter(0)

#: Per-block index entry overhead charged as metadata (key + offset).
INDEX_ENTRY_BYTES = 24


class Sequence:
    """One immutable sorted run: records + block index + Bloom filter."""

    __slots__ = (
        "records",
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
        "_keys_arr",
        "_cols",
    )

    def __init__(self, records: List[RecordTuple], *, key_size: int, block_size: int,
                 bloom_bits_per_key: int, first_block: int) -> None:
        if not records:
            raise InvariantViolation("a Sequence must hold at least one record")
        self.records = records
        self.first_block = first_block
        # Block layout: greedy fill up to block_size encoded bytes per block.
        # Each block is the longest record prefix whose encoded bytes fit
        # (always at least one record), found by bisecting the prefix sums --
        # O(blocks log n) instead of a per-record Python loop.
        fixed = key_size + RECORD_OVERHEAD
        prefix: List[int] = [0]
        acc = 0
        append = prefix.append
        for rec in records:
            v = rec[3]
            acc += fixed + (v if type(v) is int else len(v))
            append(acc)
        n = len(records)
        starts: List[int] = [0]
        start = 0
        while True:
            stop = bisect.bisect_right(prefix, prefix[start] + block_size) - 1
            if stop <= start:
                stop = start + 1  # single record larger than a block
            if stop >= n:
                break
            starts.append(stop)
            start = stop
        seqs = [rec[SEQ] for rec in records]
        min_seq = min(seqs)
        max_seq = max(seqs)
        self.nbytes = acc
        self.block_start_idx = starts
        self.n_blocks = len(starts)
        self.min_key = records[0][KEY]
        self.max_key = records[-1][KEY]
        self.min_seq = min_seq
        self.max_seq = max_seq
        self.bloom = BloomFilter.build([r[KEY] for r in records], bloom_bits_per_key)
        self.metadata_bytes = self.bloom.nbytes + INDEX_ENTRY_BYTES * self.n_blocks
        self._keys_arr: Optional[np.ndarray] = None
        self._cols: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------- block math
    def _record_span(self, lo_key: Optional[Key],
                     hi_key: Optional[Key]) -> Tuple[int, int]:
        """Record index range [i, j) with lo_key <= key <= hi_key (inclusive)."""
        recs = self.records
        i = 0 if lo_key is None else bisect.bisect_left(recs, lo_key, key=_key_of)
        j = len(recs) if hi_key is None else bisect.bisect_right(recs, hi_key, key=_key_of)
        return i, j

    def keys_array(self) -> Optional[np.ndarray]:
        """Cached uint64 key column (the batched block index).

        Lazily built on the first batched lookup; ``None`` when the keys are
        not uint64-representable (callers fall back to the scalar path).
        Sequences are immutable, so the cache never invalidates.
        """
        arr = self._keys_arr
        if arr is None:
            try:
                arr = np.fromiter(map(_key_of, self.records),
                                  dtype=np.uint64, count=len(self.records))
            except (OverflowError, TypeError, ValueError):
                return None
            self._keys_arr = arr
        return arr

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               Optional[np.ndarray]]:
        """Cached ``(keys, seqs, kinds, values)`` columns for the scan planner.

        One transposition of the records feeds all four.  Keys and sequence
        numbers are uint64, kinds uint8; the value column is None when the
        values aren't small ints (simulated values are synthetic byte sizes,
        so scans can usually assemble their output column-wise).  Raises
        OverflowError/TypeError/ValueError when keys or sequence numbers are
        not uint64-representable (callers fall back to the pull-based path).
        Sequences are immutable, so the cache never invalidates.
        """
        cols = self._cols
        if cols is None:
            keys = self.keys_array()
            if keys is None:
                raise TypeError("sequence keys are not uint64-representable")
            n = len(self.records)
            _, seqs, kinds, vals = zip(*self.records)
            try:
                vals_col = np.fromiter(vals, dtype=np.uint64, count=n)
            except (OverflowError, TypeError, ValueError):
                vals_col = None
            cols = self._cols = (keys,
                                 np.fromiter(seqs, dtype=np.uint64, count=n),
                                 np.fromiter(kinds, dtype=np.uint8, count=n),
                                 vals_col)
        return cols

    def spans_for_keys(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_record_span` for exact-match lookups.

        ``keys`` must be uint64; raises TypeError when the cached key column
        is unavailable (non-integer record keys).
        """
        col = self.keys_array()
        if col is None:
            raise TypeError("sequence keys are not uint64-representable")
        return (col.searchsorted(keys, side="left"),
                col.searchsorted(keys, side="right"))

    def span_for_range(self, lo_key: Optional[Key],
                       hi_key: Optional[Key]) -> Tuple[int, int]:
        """:meth:`_record_span` using the cached key column when possible."""
        col = self.keys_array()
        if col is None:
            return self._record_span(lo_key, hi_key)
        i = 0
        j = len(self.records)
        try:
            if lo_key is not None:
                i = int(col.searchsorted(np.uint64(lo_key), side="left"))
            if hi_key is not None:
                j = int(col.searchsorted(np.uint64(hi_key), side="right"))
        except (OverflowError, TypeError, ValueError):
            return self._record_span(lo_key, hi_key)
        return i, j

    def _blocks_for_span(self, i: int, j: int) -> range:
        """File-relative block numbers covering record indices [i, j)."""
        if i >= j:
            return range(0)
        starts = self.block_start_idx
        b_lo = bisect.bisect_right(starts, i) - 1
        b_hi = bisect.bisect_right(starts, j - 1) - 1
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
        i, j = self._record_span(key, key)
        if i >= j:
            # Bloom false positive: the data block is still fetched and
            # searched before the miss is known.
            blocks = self._blocks_for_span(i, i + 1) if i < len(self.records) else \
                self._blocks_for_span(len(self.records) - 1, len(self.records))
            latency = runtime.fg_read_blocks(file_id, blocks)
            return None, latency
        latency = runtime.fg_read_blocks(file_id, self._blocks_for_span(i, j))
        recs = self.records
        if snapshot is None:
            return recs[i], latency
        for idx in range(i, j):
            if recs[idx][SEQ] <= snapshot:
                return recs[idx], latency
        return None, latency

    def read_range(self, runtime: Runtime, file_id: int, lo_key: Optional[Key],
                   hi_key: Optional[Key]) -> Tuple[List[RecordTuple], float]:
        """Records with lo <= key <= hi (inclusive bounds, None = open).

        Charges the covering block reads; returns (records, latency).
        """
        i, j = self._record_span(lo_key, hi_key)
        if i >= j:
            return [], 0.0
        latency = runtime.fg_read_blocks(file_id, self._blocks_for_span(i, j))
        return self.records[i:j], latency

    def read_all(self, runtime: Runtime, file_id: int) -> Tuple[List[RecordTuple], float]:
        latency = runtime.fg_read_blocks(file_id, self.block_numbers())
        return self.records, latency

    def cursor(self, runtime: Runtime, file_id: int, lo_key: Optional[Key] = None,
               hi_key: Optional[Key] = None,
               readahead_blocks: int = 8) -> Iterator[RecordTuple]:
        """Lazily-charging forward iterator over [lo, hi] (inclusive).

        Blocks are charged as the cursor reaches them, ``readahead_blocks``
        at a time (the paper's testbed enables filesystem read-ahead, §6.1),
        so a limit-bounded scan only pays for what it consumes.  Positioning
        uses the cached index and is free.
        """
        i, j = self._record_span(lo_key, hi_key)
        recs = self.records
        starts = self.block_start_idx
        first = self.first_block
        last_block = first + self.n_blocks  # exclusive
        charged_through = -1  # absolute block number charged so far
        idx = i
        # Which block does record `idx` live in?
        b = bisect.bisect_right(starts, idx) - 1 if i < j else 0
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
