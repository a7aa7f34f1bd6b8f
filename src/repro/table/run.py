"""The columnar sorted run: the one record representation of the write path.

A :class:`Run` holds a (key asc, seq desc) sorted batch of records as
parallel numpy columns.  It is built once, when a memtable rotates
(:meth:`repro.memtable.Memtable.sorted_records`), and from then on flushes,
partitions, merges, splits and sequence builds pass it along as array slices
and gathers -- no per-record Python loop touches it again.

Columns
-------
``keys``  uint64 keys: the one key domain a store holds, and what the
          Bloom filter hashes.
``seqs``  uint64 sequence numbers; ``kinds`` uint8 PUT/DELETE.
``sizes`` uint64 payload bytes: the synthetic size, or ``len(value)``.
``vals``  ``None`` when every value is a synthetic size (``sizes`` *is* the
          value column), else an object column of the values as given.

The typed-column rule: a value is synthetic iff ``type(v) is int`` -- never
"numpy managed to parse it" (``b"21"``, ``"12"``, ``1.5`` and ``True`` all
convert to an integer dtype).  :meth:`Run.from_columns` is the one place
that decides, for sequences and memtable scan streams alike.

Runs are immutable once built.  Only the pull-based range reader
(:meth:`repro.table.block.Sequence.cursor`) and LSM-trie's re-keying need
tuples; :meth:`Run.records` materialises them on first use.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, List, Optional, Sequence as PySequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import MASK64
from repro.common.records import Key, RECORD_OVERHEAD, RecordTuple, bad_key
from repro.filters.bloom import hash_columns


class Run:
    """One immutable sorted run in columnar form (see the module docstring)."""

    __slots__ = ("keys", "seqs", "kinds", "sizes", "vals", "n", "hashes",
                 "_records")

    def __init__(self, keys: np.ndarray, seqs: np.ndarray, kinds: np.ndarray,
                 sizes: np.ndarray, vals: Optional[np.ndarray] = None,
                 hashes: Optional[np.ndarray] = None) -> None:
        self.keys = keys
        self.seqs = seqs
        self.kinds = kinds
        self.sizes = sizes
        self.vals = vals
        self.n: int = keys.size
        #: ``hash_columns(keys)`` while sequences are being cut from this
        #: run (see :meth:`ensure_hashes`); dropped once a filter is built.
        self.hashes = hashes
        self._records: Optional[List[RecordTuple]] = None

    def __len__(self) -> int:
        return self.n

    # ----------------------------------------------------------- construction
    @staticmethod
    def from_columns(keys: PySequence[Key], seqs: PySequence[int],
                     kinds: PySequence[int], values: PySequence[Any]) -> "Run":
        """Type the four fields of a sorted run, given as parallel Python
        sequences (the typed-column rule, see the module docstring)."""
        n = len(keys)
        if set(map(type, keys)) - {int}:
            raise ConfigError("record keys must be Python ints")
        # Sorted: the extremes decide.  Checked here, not left to fromiter,
        # which would raise a bare OverflowError.
        if n and (keys[0] < 0 or keys[-1] > MASK64):
            raise bad_key(keys[0] if keys[0] < 0 else keys[-1])
        if set(map(type, values)) - {int}:
            val_col = np.fromiter(values, dtype=object, count=n)
            sizes = np.fromiter((v if type(v) is int else len(v) for v in values),
                                dtype=np.uint64, count=n)
        else:
            val_col = None
            sizes = np.fromiter(values, dtype=np.uint64, count=n)
        return Run(np.fromiter(keys, dtype=np.uint64, count=n),
                   np.fromiter(seqs, dtype=np.uint64, count=n),
                   np.fromiter(kinds, dtype=np.uint8, count=n), sizes, val_col)

    @staticmethod
    def from_records(records: PySequence[RecordTuple]) -> "Run":
        """Columns of a sorted list of ``(key, seq, kind, value)`` tuples."""
        if not records:
            return Run.from_columns((), (), (), ())
        return Run.from_columns(*zip(*records))

    @staticmethod
    def concat(runs: PySequence["Run"]) -> "Run":
        """Column-wise concatenation of runs (merge input; the result is
        *not* sorted)."""
        vals = None
        for run in runs:
            if run.vals is not None:
                vals = np.concatenate([r.sizes.astype(object) if r.vals is None
                                       else r.vals for r in runs])
                break
        return Run(np.concatenate([r.keys for r in runs]),
                   np.concatenate([r.seqs for r in runs]),
                   np.concatenate([r.kinds for r in runs]),
                   np.concatenate([r.sizes for r in runs]), vals)

    # ----------------------------------------------------------------- pieces
    def slice(self, i: int, j: int) -> "Run":
        """Records ``[i, j)`` as views of this run's columns."""
        vals, hashes = self.vals, self.hashes
        return Run(self.keys[i:j], self.seqs[i:j], self.kinds[i:j],
                   self.sizes[i:j], None if vals is None else vals[i:j],
                   None if hashes is None else hashes[:, i:j])

    def take(self, idx: np.ndarray) -> "Run":
        """The records picked by an index (or boolean mask) array, in order."""
        vals = self.vals
        return Run(self.keys[idx], self.seqs[idx], self.kinds[idx],
                   self.sizes[idx], None if vals is None else vals[idx])

    def ensure_hashes(self) -> None:
        """Hash the key column now, so every slice inherits its share.

        Called by whoever is about to cut several sequences from this run:
        the Bloom pair is computed once per run, not once per sequence.
        """
        if self.hashes is None:
            self.hashes = hash_columns(self.keys)

    # ---------------------------------------------------------------- reading
    def key_view(self) -> memoryview:
        """Keys as an indexable of Python ints, zero-copy (for ``bisect``)."""
        return memoryview(self.keys)

    def key_at(self, i: int) -> Key:
        return int(self.keys[i])

    def value_at(self, i: int) -> Any:
        return int(self.sizes[i]) if self.vals is None else self.vals[i]

    def records(self) -> List[RecordTuple]:
        """All records as tuples (materialised on first use, then kept)."""
        recs = self._records
        if recs is None:
            vals = self.sizes if self.vals is None else self.vals
            recs = self._records = list(zip(self.keys.tolist(), self.seqs.tolist(),
                                            self.kinds.tolist(), vals.tolist()))
        return recs

    def encoded_size(self, key_size: int) -> int:
        """Total encoded on-disk size given a fixed key width."""
        return (key_size + RECORD_OVERHEAD) * self.n + int(self.sizes.sum())

    def encoded_ends(self, key_size: int) -> memoryview:
        """Cumulative encoded bytes through each record, as Python ints:
        what block, chunk and ingest cuts bisect."""
        return memoryview((self.sizes + np.uint64(key_size + RECORD_OVERHEAD)).cumsum())

    def is_sorted(self) -> bool:
        """True for a valid sorted run: (key asc, seq desc), no dup (key, seq)."""
        keys, seqs = self.keys, self.seqs
        bad = (keys[1:] < keys[:-1]) | ((keys[1:] == keys[:-1])
                                        & (seqs[1:] >= seqs[:-1]))
        return not bad.any()


def split_run(run: Run, key_size: int, max_bytes: int) -> Iterator[Run]:
    """Chop a sorted run into chunks of roughly ``max_bytes`` encoded bytes.

    A chunk closes before the record that would overflow it (it always
    takes at least one), but never between two versions of one key.
    """
    n = run.n
    if not n:
        return
    ends = run.encoded_ends(key_size)
    if ends[-1] <= max_bytes:
        yield run
        return
    run.ensure_hashes()
    keys = run.key_view()
    start = base = 0
    while start < n:
        stop = max(bisect_right(ends, base + max_bytes, start), start + 1)
        if stop < n and keys[stop] == keys[stop - 1]:
            stop = bisect_right(keys, keys[stop], stop)
        yield run.slice(start, stop)
        base = ends[stop - 1]
        start = stop
