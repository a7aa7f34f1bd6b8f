"""LRU page-cache model (the OS page cache of the paper's testbed).

Caches fixed-size blocks keyed by ``(file_id, block_no)``.  Blocks enter on
both reads and writes (write-back page cache), so freshly appended sequences
are resident -- the property IAM's mixed level exploits (§5.1.2).  The
``resident_bytes`` probe is the simulation's analogue of the paper's
``mincore`` sampling (§5.1.3).

Batch entry points (:meth:`PageCache.insert_many` / :meth:`touch_many` /
:meth:`touch_range`) let the runtime charge a whole appended sequence or read
run in one call instead of per-4KiB-block Python method calls; residency,
LRU order and the insertion/eviction counters stay byte-exact with the
per-block reference (:class:`repro.bench.reference.ReferencePageCache`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError

BlockKey = Tuple[int, int]


class PageCache:
    """LRU cache of fixed-size blocks with per-file residency accounting."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes < 0:
            raise ConfigError("capacity_bytes must be >= 0")
        if block_size <= 0:
            raise ConfigError("block_size must be > 0")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.max_blocks = capacity_bytes // block_size
        self._lru: "OrderedDict[BlockKey, None]" = OrderedDict()
        self._per_file: Dict[int, set] = {}
        #: Blocks exempt from eviction (§5.1.3 "forcible caching" of appended
        #: sequences).  Pinned blocks still count against capacity.
        self._pinned: set = set()
        self.insertions = 0
        self.evictions = 0
        #: Eviction-batch observer (trace hook); None when tracing is off, so
        #: the hot admission loop pays a single None check per batch.
        self.on_evictions: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def used_bytes(self) -> int:
        return len(self._lru) * self.block_size

    # ------------------------------------------------------------------ probe
    def contains(self, file_id: int, block_no: int) -> bool:
        return (file_id, block_no) in self._lru

    def resident_blocks(self, file_id: int) -> int:
        blocks = self._per_file.get(file_id)
        return len(blocks) if blocks else 0

    def resident_bytes(self, file_id: int) -> int:
        """``mincore``-style probe: resident bytes of a file's blocks."""
        return self.resident_blocks(file_id) * self.block_size

    def total_resident_bytes(self) -> int:
        return self.used_bytes

    # ----------------------------------------------------------------- access
    def touch(self, file_id: int, block_no: int) -> bool:
        """Mark a block most-recently-used.  Returns True on hit."""
        key = (file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            return True
        return False

    def touch_many(self, file_id: int, block_nos: Iterable[int]) -> List[int]:
        """Touch a batch of blocks in order; returns the list of *misses*.

        Hits are promoted to most-recently-used exactly as per-block
        :meth:`touch` calls would; missing block numbers are returned (in
        input order) for the caller to fetch and :meth:`insert_many`.
        """
        lru = self._lru
        move_to_end = lru.move_to_end
        misses: List[int] = []
        append = misses.append
        for b in block_nos:
            key = (file_id, b)
            if key in lru:
                move_to_end(key)
            else:
                append(b)
        return misses

    def touch_range(self, file_id: int, first_block: int, n_blocks: int) -> int:
        """Touch ``n_blocks`` consecutive blocks; returns the hit count."""
        return n_blocks - len(self.touch_many(file_id,
                                              range(first_block, first_block + n_blocks)))

    def insert(self, file_id: int, block_no: int) -> None:
        """Insert (or refresh) one block, evicting LRU blocks as needed."""
        self.insert_many(file_id, (block_no,))

    def insert_many(self, file_id: int, block_nos: Iterable[int]) -> None:
        """Insert a batch of blocks of one file in order.

        State-identical to per-block inserts -- one interleaved pass, so
        hits are promoted and new blocks admitted (with their LRU evictions)
        in exactly the same order.  When the batch provably fits without
        eviction, the per-block capacity checks are skipped.

        Admission under pressure scans from the LRU end: unpinned victims
        are evicted; pinned blocks are rotated to the MRU end and counted,
        so the scan is bounded by one pass over the cache.  If every
        resident block is pinned the new block is admitted *over* capacity
        (mlock-style overcommit -- the same behaviour ``pin_range`` itself
        relies on); it becomes the eviction victim of the next admission.
        """
        max_blocks = self.max_blocks
        if max_blocks == 0:
            return
        lru = self._lru
        move_to_end = lru.move_to_end
        per_file = self._per_file
        try:
            n = len(block_nos)  # type: ignore[arg-type]
        except TypeError:
            n = None
        if n is not None and len(lru) + n <= max_blocks:
            # Fast path: no eviction possible for this whole batch.
            blocks = per_file.get(file_id)
            if blocks is None:
                blocks = set()
                per_file[file_id] = blocks
            add = blocks.add
            admitted = 0
            for b in block_nos:
                key = (file_id, b)
                if key in lru:
                    move_to_end(key)
                else:
                    lru[key] = None
                    add(b)
                    admitted += 1
            self.insertions += admitted
            return
        # Admission and victim scan as one pass over locals; the counters
        # are settled once per batch, the eviction observer once per
        # admission (as per-block inserts would notify it).
        popitem = lru.popitem
        pinned = self._pinned
        on_evictions = self.on_evictions
        resident = len(lru)
        admitted = evicted_total = 0
        for b in block_nos:
            key = (file_id, b)
            if key in lru:
                move_to_end(key)
                continue
            evicted = rotations = 0
            while resident >= max_blocks and rotations < resident:
                old_key = popitem(False)[0]
                if old_key in pinned:
                    lru[old_key] = None
                    rotations += 1
                    continue
                resident -= 1
                evicted += 1
                old_file, old_block = old_key
                blocks = per_file[old_file]
                blocks.discard(old_block)
                if not blocks:
                    del per_file[old_file]
            if evicted:
                evicted_total += evicted
                if on_evictions is not None:
                    on_evictions(evicted)
            lru[key] = None
            resident += 1
            # Looked up per block: evicting this file's last resident block
            # drops the per-file set, so a cached reference goes stale.
            blocks = per_file.get(file_id)
            if blocks is None:
                per_file[file_id] = {b}
            else:
                blocks.add(b)
            admitted += 1
        self.insertions += admitted
        self.evictions += evicted_total

    def insert_range(self, file_id: int, first_block: int, n_blocks: int) -> None:
        self.insert_many(file_id, range(first_block, first_block + n_blocks))

    # ---------------------------------------------------------------- pinning
    def pin_range(self, file_id: int, first_block: int, n_blocks: int) -> None:
        """Exempt blocks from eviction (§5.1.3 forcible caching).

        Blocks not currently resident are inserted first.  Pins are released
        by :meth:`unpin_file` or when the file is invalidated.
        """
        for b in range(first_block, first_block + n_blocks):
            self.insert(file_id, b)
            if self.contains(file_id, b):
                self._pinned.add((file_id, b))

    def unpin_file(self, file_id: int) -> int:
        """Release every pin on ``file_id``; returns the number released."""
        mine = [k for k in self._pinned if k[0] == file_id]
        for k in mine:
            self._pinned.discard(k)
        return len(mine)

    def pinned_blocks(self) -> int:
        return len(self._pinned)

    # ------------------------------------------------------------- invalidate
    def invalidate_file(self, file_id: int) -> int:
        """Drop every block of ``file_id`` (file deletion).  Returns count."""
        blocks = self._per_file.pop(file_id, None)
        if not blocks:
            return 0
        for block_no in blocks:
            self._lru.pop((file_id, block_no), None)
            self._pinned.discard((file_id, block_no))
        return len(blocks)
