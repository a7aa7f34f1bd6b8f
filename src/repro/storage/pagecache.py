"""LRU page-cache model (the OS page cache of the paper's testbed).

Caches fixed-size blocks keyed by ``(file_id, block_no)``.  Blocks enter on
both reads and writes (write-back page cache), so freshly appended sequences
are resident -- the property IAM's mixed level exploits (§5.1.2).  The
``resident_bytes`` probe is the simulation's analogue of the paper's
``mincore`` sampling (§5.1.3); it needs only *how many* of a file's blocks
are resident, so the cache keeps a resident-block count per file beside the
LRU (:meth:`PageCache.invalidate_file` walks block numbers against the LRU).

Batch entry points let the runtime charge a whole appended sequence
(:meth:`PageCache.insert_many`) or a query's read request
(:meth:`read_request`: one pass over its runs that touches each, counts its
misses and seeks without listing them, fetches them through the fill the
runtime hands it and admits them) in one call instead of per-4KiB-block
Python method calls.
Both admit through one admission/eviction loop.  Residency, LRU order, the
insertion/eviction counters and the eviction batches stay byte-exact with
the per-block reference (:class:`repro.bench.reference.ReferencePageCache`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigError

BlockKey = Tuple[int, int]


class PageCache:
    """LRU cache of fixed-size blocks with a resident-block count per file."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes < 0:
            raise ConfigError("capacity_bytes must be >= 0")
        if block_size <= 0:
            raise ConfigError("block_size must be > 0")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.max_blocks = capacity_bytes // block_size
        self._lru: "OrderedDict[BlockKey, None]" = OrderedDict()
        #: Resident blocks per file; a file with none has no entry.
        self._per_file: Dict[int, int] = {}
        #: Blocks exempt from eviction (§5.1.3 "forcible caching" of appended
        #: sequences).  Pinned blocks still count against capacity.
        self._pinned: set = set()
        self.insertions = 0
        self.evictions = 0
        #: Resident blocks found by read requests (:meth:`read_request`).
        self.hits = 0
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
        return self._per_file.get(file_id, 0)

    def resident_bytes(self, file_id: int) -> int:
        """``mincore``-style probe: resident bytes of a file's blocks."""
        return self.resident_blocks(file_id) * self.block_size

    # ----------------------------------------------------------------- access
    def touch(self, file_id: int, block_no: int) -> bool:
        """Mark a block most-recently-used.  Returns True on hit."""
        key = (file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            return True
        return False

    def read_request(self, reads: Iterable[tuple],
                     fill: Callable[..., float]) -> Tuple[float, int, int]:
        """One read request's pass over its runs (tuples ending in
        ``(file_id, blocks)``); returns the fills' ``(elapsed, missed,
        seeks)``.  Each run is touched in turn -- hits promoted to
        most-recently-used as per-block :meth:`touch` calls would, misses
        only counted, one seek per stretch of consecutive missing blocks,
        resident blocks added to :attr:`hits` -- then a run with misses is
        fetched, ``fill(nbytes_read=..., seeks=...)``, and admitted.  A fill
        that raises ends the request: its run admits nothing.

        Admission is one pass over the run, leaving its hits in place: the
        per-block loop over the misses alone while no victim can be a hit.
        The ``h`` hits sit at the MRU end, the ``m`` misses evict at most
        ``resident + m - capacity`` blocks, and at least ``resident - h -
        pinned`` unpinned blocks lie ahead of the hits; ``h + m`` is the
        run's length, so that holds when ``length + pinned <= capacity``.
        Otherwise the misses are listed first; a hit they evict stays out.
        Nothing pins during a request: ``pinned`` is read at the first miss.
        """
        lru = self._lru
        move_to_end = lru.move_to_end
        block_size = self.block_size
        elapsed = 0.0
        missed = seeks = 0
        room = None
        for run in reads:
            file_id, blocks = run[-2:]
            missing = stretches = 0
            last_miss = -2
            for b in blocks:
                key = (file_id, b)
                if key in lru:
                    move_to_end(key)
                    continue
                missing += 1
                if b != last_miss + 1:
                    stretches += 1
                last_miss = b
            self.hits += blocks.stop - blocks.start - missing
            if missing:
                elapsed += fill(nbytes_read=missing * block_size, seeks=stretches)
                missed += missing
                seeks += stretches
                if room is None:
                    room = self.max_blocks - len(self._pinned)
                admit: Iterable[int] = blocks
                if blocks.stop - blocks.start > room:
                    admit = [b for b in blocks if (file_id, b) not in lru]
                self.insert_many(file_id, admit, False)
        return elapsed, missed, seeks

    def insert(self, file_id: int, block_no: int) -> None:
        """Insert (or refresh) one block, evicting LRU blocks as needed."""
        self.insert_many(file_id, (block_no,))

    def insert_many(self, file_id: int, block_nos: Iterable[int],
                    promote: bool = True) -> None:
        """Insert a batch of blocks of one file in order.

        State-identical to per-block inserts -- one interleaved pass, so
        hits are promoted and new blocks admitted (with their LRU evictions)
        in exactly the same order.  ``promote=False`` leaves resident blocks
        where they are: :meth:`read_request`'s pass over a touched run.

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
        # One pass over locals; the counters and this file's count (less
        # ``lost``, its own evicted blocks) settle once per batch.
        lru = self._lru
        move_to_end = lru.move_to_end
        popitem = lru.popitem
        per_file = self._per_file
        pinned = self._pinned
        on_evictions = self.on_evictions
        start = resident = len(lru)
        evicted_total = lost = 0
        for b in block_nos:
            key = (file_id, b)
            if key in lru:
                if promote:
                    move_to_end(key)
                continue
            if resident >= max_blocks:
                evicted = rotations = 0
                while resident >= max_blocks and rotations < resident:
                    old_key = popitem(False)[0]
                    if old_key in pinned:
                        lru[old_key] = None
                        rotations += 1
                        continue
                    resident -= 1
                    evicted += 1
                    old_file = old_key[0]
                    if old_file == file_id:
                        lost += 1
                    elif per_file[old_file] == 1:
                        del per_file[old_file]
                    else:
                        per_file[old_file] -= 1
                if evicted:  # the observer hears each admission's batch
                    evicted_total += evicted
                    if on_evictions is not None:
                        on_evictions(evicted)
            lru[key] = None
            resident += 1
        admitted = resident - start + evicted_total
        if admitted:  # the last admitted block is resident: the count is > 0
            per_file[file_id] = per_file.get(file_id, 0) + admitted - lost
        self.insertions += admitted
        self.evictions += evicted_total

    # ---------------------------------------------------------------- pinning
    def pin_range(self, file_id: int, first_block: int, n_blocks: int) -> None:
        """Exempt blocks from eviction (§5.1.3 forcible caching).

        Blocks not currently resident are inserted first.  Pins are released
        when the file is invalidated.
        """
        for b in range(first_block, first_block + n_blocks):
            self.insert(file_id, b)
            if self.contains(file_id, b):
                self._pinned.add((file_id, b))

    def pinned_blocks(self) -> int:
        return len(self._pinned)

    # ------------------------------------------------------------- invalidate
    def invalidate_file(self, file_id: int) -> int:
        """Drop every block of ``file_id`` (file deletion).  Returns count."""
        count = left = self._per_file.pop(file_id, 0)
        lru, pinned = self._lru, self._pinned
        block_no = 0
        while left:
            key = (file_id, block_no)
            if key in lru:
                del lru[key]
                left -= 1
                if pinned:
                    pinned.discard(key)
            block_no += 1
        return count
