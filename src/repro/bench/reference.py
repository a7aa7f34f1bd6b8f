"""Frozen reference implementations of the optimized hot-path kernels.

These are verbatim copies of the pre-optimization (seed) memtable, merge and
page-cache code.  They exist for two reasons:

* **Equivalence oracles** -- ``tests/test_memtable_equivalence.py`` and
  ``tests/test_merge_equivalence.py`` assert that the optimized kernels in
  :mod:`repro.memtable`, :mod:`repro.table.merge` and
  :mod:`repro.storage.pagecache` produce record-identical / state-identical
  results on randomized MVCC workloads.
* **Perf baselines** -- ``benchmarks/perf/`` times each reference against its
  optimized counterpart, so every ``BENCH_perf.json`` carries live
  before/after numbers on the machine that produced it.

Do not "fix" or optimize this module: its value is that it never changes.
"""

from __future__ import annotations

import bisect
import heapq
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence as PySequence,
    Tuple,
)

from repro.common.errors import ConfigError, InvariantViolation
from repro.common.records import (
    DELETE,
    KEY,
    KIND,
    PUT,
    RecordTuple,
    SEQ,
    VALUE,
    encoded_size,
    sort_key,
)

Version = Tuple[int, int, int]


class ReferenceMemtable:
    """The seed memtable: ``bisect.insort`` per insert (O(n) shifts)."""

    def __init__(self, key_size: int) -> None:
        self.key_size = key_size
        self._keys: List = []
        self._versions: Dict[object, List[Version]] = {}
        self.nbytes = 0
        self.n_records = 0
        self.min_seq: Optional[int] = None
        self.max_seq: Optional[int] = None

    def __len__(self) -> int:
        return self.n_records

    @property
    def n_keys(self) -> int:
        return len(self._keys)

    def add(self, rec: RecordTuple) -> None:
        key, seq, kind, vsize = rec
        versions = self._versions.get(key)
        if versions is None:
            bisect.insort(self._keys, key)
            self._versions[key] = [(seq, kind, vsize)]
        else:
            if versions[-1][0] >= seq:
                raise InvariantViolation(
                    f"memtable sequence numbers must increase per key (key={key!r})"
                )
            versions.append((seq, kind, vsize))
        self.nbytes += encoded_size(rec, self.key_size)
        self.n_records += 1
        if self.min_seq is None or seq < self.min_seq:
            self.min_seq = seq
        if self.max_seq is None or seq > self.max_seq:
            self.max_seq = seq

    def get(self, key: Any,
            snapshot: Optional[int] = None) -> Optional[RecordTuple]:
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

    def iter_range(self, lo: Any = None, hi: Any = None,
                   ) -> Iterator[RecordTuple]:
        keys = self._keys
        start = 0 if lo is None else bisect.bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect.bisect_left(keys, hi)
        for i in range(start, stop):
            key = keys[i]
            for seq, kind, vsize in reversed(self._versions[key]):
                yield (key, seq, kind, vsize)

    def sorted_records(self) -> List[RecordTuple]:
        return list(self.iter_range())

    def approximate_live_records(self) -> int:
        return sum(1 for v in self._versions.values() if v[-1][1] == PUT)


def reference_merge_runs(runs: PySequence[List[RecordTuple]], *,
                         drop_tombstones: bool = False,
                         snapshots: Optional[PySequence[int]] = None,
                         ) -> List[RecordTuple]:
    """The seed ``merge_runs``: ``heapq.merge(key=...)`` + ``pop(0)`` views."""
    if not runs:
        return []
    if len(runs) == 1:
        stream: Iterable[RecordTuple] = runs[0]
    else:
        stream = heapq.merge(*runs, key=sort_key)

    snap_desc: List[int] = sorted(set(snapshots), reverse=True) if snapshots else []

    out: List[RecordTuple] = []
    kept: List[RecordTuple] = []
    cur_key = object()
    views_left: List[int] = []
    served_latest = False

    def emit() -> None:
        if drop_tombstones:
            while kept and kept[-1][KIND] == DELETE:
                kept.pop()
        out.extend(kept)
        kept.clear()

    for rec in stream:
        key = rec[KEY]
        if key is not cur_key and key != cur_key:
            emit()
            cur_key = key
            views_left = list(snap_desc)
            served_latest = False
        seq = rec[SEQ]
        keep = False
        if not served_latest:
            served_latest = True
            keep = True
        while views_left and views_left[0] >= seq:
            views_left.pop(0)
            keep = True
        if keep:
            kept.append(rec)
    emit()
    return out


# ------------------------------------------------------------ read-path oracles
def _reference_merge_visible(streams: Iterable[Any], *,
                             snapshot: Optional[int] = None,
                             hi_key: Any = None,
                             limit: Optional[int] = None,
                             ) -> Iterator[Tuple[object, object]]:
    """Verbatim copy of the seed ``repro.db.iterator.merge_visible``."""
    live = [s for s in streams if s is not None]
    if not live:
        return
    merged = live[0] if len(live) == 1 else heapq.merge(*live, key=sort_key)
    served_key = _sentinel = object()
    count = 0
    for rec in merged:
        key = rec[KEY]
        if hi_key is not None and key >= hi_key:
            break
        if key is served_key or key == served_key:
            continue
        if snapshot is not None and rec[SEQ] > snapshot:
            continue
        served_key = key
        if rec[KIND] == DELETE:
            continue
        yield (key, rec[VALUE])
        count += 1
        if limit is not None and count >= limit:
            break


def reference_scan(db: Any, lo_key: Any = None, hi_key: Any = None, *,
                   limit: Optional[int] = None,
                   snapshot: Optional[int] = None,
                   ) -> List[Tuple[object, object]]:
    """The frozen scalar scan: seed ``IamDB.scan`` over the heap merge.

    Memtable/immutable snapshots plus the live engine's ``scan_cursors``
    streams, merged record by record through a frozen copy of the
    visibility rule -- the oracle ``IamDB.scan`` (the scan planner, or
    :func:`repro.table.scan.merge_scan` when it declines) is held
    row- and charge-identical to.
    """
    runtime = db.runtime
    t0 = runtime.clock.now
    snap = db._snap_seq(snapshot)
    streams = [list(db.memtable.iter_range(lo_key, hi_key))]
    if db.immutable is not None:
        streams.append(list(db.immutable.iter_range(lo_key, hi_key)))
    streams.extend(db.engine.scan_cursors(lo_key, hi_key))
    out = list(_reference_merge_visible(streams, snapshot=snap,
                                        hi_key=hi_key, limit=limit))
    runtime.pump()
    db.metrics.record_latency("scan", runtime.clock.now - t0)
    return out


BlockKey = Tuple[int, int]


class ReferencePageCache:
    """The seed page cache: per-block ``insert`` loops only."""

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
        self._pinned: set = set()
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def contains(self, file_id: int, block_no: int) -> bool:
        return (file_id, block_no) in self._lru

    def resident_blocks(self, file_id: int) -> int:
        blocks = self._per_file.get(file_id)
        return len(blocks) if blocks else 0

    def touch(self, file_id: int, block_no: int) -> bool:
        key = (file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            return True
        return False

    def insert(self, file_id: int, block_no: int) -> None:
        if self.max_blocks == 0:
            return
        key = (file_id, block_no)
        if key in self._lru:
            self._lru.move_to_end(key)
            return
        scanned = 0
        while len(self._lru) >= self.max_blocks and scanned < len(self._lru):
            old_key, _ = self._lru.popitem(last=False)
            if old_key in self._pinned:
                self._lru[old_key] = None
                scanned += 1
                continue
            self.evictions += 1
            self._dec(old_key)
        self._lru[key] = None
        blocks = self._per_file.get(file_id)
        if blocks is None:
            blocks = set()
            self._per_file[file_id] = blocks
        blocks.add(block_no)
        self.insertions += 1

    def insert_range(self, file_id: int, first_block: int, n_blocks: int) -> None:
        for b in range(first_block, first_block + n_blocks):
            self.insert(file_id, b)

    def pin_range(self, file_id: int, first_block: int, n_blocks: int) -> None:
        for b in range(first_block, first_block + n_blocks):
            self.insert(file_id, b)
            if self.contains(file_id, b):
                self._pinned.add((file_id, b))

    def _dec(self, key: BlockKey) -> None:
        blocks = self._per_file.get(key[0])
        if blocks is not None:
            blocks.discard(key[1])
            if not blocks:
                del self._per_file[key[0]]
