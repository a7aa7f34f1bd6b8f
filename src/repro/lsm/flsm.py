"""FLSM/PebblesDB-style fragmented LSM (for the paper's §6.8 discussion).

FLSM partitions each level with *guards*; compaction merges a level's
fragments and appends the partitioned result to the next level's guards
without rewriting the data already there.  Two properties distinguish it
from LSA (Table 2) and are what §6.8 measures:

* **No trivial moves.** Even fully sorted (sequential) input is re-read and
  re-written at every level ("the records are always rewritten when compacted
  to a level"), giving sequential-load write amplification roughly equal to
  the level count (the paper measures 6.42) instead of ~1 for LSA/IAM/LSM.
* **Unbounded children.** Guards are sampled from the key distribution and
  never rebalanced, so a guard's fan-in is unbounded -- the "worst write
  case" LSA's splits avoid.

The implementation is deliberately compact: enough machinery to run real
workloads (flush, guard-partitioned append compaction, bottom-level guard
merges, point/scan reads) with honest I/O charging.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Any, Dict, List, Optional, Set, Tuple, cast

from repro.common.errors import InvariantViolation
from repro.common.options import LsmOptions
from repro.common.records import RecordTuple, sort_key
from repro.core.engine import EngineBase
from repro.filters.bloom import hash_pair
from repro.storage.background import BackgroundJob
from repro.storage.runtime import Runtime
from repro.table.mstable import MSTable
from repro.table.run import Run
from repro.check.effects.registry import observation_only

#: Fragments per bottom-level guard before the guard is merged in place.
BOTTOM_MERGE_FANIN = 8


class _Guard:
    """One guard bucket: a key lower bound plus its fragment tables."""

    __slots__ = ("lo", "tables")

    def __init__(self, lo) -> None:
        self.lo = lo
        self.tables: List[MSTable] = []

    @property
    def nbytes(self) -> int:
        return sum(t.data_bytes for t in self.tables)


class FlsmEngine(EngineBase):
    """Fragmented log-structured merge tree baseline."""

    name = "flsm"
    options: LsmOptions

    def __init__(self, options: LsmOptions, runtime: Runtime) -> None:
        super().__init__(runtime)
        self.options = options
        n = options.max_levels
        #: Each level: ordered guard list.  Level 0 is a single implicit
        #: guard covering everything (flush target).
        self.guards: List[List[_Guard]] = [[_Guard(None)] for _ in range(n)]
        #: Cached guard cut keys per level (guards[level][1:].lo).
        self._cuts: List[List] = [[] for _ in range(n)]
        self.level_bytes: List[int] = [0] * n
        self.compactions = 0
        self.memtable_capacity = options.memtable_bytes
        self._init_pacer(options)

    # ------------------------------------------------------------------ write
    def submit_flush(self, run: Run, nbytes: int) -> BackgroundJob:
        def start() -> float:
            table = self._new_table()
            _, debt = table.append_sequence(run, level=0)
            self.guards[0][0].tables.append(table)
            self.level_bytes[0] += table.data_bytes
            return debt

        return self.runtime.submit_job("flush->L0", start, high_priority=True)

    def _l0_pressure(self) -> Tuple[int, int]:
        # Guard-0 fragments are FLSM's L0 files; it sets no soft debt limit.
        return len(self.guards[0][0].tables), 0

    # ------------------------------------------------------------- background
    def _level_threshold(self, level: int) -> int:
        if level == 0:
            return self.options.l0_compaction_trigger * self.options.memtable_bytes
        return self.options.level_target_bytes(level)

    def pick_background_job(self) -> Optional[BackgroundJob]:
        opts = self.options
        candidates: List[Tuple[int, float]] = []
        for i in range(0, opts.max_levels - 1):
            if i in self._busy_levels or (i + 1) in self._busy_levels:
                continue
            score = self.level_bytes[i] / self._level_threshold(i)
            if score >= 1.0:
                candidates.append((i, score))
        if not candidates:
            return self._pick_bottom_merge()
        # Highest score, lowest level on ties.
        level = max(candidates, key=lambda c: c[1])[0]
        return self._claim_job(f"flsm-compact:L{level}", (level, level + 1),
                               lambda: self._compact(level))

    def _pick_bottom_merge(self) -> Optional[BackgroundJob]:
        bottom = self._deepest_level()
        if bottom in self._busy_levels:
            return None
        for g in self.guards[bottom]:
            if len(g.tables) > BOTTOM_MERGE_FANIN:
                return self._claim_job(f"flsm-guard-merge:L{bottom}", (bottom,),
                                       lambda: self._merge_guard(bottom, g))
        return None

    def _deepest_level(self) -> int:
        for i in range(self.options.max_levels - 1, -1, -1):
            if self.level_bytes[i]:
                return i
        return 0

    # ---------------------------------------------------------------- compact
    def _ensure_guards(self, level: int, sample: Run) -> None:
        """Sample guard boundaries for a level on first use (PebblesDB-style)."""
        if len(self.guards[level]) > 1 or not sample.n:
            return
        want = min(self.options.level_size_multiplier ** level, max(1, sample.n // 8))
        if want <= 1:
            return
        step = sample.n / want
        cuts = sorted({sample.key_at(int(i * step)) for i in range(1, want)})
        self.guards[level] = [_Guard(None)] + [_Guard(c) for c in cuts]
        self._cuts[level] = cuts

    def _guard_index(self, level: int, key) -> int:
        return bisect.bisect_right(self._cuts[level], key)

    def _compact(self, level: int) -> float:
        """Merge every fragment of ``level`` and append into level+1 guards."""
        old_tables = [t for g in self.guards[level] for t in g.tables]
        if not old_tables:
            return 0.0
        merged, debt = self._gather_merge(old_tables)
        self._ensure_guards(level + 1, merged)

        # Partition by the next level's guards and append (never merge).
        cuts = self._cuts[level + 1]
        keys = merged.key_view()
        start = 0
        for gi, g in enumerate(self.guards[level + 1]):
            stop = (bisect.bisect_left(keys, cuts[gi], start)
                    if gi < len(cuts) else merged.n)
            part = merged.slice(start, stop)
            start = stop
            if not part.n:
                continue
            table = self._new_table()
            _, d = table.append_sequence(part, level=level + 1)
            debt += d
            g.tables.append(table)
            self.level_bytes[level + 1] += table.data_bytes

        for g in self.guards[level]:
            g.tables.clear()
        for t in old_tables:
            t.delete()
        self.level_bytes[level] = 0
        self.compactions += 1
        self.runtime.metrics.bump(f"flsm-compaction:L{level}")
        if self.runtime.tracer.enabled:
            self._trace("compaction", f"compact:L{level}", level=level,
                        runs=len(old_tables), records=merged.n)
        return debt

    def _merge_guard(self, level: int, g: _Guard) -> float:
        """In-place merge of one bottom-level guard's fragments."""
        old_tables = g.tables
        merged, debt = self._gather_merge(old_tables, drop_tombstones=True)
        old_bytes = g.nbytes
        for t in old_tables:
            t.delete()
        g.tables = []
        if merged.n:
            table = self._new_table()
            _, d = table.append_sequence(merged, level=level)
            debt += d
            g.tables = [table]
            self.level_bytes[level] += table.data_bytes - old_bytes
        else:
            self.level_bytes[level] -= old_bytes
        self.runtime.metrics.bump("flsm-guard-merge")
        if self.runtime.tracer.enabled:
            self._trace("compaction", "guard-merge", level=level,
                        runs=len(old_tables), records=merged.n)
        return debt

    # ------------------------------------------------------------------- read
    def get(self, key, snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        latency = 0.0
        hashes = hash_pair(key)  # one Bloom hash per get, not per fragment
        for level in range(self.options.max_levels):
            gi = self._guard_index(level, key)
            g = self.guards[level][gi]
            for table in reversed(g.tables):
                if table.min_key <= key <= table.max_key:
                    rec, lat = table.get(key, snapshot, hashes)
                    latency += lat
                    if rec is not None:
                        return rec, latency
        return None, latency

    @observation_only
    def scan_cursors(self, lo_key, hi_key) -> List:
        cursors = []
        for level in range(self.options.max_levels):
            guards = [g for g in self.guards[level] if g.tables]
            if guards:
                cursors.append(self._level_cursor(guards, lo_key, hi_key))
        return cursors

    @staticmethod
    def _level_cursor(guards: List[_Guard], lo_key, hi_key):
        for g in guards:
            live = [t for t in g.tables
                    if not ((lo_key is not None and t.max_key < lo_key)
                            or (hi_key is not None and t.min_key > hi_key))]
            if not live:
                continue
            if len(live) == 1:
                yield from live[0].cursor(lo_key, hi_key)
            else:
                yield from heapq.merge(*(t.cursor(lo_key, hi_key) for t in live),
                                       key=sort_key)

    # ------------------------------------------------------------- inspection
    def level_data_bytes(self) -> Dict[int, int]:
        return {i: b for i, b in enumerate(self.level_bytes) if b}

    def max_guard_fanin(self) -> int:
        """Largest fragment count in any guard (worst-write-case indicator)."""
        return max((len(g.tables) for lvl in self.guards for g in lvl), default=0)

    @observation_only
    def check_invariants(self) -> None:
        for i, lvl in enumerate(self.guards):
            total = sum(g.nbytes for g in lvl)
            if total != self.level_bytes[i]:
                raise InvariantViolation(f"FLSM level {i} byte accounting drifted")
            cuts = [g.lo for g in lvl[1:]]
            if cuts != sorted(cuts):
                raise InvariantViolation(f"FLSM level {i} guards out of order")

    @observation_only
    def describe(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "levels": {i: {"guards": len(lvl), "bytes": self.level_bytes[i]}
                       for i, lvl in enumerate(self.guards) if self.level_bytes[i]},
            "compactions": self.compactions,
            "max_guard_fanin": self.max_guard_fanin(),
        }

    # --------------------------------------------------------------- recovery
    def checkpoint_state(self) -> object:
        """Owned pure-data snapshot (see Manifest.checkpoint)."""
        return {
            "guards": [[(g.lo, tuple(t.snapshot() for t in g.tables))
                        for g in lvl] for lvl in self.guards],
        }

    def _restore_state(self, state: object) -> None:
        for lvl in self.guards:
            for g in lvl:
                for t in g.tables:
                    t.delete()
        if state is None:
            n = self.options.max_levels
            self.guards = [[_Guard(None)] for _ in range(n)]
            self._cuts = [[] for _ in range(n)]
            self.level_bytes = [0] * n
            return
        sdict = cast(Dict[str, Any], state)
        self.guards = []
        for lvl in sdict["guards"]:
            level = []
            for lo, snaps in lvl:
                g = _Guard(lo)
                g.tables = [MSTable.from_snapshot(self.runtime, snap)
                            for snap in snaps]
                level.append(g)
            self.guards.append(level)
        self._cuts = [[g.lo for g in lvl[1:]] for lvl in self.guards]
        self.level_bytes = [sum(g.nbytes for g in lvl) for lvl in self.guards]

    def live_file_ids(self) -> Set[int]:
        return {t.file_id for lvl in self.guards for g in lvl
                for t in g.tables if not t.deleted}
