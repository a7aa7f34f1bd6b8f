"""LevelDB/RocksDB-style leveled LSM (§2.1, Figure 1).

One class implements both baselines; ``LsmOptions.style`` selects the
behavioural differences the paper leans on:

* **leveldb** -- overflow-tolerant.  A single hard L0 gate (slowdown at 8,
  stop at 12 files); deeper levels overflow freely while the background
  thread lags, which shortens write paths (smaller effective fan-out, lower
  write amplification, §6.2) but produces enormous stall-driven maximum
  latencies and a long "tuning phase".
* **rocksdb** -- stall-controlled.  An additional soft gate on estimated
  pending compaction debt delays writes early, so levels barely overflow;
  compactions run against full fan-out (higher write amplification, §6.2:
  19.00 vs 14.66) but maximum latency stays bounded.

Compactions follow LevelDB: score-based level picking (L0 by file count,
deeper levels by size ratio), round-robin key cursors, merge with the
overlapping files one level down, trivial moves when nothing overlaps.
"""

from __future__ import annotations

import bisect
from functools import partial
from operator import attrgetter
from typing import Any, Dict, List, Optional, Set, Tuple, cast

from repro.common.errors import InvariantViolation
from repro.common.options import LsmOptions
from repro.common.records import RecordTuple
from repro.core.engine import EngineBase
from repro.filters.bloom import hash_pair
from repro.storage.background import BackgroundJob
from repro.storage.runtime import Runtime
# Not called here (EngineBase._gather_merge is the one call site): the e2e
# benchmark's self-test reads this module global when it checks the ledger.
from repro.table.merge import merge_runs  # noqa: F401
from repro.table.mstable import MSTable
from repro.table.run import Run, split_run
from repro.table.scan import chain_stream, table_stream
from repro.check.effects.registry import observation_only


#: The fence key every sorted-level search bisects by (read off the live
#: tables, so there is no per-level cache to invalidate).
MIN_KEY = attrgetter("min_key")


class LeveledLsm(EngineBase):
    """Leveled-compaction LSM engine (LevelDB and RocksDB styles)."""

    options: LsmOptions

    def __init__(self, options: LsmOptions, runtime: Runtime) -> None:
        super().__init__(runtime)
        self.options = options
        self.name = options.style
        n = options.max_levels
        #: levels[0] holds overlapping L0 files, newest last; deeper levels
        #: are sorted by min_key with disjoint ranges.
        self.levels: List[List[MSTable]] = [[] for _ in range(n)]
        self.level_bytes: List[int] = [0] * n
        self.compact_pointer: List[Optional[object]] = [None] * n
        self.flushes = 0
        self.compactions = 0
        self.trivial_moves = 0
        self.memtable_capacity = options.memtable_bytes
        self._init_pacer(options)

    # ------------------------------------------------------------------ write
    def submit_flush(self, run: Run, nbytes: int) -> BackgroundJob:
        def start() -> float:
            table = self._new_table()
            _, debt = table.append_sequence(run, level=0)
            self.levels[0].append(table)
            self.level_bytes[0] += table.data_bytes
            self.flushes += 1
            if self.runtime.tracer.enabled:
                self._trace("flush", "flush", records=run.n,
                            l0_files=len(self.levels[0]))
            return debt

        return self.runtime.submit_job("flush->L0", start, high_priority=True)

    def _l0_pressure(self) -> Tuple[int, int]:
        debt = (self._pending_compaction_bytes()
                if self.options.pending_compaction_soft_bytes else 0)
        return len(self.levels[0]), debt

    def _pending_compaction_bytes(self) -> int:
        """RocksDB's pending-debt estimate: bytes above each level threshold."""
        opts = self.options
        debt = max(0, len(self.levels[0]) - opts.l0_compaction_trigger) * opts.file_bytes
        for i in range(1, opts.max_levels - 1):
            debt += max(0, self.level_bytes[i] - opts.level_target_bytes(i))
        return debt

    # ------------------------------------------------------------- background
    def _scores(self) -> List[Tuple[float, int]]:
        opts = self.options
        scores = []
        if 0 not in self._busy_levels and 1 not in self._busy_levels:
            scores.append((len(self.levels[0]) / opts.l0_compaction_trigger, 0))
        for i in range(1, opts.max_levels - 1):
            if i in self._busy_levels or (i + 1) in self._busy_levels:
                continue
            if self.levels[i]:
                scores.append((self.level_bytes[i] / opts.level_target_bytes(i), i))
        return scores

    def pick_background_job(self) -> Optional[BackgroundJob]:
        # Highest score wins (the deeper level on ties).
        score, level = max(self._scores(), default=(0.0, 0))
        if score < 1.0:
            return None
        return self._claim_job(f"compact:L{level}", (level, level + 1),
                               lambda: self._compact(level))

    # --------------------------------------------------------------- compact
    def _overlapping(self, level: int, lo, hi) -> List[MSTable]:
        """Tables in a sorted (L1+) level intersecting [lo, hi] (None = open).

        Two fence bisects and one slice: deep levels hold thousands of
        files, and this runs on every compaction pick and every scan.
        """
        lst = self.levels[level]
        start = 0
        if lo is not None:
            start = bisect.bisect_right(lst, lo, key=MIN_KEY) - 1
            if start < 0 or lst[start].max_key < lo:
                start += 1
        stop = None if hi is None else bisect.bisect_right(lst, hi, key=MIN_KEY)
        return lst[start:stop]

    def _pick_input_file(self, level: int) -> MSTable:
        """Round-robin file pick via the per-level compaction cursor."""
        lst = self.levels[level]
        cursor = self.compact_pointer[level]
        if cursor is None:
            return lst[0]
        i = bisect.bisect_right(lst, cursor, key=MIN_KEY)
        return lst[i] if i < len(lst) else lst[0]

    def _compact(self, level: int) -> float:
        if level == 0:
            # LevelDB: start from the oldest L0 file and pull in every L0
            # file overlapping the accumulated range (files from sequential
            # loads are disjoint, so they move down one by one).
            inputs_up = [self.levels[0][0]]
            lo, hi = inputs_up[0].min_key, inputs_up[0].max_key
            grew = True
            while grew:
                grew = False
                for t in self.levels[0]:
                    if t not in inputs_up and not (t.max_key < lo or t.min_key > hi):
                        inputs_up.append(t)
                        lo = min(lo, t.min_key)
                        hi = max(hi, t.max_key)
                        grew = True
        else:
            if not self.levels[level]:
                return 0.0
            inputs_up = [self._pick_input_file(level)]
            self.compact_pointer[level] = inputs_up[0].max_key
        lo = min(t.min_key for t in inputs_up)
        hi = max(t.max_key for t in inputs_up)
        inputs_down = self._overlapping(level + 1, lo, hi)

        # Trivial move: a single input and nothing overlapping below.
        if len(inputs_up) == 1 and not inputs_down:
            t = inputs_up[0]
            self._remove_table(level, t)
            self.level_bytes[level] -= t.data_bytes
            self._insert_sorted(level + 1, t)
            self.level_bytes[level + 1] += t.data_bytes
            self.trivial_moves += 1
            self.runtime.metrics.bump("trivial_move")
            self._trace("compaction", "trivial-move", level=level,
                        to_level=level + 1)
            return 0.0

        bottom = all(not self.levels[j] for j in range(level + 2, self.options.max_levels))
        merged, debt = self._gather_merge(inputs_up + inputs_down,
                                          drop_tombstones=bottom)

        for t in inputs_up:
            self._remove_table(level, t)
            self.level_bytes[level] -= t.data_bytes
        for t in inputs_down:
            self._remove_table(level + 1, t)
            self.level_bytes[level + 1] -= t.data_bytes
        # Inputs are unlinked but outputs not yet built: a crash here leaves
        # the in-flight compaction's files as orphans for recovery to sweep.
        self._crash_point("mid-compact")

        # Output files of roughly file_bytes; one key's versions stay together.
        for chunk in split_run(merged, self.options.key_size,
                               self.options.file_bytes):
            table = self._new_table()
            _, d = table.append_sequence(chunk, level=level + 1)
            debt += d
            self._insert_sorted(level + 1, table)
            self.level_bytes[level + 1] += table.data_bytes

        for t in inputs_up + inputs_down:
            t.delete()
        self.compactions += 1
        self.runtime.metrics.bump(f"compaction:L{level}")
        if self.runtime.tracer.enabled:
            self._trace("compaction", f"compact:L{level}", level=level,
                        inputs_up=len(inputs_up), inputs_down=len(inputs_down),
                        records=merged.n)
        return debt

    def _insert_sorted(self, level: int, table: MSTable) -> None:
        lst = self.levels[level]
        i = bisect.bisect_left(lst, table.min_key, key=MIN_KEY)
        lst.insert(i, table)

    def _remove_table(self, level: int, table: MSTable) -> None:
        """Remove by binary search (deep levels hold thousands of files)."""
        lst = self.levels[level]
        if level == 0:
            lst.remove(table)
            return
        i = bisect.bisect_left(lst, table.min_key, key=MIN_KEY)
        while i < len(lst):
            if lst[i] is table:
                del lst[i]
                return
            i += 1
        raise InvariantViolation("table not found in its level")

    # ------------------------------------------------------------------- read
    def get(self, key, snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        latency = 0.0
        hashes = hash_pair(key)  # one Bloom hash per get, not per table
        for table in reversed(self.levels[0]):
            if table.min_key <= key <= table.max_key:
                rec, lat = table.get(key, snapshot, hashes)
                latency += lat
                if rec is not None:
                    return rec, latency
        for level in range(1, self.options.max_levels):
            table = self._find_table(level, key)
            if table is not None:
                rec, lat = table.get(key, snapshot, hashes)
                latency += lat
                if rec is not None:
                    return rec, latency
        return None, latency

    def _find_table(self, level: int, key) -> Optional[MSTable]:
        lst = self.levels[level]
        idx = bisect.bisect_right(lst, key, key=MIN_KEY) - 1
        if idx >= 0 and key <= lst[idx].max_key:
            return lst[idx]
        return None

    @observation_only
    def scan_cursors(self, lo_key, hi_key) -> List:
        """One stream per L0 file (newest first), then one per deeper level."""
        streams: List[object] = []
        for table in reversed(self.levels[0]):
            if hi_key is not None and table.min_key > hi_key:
                continue
            if lo_key is not None and table.max_key < lo_key:
                continue
            streams.append(table_stream(self.runtime, table, lo_key, hi_key))
        for level in range(1, self.options.max_levels):
            tables = self._overlapping(level, lo_key, hi_key)
            if tables:
                streams.append(chain_stream(self.runtime, partial(iter, tables),
                                            lo_key, hi_key))
        return streams

    # ------------------------------------------------------------- inspection
    def level_data_bytes(self) -> Dict[int, int]:
        return {i: b for i, b in enumerate(self.level_bytes) if b or self.levels[i]}

    def overflow_factors(self) -> Dict[int, float]:
        """Actual size over threshold per level (§6.2's "data overflows").

        LevelDB under write pressure lets levels exceed their thresholds
        (the paper measures L1 at 5.6x), which shrinks the effective
        adjacent-level fan-out and with it the write amplification.
        """
        out = {}
        for i in range(1, self.options.max_levels - 1):
            if self.level_bytes[i]:
                out[i] = self.level_bytes[i] / self.options.level_target_bytes(i)
        return out

    def effective_size_ratios(self) -> Dict[int, float]:
        """Measured size ratio between adjacent levels (paper: 5.4 vs 10)."""
        out = {}
        for i in range(1, self.options.max_levels - 1):
            if self.level_bytes[i] and self.level_bytes[i + 1]:
                out[i] = self.level_bytes[i + 1] / self.level_bytes[i]
        return out

    @observation_only
    def check_invariants(self) -> None:
        for i, lst in enumerate(self.levels):
            total = sum(t.data_bytes for t in lst)
            if total != self.level_bytes[i]:
                raise InvariantViolation(f"level {i} byte accounting drifted")
            for t in lst:
                if t.n_sequences != 1 or not t.probe_rows_mirror_sequences():
                    raise InvariantViolation(
                        "LSM tables must hold one sequence, mirrored by one probe row")
            if i >= 1:
                for a, b in zip(lst, lst[1:]):
                    if not a.max_key < b.min_key:
                        raise InvariantViolation(
                            f"level {i} ranges overlap: {a.max_key!r} vs {b.min_key!r}")

    @observation_only
    def describe(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "levels": {i: {"files": len(lst), "bytes": self.level_bytes[i]}
                       for i, lst in enumerate(self.levels) if lst},
            "flushes": self.flushes,
            "compactions": self.compactions,
            "trivial_moves": self.trivial_moves,
        }

    # --------------------------------------------------------------- recovery
    def checkpoint_state(self) -> object:
        """Owned pure-data snapshot (see Manifest.checkpoint): per-table
        sequence tuples, no live MSTable references."""
        return {
            "levels": [[t.snapshot() for t in lst] for lst in self.levels],
            "compact_pointer": list(self.compact_pointer),
        }

    def _restore_state(self, state: object) -> None:
        for lst in self.levels:
            for t in lst:
                t.delete()
        n = self.options.max_levels
        if state is None:
            self.levels = [[] for _ in range(n)]
            self.level_bytes = [0] * n
            self.compact_pointer = [None] * n
            return
        sdict = cast(Dict[str, Any], state)
        self.levels = [[MSTable.from_snapshot(self.runtime, snap)
                        for snap in lst] for lst in sdict["levels"]]
        self.level_bytes = [sum(t.data_bytes for t in lst) for lst in self.levels]
        self.compact_pointer = list(sdict["compact_pointer"])

    def live_file_ids(self) -> Set[int]:
        return {t.file_id for lst in self.levels for t in lst if not t.deleted}
