"""Runtime structural sanitizer for the LSA/IAM engine (opt-in debug layer).

When enabled (``IamDB(..., sanitizer_options=SanitizerOptions())`` or the
``--sanitize`` CLI flag), the sanitizer walks the live tree after every
structural operation -- flush, split, combine, merge -- and the DB state at
every memtable rotation, verifying the invariant catalog the paper's analysis
rests on:

==========================  ===========================================
``level-sorted``            node ranges per level are sorted & disjoint
``range-covers-data``       every node's range covers its table's keys
``sequence-sorted``         every sequence is (key asc, seq desc) sorted
``sequence-layout``         sequences occupy disjoint, increasing blocks;
                            the table's probe rows mirror them newest-first
``mixed-level-bound``       ``Lm`` nodes never *grow* past ``k`` sequences
                            (move-down carry heals on first arrival, §5.1)
``leaf-is-last``            no nodes beyond the leaf level
``node-file-agreement``     node bytes == live SimFile bytes (manifest view)
``clock-monotonic``         the simulated clock never goes backwards
``space-accounting``        disk live_bytes == sum of live file bytes
``cache-pin-balance``       pinned blocks are resident and belong to live
                            files; per-file residency partitions the LRU
``wal-memtable-agreement``  WAL content == memtable + immutable records
``manifest-agreement``      checkpoint seq <= DB seq; WAL holds only
                            records newer than the checkpoint
==========================  ===========================================

The sanitizer is strictly *observation-only*: it never touches the page
cache's LRU order, never charges I/O, and never advances the clock, so a
sanitized run produces byte-identical write amplification and tree shape to
an unsanitized one (enforced by ``tests/test_sanitizer_equivalence.py``).

Violations raise :class:`InvariantViolation` with a structured
:class:`~repro.check.diagnostics.Diagnostic` (or are collected when
``halt_on_violation=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.check.diagnostics import Diagnostic, invariant_error
from repro.common.records import KEY, SEQ
from repro.check.effects.registry import observation_only

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.lsa import LsaTree
    from repro.db.iamdb import IamDB


@dataclass(frozen=True)
class SanitizerOptions:
    """Configuration of the runtime sanitizer (all checks default on)."""

    #: Verify record-level sortedness of every sequence (O(data) per walk).
    deep_records: bool = True
    #: Verify page-cache pin/residency balance.
    check_cache: bool = True
    #: Verify WAL <-> memtable agreement at DB checkpoints.
    check_wal: bool = True
    #: Walk the tree every Nth structural event (1 = every event).
    check_every: int = 1
    #: Raise on the first violation (False: collect into ``violations``).
    halt_on_violation: bool = True


#: Process-wide default used when a DB is built without explicit options
#: (set by the ``--sanitize`` CLI flag, see :func:`set_default_options`).
_DEFAULT_OPTIONS: Optional[SanitizerOptions] = None


def set_default_options(options: Optional[SanitizerOptions]) -> None:
    """Install process-wide default sanitizer options (``--sanitize``)."""
    global _DEFAULT_OPTIONS
    _DEFAULT_OPTIONS = options


def default_options() -> Optional[SanitizerOptions]:
    return _DEFAULT_OPTIONS


@dataclass
class _SeenNode:
    """Per-node observation from the previous walk (mixed-bound tracking)."""

    node: Any  # strong ref: keeps id() stable between walks
    level: int
    n_sequences: int


class Sanitizer:
    """Walks live engine/DB state and verifies structural invariants."""

    def __init__(self, db: "IamDB", options: Optional[SanitizerOptions] = None) -> None:
        self.db = db
        self.options = options if options is not None else SanitizerOptions()
        self.events_seen = 0
        self.checks_run = 0
        self.violations: List[Diagnostic] = []
        self._last_clock = 0.0
        self._last_mk: Optional[Tuple[int, int]] = None
        self._seen: Dict[int, _SeenNode] = {}

    # ------------------------------------------------------------- reporting
    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def _fail(self, check: str, message: str, **context: Any) -> None:
        exc = invariant_error(check, message, **context)
        self.violations.append(exc.diagnostic)
        if self.options.halt_on_violation:
            raise exc

    # ----------------------------------------------------------- entry points
    @observation_only
    def after_structural_event(self, engine: "LsaTree", event: str) -> None:
        """Engine hook: called after every flush/split/combine/merge."""
        self.events_seen += 1
        if self.events_seen % max(1, self.options.check_every) != 0:
            return
        self.check_tree(engine, event=event)

    @observation_only
    def check_tree(self, engine: "LsaTree", *, event: str = "explicit") -> None:
        """Walk the live tree and storage state; verify every invariant."""
        self.checks_run += 1
        self._check_clock()
        # The level walk reads LSA-shaped structure (per-level nodes with
        # ranges); LeveledLsm also has ``levels`` but of bare MSTables, so
        # gate on ``n`` too (recovery calls this for every engine).
        if hasattr(engine, "levels") and hasattr(engine, "n"):
            self._check_levels(engine, event)
            self._check_policy_bounds(engine, event)
        self._check_space_accounting()
        if self.options.check_cache:
            self._check_cache()

    @observation_only
    def check_db(self, event: str = "rotation") -> None:
        """DB hook: verify WAL/memtable/manifest agreement.

        Only sound at DB-level quiescent points (rotation boundaries, after
        an explicit flush, after recovery) -- mid-flush the flushing records
        are owned by the background job and absent from both sides.
        """
        self.checks_run += 1
        self._check_clock()
        if self.options.check_wal:
            self._check_wal_memtable(event)
        self._check_manifest(event)

    # ------------------------------------------------------------- tree walk
    def _check_levels(self, engine: "LsaTree", event: str) -> None:
        opts = self.options
        for level_no in range(1, engine.n + 1):
            level = engine.levels[level_no]
            for a, b in zip(level, level[1:]):
                if not a.range_hi < b.range_lo:
                    self._fail("level-sorted",
                               "node ranges overlap or are unsorted",
                               event=event, level=level_no, left=repr(a),
                               right=repr(b))
            for node in level:
                self._check_node(node, level_no, event, deep=opts.deep_records)
        for extra_no in range(engine.n + 1, len(engine.levels)):
            if engine.levels[extra_no]:
                self._fail("leaf-is-last", "nodes exist beyond the leaf level",
                           event=event, leaf=engine.n, level=extra_no,
                           nodes=len(engine.levels[extra_no]))

    def _check_node(self, node: Any, level_no: int, event: str, *, deep: bool) -> None:
        if node.is_empty:
            return
        table = node.table
        if not (node.range_lo <= table.min_key and table.max_key <= node.range_hi):
            self._fail("range-covers-data", "node range does not cover its data",
                       event=event, level=level_no,
                       range=(node.range_lo, node.range_hi),
                       data=(table.min_key, table.max_key))
        self._check_table_file(table, level_no, event)
        if not table.probe_rows_mirror_sequences():
            self._fail("sequence-layout",
                       "probe rows are not reversed(sequences)",
                       event=event, level=level_no, file=table.file_id)
        prev_end = -1
        for seq in table.sequences:
            if seq.first_block < prev_end:
                self._fail("sequence-layout",
                           "sequence blocks overlap an earlier sequence",
                           event=event, level=level_no, file=table.file_id,
                           first_block=seq.first_block, prev_end=prev_end)
            prev_end = seq.first_block + seq.n_blocks
            if deep:
                self._check_sequence(seq, level_no, event, table.file_id)

    def _check_sequence(self, seq: Any, level_no: int, event: str, file_id: int) -> None:
        run = seq.run
        if not run.n:
            self._fail("sequence-sorted", "empty sequence", event=event,
                       level=level_no, file=file_id)
            return
        if not run.is_sorted():
            self._fail("sequence-sorted",
                       "sequence is not (key asc, seq desc) sorted",
                       event=event, level=level_no, file=file_id,
                       n_records=run.n)
        if run.key_at(0) != seq.min_key or run.key_at(-1) != seq.max_key:
            self._fail("sequence-sorted",
                       "sequence min/max keys disagree with its records",
                       event=event, level=level_no, file=file_id,
                       min_key=seq.min_key, max_key=seq.max_key)

    def _check_table_file(self, table: Any, level_no: int, event: str) -> None:
        disk = self.db.runtime.disk
        file = table.file
        if file.deleted or file.file_id not in disk.files:
            self._fail("node-file-agreement",
                       "live node references a deleted file",
                       event=event, level=level_no, file=file.file_id)
            return
        expected = table.data_bytes + table.metadata_bytes
        if file.nbytes != expected:
            self._fail("node-file-agreement",
                       "file byte accounting disagrees with table contents",
                       event=event, level=level_no, file=file.file_id,
                       file_bytes=file.nbytes, table_bytes=expected)

    # ----------------------------------------------------------- policy bound
    def _check_policy_bounds(self, engine: "LsaTree", event: str) -> None:
        """The mixed level ``Lm`` never *grows* past ``k`` sequences (§5).

        Metadata-only move-downs may carry an over-bound node *into* a
        mixed/merging level (the policy merges it on its first arrival, see
        ``LsaTree.policy_debt``), so the bound is enforced on transitions: a
        node observed under-bound at its level must never be observed
        over-bound at the same level, and an over-bound node must never gain
        sequences while staying at its level.
        """
        m = getattr(engine, "m", None)
        k = getattr(engine, "k", None)
        if m is None or k is None:
            self._seen = {}
            self._last_mk = None
            return
        if self._last_mk != (m, k):
            # Retuning reclassifies levels; restart the transition tracking.
            self._seen = {}
            self._last_mk = (m, k)
        seen_now: Dict[int, _SeenNode] = {}
        for level_no in range(1, engine.n + 1):
            bound: Optional[int] = None
            if level_no > m:
                bound = 1
            elif level_no == m:
                bound = k
            for node in engine.levels[level_no]:
                n_seq = node.n_sequences
                if bound is not None and n_seq > bound:
                    prev = self._seen.get(id(node))
                    if prev is not None and prev.node is node and \
                            prev.level == level_no:
                        if prev.n_sequences <= bound:
                            self._fail(
                                "mixed-level-bound",
                                "node exceeded its level's sequence bound "
                                "without a move-down",
                                event=event, level=level_no, m=m, k=k,
                                bound=bound, n_sequences=n_seq,
                                was=prev.n_sequences)
                        elif n_seq > prev.n_sequences:
                            self._fail(
                                "mixed-level-bound",
                                "over-bound node gained sequences instead of "
                                "merging on arrival",
                                event=event, level=level_no, m=m, k=k,
                                bound=bound, n_sequences=n_seq,
                                was=prev.n_sequences)
                seen_now[id(node)] = _SeenNode(node, level_no, n_seq)
        self._seen = seen_now

    # -------------------------------------------------------- storage checks
    def _check_clock(self) -> None:
        now = self.db.runtime.clock.now
        if now < self._last_clock:
            self._fail("clock-monotonic", "simulated clock went backwards",
                       now=now, last=self._last_clock)
        self._last_clock = now

    def _check_space_accounting(self) -> None:
        disk = self.db.runtime.disk
        total = sum(f.nbytes for f in disk.files.values())
        if total != disk.live_bytes:
            self._fail("space-accounting",
                       "disk live_bytes disagrees with per-file bytes",
                       live_bytes=disk.live_bytes, file_sum=total)

    def _check_cache(self) -> None:
        cache = self.db.runtime.cache
        disk = self.db.runtime.disk
        lru_keys = set(cache._lru)
        for key in cache._pinned:
            if key not in lru_keys:
                self._fail("cache-pin-balance", "pinned block is not resident",
                           file=key[0], block=key[1])
            if key[0] not in disk.files:
                self._fail("cache-pin-balance",
                           "pinned block belongs to a deleted file",
                           file=key[0], block=key[1])
        per_file_keys = {(fid, b) for fid, blocks in cache._per_file.items()
                         for b in blocks}
        if per_file_keys != lru_keys:
            extra = len(per_file_keys - lru_keys)
            missing = len(lru_keys - per_file_keys)
            self._fail("cache-pin-balance",
                       "per-file residency sets disagree with the LRU",
                       extra_in_per_file=extra, missing_from_per_file=missing)

    # ------------------------------------------------------------- db checks
    @staticmethod
    def _memtable_entries(memtable: Any) -> List[Tuple[Any, int]]:
        out: List[Tuple[Any, int]] = []
        for key, versions in memtable._versions.items():
            for seq, _kind, _value in versions:
                out.append((key, seq))
        return out

    def _check_wal_memtable(self, event: str) -> None:
        db = self.db
        wal_entries = sorted((rec[KEY], rec[SEQ]) for rec in db.wal._records)
        mem_entries = self._memtable_entries(db.memtable)
        if db.immutable is not None:
            mem_entries.extend(self._memtable_entries(db.immutable))
        mem_entries.sort()
        if wal_entries != mem_entries:
            self._fail("wal-memtable-agreement",
                       "WAL content disagrees with memtable + immutable "
                       "(replay would not rebuild the volatile state)",
                       event=event, wal_records=len(wal_entries),
                       memtable_records=len(mem_entries))

    def _check_manifest(self, event: str) -> None:
        db = self.db
        state = db.manifest.restore()
        if state is None:
            return
        checkpoint_seq = state.get("seq", 0) if isinstance(state, dict) else 0
        if checkpoint_seq > db._seq:
            self._fail("manifest-agreement",
                       "manifest checkpoint is newer than the DB sequence",
                       event=event, checkpoint_seq=checkpoint_seq,
                       db_seq=db._seq)
        for rec in db.wal._records:
            if rec[SEQ] <= checkpoint_seq:
                self._fail("manifest-agreement",
                           "WAL retains a record already covered by the "
                           "manifest checkpoint",
                           event=event, record_seq=rec[SEQ],
                           checkpoint_seq=checkpoint_seq)
                break

    # --------------------------------------------------------------- summary
    @observation_only
    def summary(self) -> Dict[str, int]:
        return {
            "events_seen": self.events_seen,
            "checks_run": self.checks_run,
            "violations": self.violation_count,
        }
