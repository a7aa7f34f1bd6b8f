"""Runtime structural sanitizer: *when* to check, for every engine.

When enabled (``IamDB(..., sanitizer_options=SanitizerOptions())`` or the
``--sanitize`` CLI flag), the sanitizer runs after every structural
operation -- each engine's flush and compaction; LSA/IAM's split, combine
and merge -- and checks the DB state at every memtable rotation.  Each
structural invariant has one implementation, on the object that owns the
state: the sanitizer calls ``engine.check_invariants()``, which checks the
engine's layout (``LsaTree``: ``level-sorted``, ``range-covers-data``,
``leaf-is-last``; the LSM baselines their levels, guards or trie) and calls
``MSTable.check_invariants`` (``node-file-agreement``, ``sequence-layout``,
``sequence-sorted``) for every live table.  The sanitizer itself keeps only
the checks that need its memory across walks or the DB's quiescent points:

==========================  ===========================================
``mixed-level-bound``       ``Lm`` nodes never *grow* past ``k`` sequences
                            (move-down carry heals on first arrival, §5.1)
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
``halt_on_violation=False``: an engine's catalog stops at its first
breach, so a walk records at most one engine violation).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.check.diagnostics import Diagnostic, invariant_error
from repro.common.errors import InvariantViolation
from repro.common.records import KEY, SEQ
from repro.table.mstable import finish_builds

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EngineBase
    from repro.db.iamdb import IamDB


@dataclass(frozen=True)
class SanitizerOptions:
    """Configuration of the runtime sanitizer (every check always runs)."""

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
    def after_structural_event(self, engine: "EngineBase", event: str) -> None:
        """Engine hook: called after every flush, compaction, split,
        combine and merge, inside the job: the walk first finishes what the
        job appended so far (the same filters, in a smaller batch)."""
        self.events_seen += 1
        builds = engine.runtime.pool.builds
        if builds:
            finish_builds(builds)
            builds.clear()
        self.check_tree(engine, event=event)

    def check_tree(self, engine: "EngineBase", *, event: str = "explicit") -> None:
        """Run the engine's own invariant catalog plus the checks only the
        sanitizer can make (bound transitions, clock, disk, page cache)."""
        self.checks_run += 1
        self._check_clock()
        try:
            engine.check_invariants()
        except InvariantViolation as exc:
            diag = exc.diagnostic
            self._fail(diag.check, diag.message, event=event, **diag.context)
        self._check_policy_bounds(engine, event)
        self._check_space_accounting()
        self._check_page_cache()

    def check_db(self, event: str = "rotation") -> None:
        """DB hook: verify WAL/memtable/manifest agreement.

        Only sound at DB-level quiescent points (rotation boundaries, after
        an explicit flush, after recovery) -- mid-flush the flushing records
        are owned by the background job and absent from both sides.
        """
        self.checks_run += 1
        self._check_clock()
        self._check_memtable_wal(event)
        self._check_manifest(event)

    # ----------------------------------------------------------- policy bound
    def _check_policy_bounds(self, engine: Any, event: str) -> None:
        """The mixed level ``Lm`` never *grows* past ``k`` sequences (§5).

        Metadata-only move-downs may carry an over-bound node *into* a
        mixed/merging level (the policy merges it on its first arrival), so
        the bound is enforced on transitions: a node observed under-bound at
        its level must never be observed over-bound at the same level, and
        an over-bound node must never gain sequences while staying at its
        level.
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

    def _check_page_cache(self) -> None:
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
        counts = dict(Counter(fid for fid, _ in lru_keys))
        if counts != cache._per_file:
            self._fail("cache-pin-balance",
                       "per-file resident counts disagree with the LRU",
                       drift=sorted(counts.items() ^ cache._per_file.items()))

    # ------------------------------------------------------------- db checks
    def _check_memtable_wal(self, event: str) -> None:
        db = self.db
        wal_entries = sorted((rec[KEY], rec[SEQ]) for rec in db.wal._records)
        mem_entries = sorted((rec[KEY], rec[SEQ])
                             for memtable in (db.memtable, db.immutable) if memtable is not None
                             for rec in memtable.iter_range())
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
    def summary(self) -> Dict[str, int]:
        return {
            "events_seen": self.events_seen,
            "checks_run": self.checks_run,
            "violations": self.violation_count,
        }
