"""The append tree (LSA, §4) under IAM's append/merge rule (§5).

A memtable flush partitions its run among the target level's nodes; each
part is *appended* to its node as a new sequence or *merged* with it into
one.  Which of the two is the paper's policy, one rule read by
``_place_part`` (:meth:`LsaTree.merges_on_arrival`):

* **appending levels** (``level < m``) append -- their data is small and
  cached, so multiple sequences cost no disk seeks, and every user byte is
  written roughly once per level (Eq. 3);
* the **mixed level** (``level == m``) merges a child to a single sequence
  once it already holds ``k`` sequences and appends otherwise (Figure 5):
  every k-th arrival merges, so the per-flush write amplification is
  t/2k + 1 (§5.3.1);
* **merging levels** (``level > m``) merge every arrival, keeping one
  sequence per node, so scans cost at most one seek per level (LSM's read
  amplification, §5.3.2);
* a full leaf child always merges and re-splits (Figure 4).

``m`` and ``k`` come from ``IamOptions.fixed_m/fixed_k`` or are retuned from
Eq. (1)/(2) every ``retune_interval`` flushes and at every tree deepening.
LSA and LSM are the rule's two corners, not classes: ``as_lsa()`` puts the
mixed level beyond the tree (pure appends), ``as_lsm()`` sets ``m = k = 1``
(§1: "with proper user configuration").  Three operations maintain the
structure under any ``(m, k)``:

* **flush** (§4.2.1) -- move a full node's data to its children; with no
  children the node itself moves down by a metadata edit (the sequential-
  write fast path); at the leaf level full children are merged and re-split
  into nodes of the initial size ``Ct/5`` (Figure 4).
* **split** (§4.2.2) -- a full node with ``2t`` children rewrites itself into
  two half nodes, bounding the worst write case (Table 2).
* **combine** (§4.2.3) -- when a level exceeds its ``t^i`` node budget, the
  candidate with the smallest covered-children count ``Tcn <= 3t`` flushes
  its data down and disappears; neighbours adopt its children evenly.
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, cast

from repro.common.errors import InvariantViolation
from repro.common.options import IamOptions
from repro.common.records import Key, RecordTuple
from repro.core.engine import EngineBase
from repro.core.tuning import tune_m_k
from repro.core.node import (
    RANGE_LO,
    LsaNode,
    children_of,
    children_slice,
    count_children,
    level_find_node,
    level_insert_sorted,
    level_overlapping,
    level_tables,
    partition_records,
)
from repro.filters.bloom import hash_pair
from repro.table.scan import chain_stream
from repro.storage.background import BackgroundJob
from repro.storage.runtime import Runtime
# Not called here (EngineBase._gather_merge is the one call site): the e2e
# benchmark's self-test reads this module global when it checks the ledger.
from repro.table.merge import merge_runs  # noqa: F401
from repro.table.mstable import MSTable
from repro.table.run import Run, split_run
from repro.check.effects.registry import observation_only


class LsaTree(EngineBase):
    """Append-tree engine with the per-level ``(m, k)`` append/merge rule."""

    name = "iam"
    options: IamOptions

    def __init__(self, options: IamOptions, runtime: Runtime) -> None:
        super().__init__(runtime)
        self.options = options
        #: levels[0] is unused (L0 is the memtable, held by the DB wrapper);
        #: levels[1..n] are the on-disk levels, n == leaf.
        self.levels: List[List[LsaNode]] = [[], []]
        self.n = 1
        self.flushes = 0
        self.splits = 0
        self.combines = 0
        self.move_downs = 0
        self.appends = 0
        self.merges = 0
        #: Largest child fan-out any flush actually wrote into -- the paper's
        #: "worst write case" metric (Table 2); splits keep it near 2t.
        self.max_flush_fanout = 0
        self.memtable_capacity = options.node_capacity
        self._init_pacer()
        self.m = options.fixed_m if options.fixed_m is not None else 1
        self.k = options.fixed_k if options.fixed_k is not None else 1
        self._flushes_since_tune = 0
        if options.fixed_m is None or options.fixed_k is None:
            self.retune()

    # ------------------------------------------------------------------ write
    def submit_flush(self, run: Run, nbytes: int) -> BackgroundJob:
        def start() -> float:
            return self._ingest(run)

        return self.runtime.submit_job("lsa-ingest", start, high_priority=True)

    def pick_background_job(self) -> Optional[BackgroundJob]:
        # All structural work happens inside the flush job; LSA has no
        # standing compaction demand.
        return None

    # ----------------------------------------------------------------- ingest
    def _ingest(self, run: Run) -> float:
        """Flush one memtable run (the L0 node) into the tree."""
        self._flushes_since_tune += 1
        if self._flushes_since_tune >= self.options.retune_interval:
            self._flushes_since_tune = 0
            self.retune()
        debt = self._ensure_structure()
        self.flushes += 1
        lo, hi = run.key_at(0), run.key_at(-1)
        if self.runtime.tracer.enabled:
            self._trace("flush", "flush", records=run.n)
        # The L0 node's children are the L1 nodes overlapping the run's span
        # (§4.1); with no children (sequential writes) the run moves down as
        # a brand-new node and is written to disk exactly once.
        debt += self._flush_into(
            1, lambda: level_overlapping(self.levels[1], lo, hi), run)
        self._sanitize("flush")
        return debt

    def _ensure_structure(self) -> float:
        """Pre-processing (§4.2.3): deepen on leaf overflow, then combine."""
        opts = self.options
        debt = 0.0
        while len(self.levels[self.n]) >= opts.level_node_threshold(self.n):
            self.n += 1
            self.levels.append([])
            self.runtime.metrics.bump("deepen")
            self._trace("structure", "deepen", n_levels=self.n)
            self.retune()
        for i in range(1, self.n):
            guard = 0
            while len(self.levels[i]) > opts.level_node_threshold(i):
                guard += 1
                if guard > 10_000:
                    raise InvariantViolation(f"combine loop at L{i} did not converge")
                debt += self._combine_one(i)
        return debt

    # ------------------------------------------------------------- flush core
    def _flush_into(self, target_level: int, children_fn: Callable[[], List[LsaNode]],
                    run: Run) -> float:
        """Partition ``run`` among ``children_fn()`` nodes at ``target_level``.

        Resolves the flush preconditions first (§4.2.1): at an internal
        target, every full child is flushed -- or split when it already has
        ``2t`` children -- before any data lands.
        """
        opts = self.options
        debt = 0.0
        if target_level < self.n:
            guard = 0
            while True:
                guard += 1
                if guard > 10_000:
                    raise InvariantViolation("full-children resolution did not converge")
                kids = children_fn()
                full = [k for k in kids if k.nbytes >= opts.node_capacity]
                if not full:
                    break
                child = full[0]
                if self._count_children_of(target_level, child) >= opts.split_children_threshold:
                    debt += self._split_node(target_level, child)
                else:
                    debt += self._flush_node(target_level, child)
        kids = children_fn()
        if not kids:
            return debt + self._create_node_from_run(target_level, run)
        if len(kids) > self.max_flush_fanout:
            self.max_flush_fanout = len(kids)
        leaf = target_level == self.n
        weights = None
        if not leaf:
            weights = [self._count_children_of(target_level, k) for k in kids]
        parts = partition_records(run, kids, leaf=leaf, child_weights=weights)
        for child, part in zip(list(kids), parts):
            if not part.n:
                continue
            debt += self._place_part(target_level, child, part)
        return debt

    def _place_part(self, level: int, child: LsaNode, part: Run) -> float:
        if not self.merges_on_arrival(level, child):
            return self._append_to_child(level, child, part)
        if level == self.n:
            return self._merge_leaf_child(child, part)
        return self._merge_internal_child(level, child, part)

    # ----------------------------------------------------------------- policy
    def merges_on_arrival(self, level: int, child: LsaNode) -> bool:
        """The rule (§5.1): does an arrival at ``child`` of ``level`` merge?

        Deeper than ``L_m`` always, at ``L_m`` on every k-th arrival,
        shallower never -- except that a full leaf child always merges.
        """
        if level > self.m or (level == self.m and child.n_sequences >= self.k):
            return True
        return level == self.n and child.nbytes >= self.options.node_capacity

    # -------------------------------------------------------------- placement
    def _append_to_child(self, level: int, child: LsaNode, part: Run) -> float:
        table = child.table
        if table is None or table.deleted:
            table = child.table = self._new_table()
        seq, debt = table.append_sequence(part, level=level)
        child.extend_range(seq.min_key, seq.max_key)
        self.appends += 1
        self.runtime.metrics.bump("append")
        if self.runtime.tracer.enabled:
            self._trace("compaction", "append", level=level,
                        seqs=child.n_sequences, records=part.n)
        if self.options.pin_appended_sequences and level <= self.m:
            # §5.1.3 forcible caching: pin appended sequences up to the mixed
            # level so scans take at most one disk seek per level.
            self.runtime.cache.pin_range(table.file_id,
                                         seq.first_block, seq.n_blocks)
        return debt

    def _merge_internal_child(self, level: int, child: LsaNode, part: Run) -> float:
        """Rewrite an internal child as a single sequence."""
        tracing = self.runtime.tracer.enabled
        n_runs = 1 + child.n_sequences if tracing else 0
        if tracing and level == self.m:
            # The mixed level's k-bound merge (§5.1.2): the child reached its
            # k-th sequence and collapses back to one.
            self._trace("compaction", "merge:mixed", level=level, k=self.k,
                        seqs=child.n_sequences)
        merged, debt = self._gather_merge(child.tables, part)
        child.drop_table()
        child.table = self._new_table()
        seq, d = child.table.append_sequence(merged, level=level)
        debt += d
        child.extend_range(seq.min_key, seq.max_key)
        self.merges += 1
        self.runtime.metrics.bump("merge:internal")
        if tracing:
            self._trace("compaction", "merge:internal", level=level,
                        runs=n_runs, records=merged.n)
        self._sanitize("merge")
        return debt

    def _merge_leaf_child(self, child: LsaNode, part: Run) -> float:
        """Merge a leaf child with its assigned records (Figure 4).

        The merged output replaces the child: split into fresh nodes of the
        initial size ``Ct/5`` when it exceeds ``Ct``, kept whole otherwise.
        """
        opts = self.options
        level = self.n
        tracing = self.runtime.tracer.enabled
        n_runs = 1 + child.n_sequences if tracing else 0
        merged, debt = self._gather_merge(child.tables, part, drop_tombstones=True)
        lst = self.levels[level]
        lst.pop(self._node_index(level, child))  # bisect-based removal
        child.drop_table()
        if merged.n:
            total = merged.encoded_size(opts.key_size)
            chunk_bytes = opts.leaf_initial_bytes if total >= opts.node_capacity else total
            for chunk in split_run(merged, opts.key_size, chunk_bytes):
                debt += self._new_node(level, chunk)
        self.merges += 1
        self.runtime.metrics.bump("merge:leaf")
        if tracing:
            self._trace("compaction", "merge:leaf", level=level,
                        runs=n_runs, records=merged.n)
        self._sanitize("merge")
        return debt

    def _new_node(self, level: int, run: Run) -> float:
        """Write ``run`` as a fresh single-sequence node of ``level``."""
        table = self._new_table()
        _, debt = table.append_sequence(run, level=level)
        level_insert_sorted(self.levels[level],
                            LsaNode(table.min_key, table.max_key, table))
        return debt

    def _create_node_from_run(self, level: int, run: Run) -> float:
        """A run with no children becomes a new node (sequential fast path)."""
        debt = self._new_node(level, run)
        self.runtime.metrics.bump("new_node")
        return debt

    # ----------------------------------------------------------------- tuning
    def memory_budget(self) -> int:
        """Cache bytes reserved for appended sequences (M~ in Eq. 2)."""
        return int(self.runtime.cache.capacity_bytes
                   * self.options.memory_budget_fraction)

    def retune(self) -> None:
        """Recompute (m, k) from current level sizes (Eq. 1-2)."""
        opts = self.options
        if opts.fixed_m is not None and opts.fixed_k is not None:
            self.m, self.k = opts.fixed_m, opts.fixed_k
            return
        m, k = tune_m_k(self.level_data_bytes(), self.n, self.memory_budget(),
                        fanout=opts.fanout, k_max=opts.k_max)
        if opts.fixed_m is not None:
            m = opts.fixed_m
        if opts.fixed_k is not None:
            k = opts.fixed_k
        if (m, k) != (self.m, self.k):
            self.runtime.metrics.bump("retune")
            self._trace("tuning", "retune", m=m, k=k,
                        prev_m=self.m, prev_k=self.k)
        self.m, self.k = m, k

    # ------------------------------------------------------------- node flush
    def _node_index(self, level: int, node: LsaNode) -> int:
        lst = self.levels[level]
        idx = bisect.bisect_right(lst, node.range_lo, key=RANGE_LO) - 1
        if idx < 0 or lst[idx] is not node:
            # Ranges may share range_lo transiently; fall back to a scan.
            idx = lst.index(node)
        return idx

    def _count_children_of(self, level: int, node: LsaNode) -> int:
        if level >= self.n:
            return 0
        idx = self._node_index(level, node)
        return count_children(self.levels[level], self.levels[level + 1], idx)

    def _flush_node(self, level: int, node: LsaNode, *, destroy: bool = False) -> float:
        """Move a node's data to level+1 (§4.2.1); optionally destroy it."""
        if level >= self.n:
            raise InvariantViolation("leaf nodes are merged, never flushed")
        lst = self.levels[level]
        kids_lst = self.levels[level + 1]
        idx = self._node_index(level, node)
        # Data placement uses *overlap*-based children (§4.1: a child is a
        # next-level node whose range overlaps the parent's): any record of
        # this node that falls inside an existing next-level range must land
        # in exactly that node, or ranges would overlap within the level.
        over = level_overlapping(kids_lst, node.range_lo, node.range_hi)
        if not over:
            # Metadata-only move down (sequential-write fast path).
            lst.pop(idx)
            level_insert_sorted(kids_lst, node)
            self.move_downs += 1
            self.runtime.metrics.bump("move_down")
            self._trace("compaction", "move-down", level=level,
                        to_level=level + 1)
            return 0.0

        def kids_fn() -> List[LsaNode]:
            return level_overlapping(self.levels[level + 1],
                                     node.range_lo, node.range_hi)

        debt = 0.0
        tables = node.tables
        if tables:
            merged, debt = self._gather_merge(tables)
            node.drop_table()
            if merged.n:
                debt += self._flush_into(level + 1, kids_fn, merged)
        if destroy:
            self._remove_and_adopt(level, node)
        else:
            self._rebalance_with_siblings(level, node)
        return debt

    # ------------------------------------------------------------------ split
    def _split_node(self, level: int, node: LsaNode) -> float:
        """Rewrite a full node with >= 2t children into two halves (§4.2.2)."""
        lst = self.levels[level]
        idx = self._node_index(level, node)
        kids = children_of(lst, self.levels[level + 1], idx) if level < self.n else []
        if len(kids) < 2:
            raise InvariantViolation("split needs at least two children")
        # Boundary candidates must fall strictly inside the node's range:
        # the first node of a level can own children whose range_lo lies left
        # of its own range_lo, which would produce an invalid half.
        mid = len(kids) // 2
        candidates = [(abs(i - mid), i) for i in range(1, len(kids))
                      if node.range_lo < kids[i].range_lo <= node.range_hi]
        if not candidates:
            # No valid cut point: fall back to a plain flush of the node.
            return self._flush_node(level, node)
        _, h = min(candidates)
        boundary = kids[h].range_lo

        merged, debt = self._gather_merge(node.tables)
        cut = bisect.bisect_left(merged.key_view(), boundary)
        run_a, run_b = merged.slice(0, cut), merged.slice(cut, merged.n)

        a_hi = kids[h - 1].range_lo
        if run_a.n and run_a.key_at(-1) > a_hi:
            a_hi = run_a.key_at(-1)
        if a_hi < node.range_lo:  # kids[h-1] may lie left of the node's range
            a_hi = node.range_lo
        node_a = LsaNode(node.range_lo, a_hi)
        node_b = LsaNode(boundary, max(node.range_hi, boundary))

        node.drop_table()
        lst.pop(idx)
        # The node is gone but its halves are not yet inserted: a crash here
        # loses the in-flight rewrite (recovered from the checkpoint + WAL).
        self._crash_point("mid-split")
        for new_node, half in ((node_a, run_a), (node_b, run_b)):
            if half.n:
                new_node.table = self._new_table()
                _, d = new_node.table.append_sequence(half, level=level)
                debt += d
            level_insert_sorted(lst, new_node)
        self.splits += 1
        self.runtime.metrics.bump("split")
        self._trace("structure", "split", level=level)
        self._sanitize("split")
        return debt

    # ---------------------------------------------------------------- combine
    def _combine_one(self, level: int) -> float:
        """Destroy one node of an over-budget level (§4.2.3)."""
        lst = self.levels[level]
        if len(lst) < 3:
            # Degenerate: flush-and-destroy the last node.
            victim = lst[-1]
        else:
            kids_lst = self.levels[level + 1]
            limit = self.options.combine_tcn_factor * self.options.fanout
            best_ok = None  # smallest Tcn among candidates with Tcn <= 3t
            best_any = None  # fallback: smallest Tcn overall
            for idx in range(1, len(lst) - 1):
                i0, _ = children_slice(lst, kids_lst, idx - 1)
                _, j1 = children_slice(lst, kids_lst, idx + 1)
                tcn = j1 - i0
                if best_any is None or tcn < best_any[0]:
                    best_any = (tcn, idx)
                if tcn <= limit and (best_ok is None or tcn < best_ok[0]):
                    best_ok = (tcn, idx)
            chosen = best_ok if best_ok is not None else best_any
            victim = lst[chosen[1]]
        self.combines += 1
        self.runtime.metrics.bump("combine")
        self._trace("structure", "combine", level=level)
        debt = self._flush_node(level, victim, destroy=True)
        self._crash_point("mid-combine")
        self._sanitize("combine")
        return debt

    def _remove_and_adopt(self, level: int, node: LsaNode) -> None:
        """Remove a combined node; neighbours adopt its children evenly."""
        lst = self.levels[level]
        idx = self._node_index(level, node)
        if level < self.n:
            i, j = children_slice(lst, self.levels[level + 1], idx)
            gap_kids = self.levels[level + 1][i:j]
        else:
            gap_kids = []
        lst.pop(idx)
        # After the pop, lst[idx-1] is the left neighbour and lst[idx] (if it
        # exists) the right one.  Give the right neighbour the second half of
        # the orphaned children by moving its range_lo left (§4.2.3: "the
        # ranges of the two neighbors extend evenly").
        if gap_kids and idx < len(lst):
            right = lst[idx]
            h = len(gap_kids) // 2
            new_lo = gap_kids[h].range_lo
            data_min = right.data_min_key
            left_hi = lst[idx - 1].range_hi if idx > 0 else None
            if ((data_min is None or new_lo <= data_min)
                    and (left_hi is None or left_hi < new_lo)
                    and new_lo < right.range_lo):
                right.range_lo = new_lo

    # ------------------------------------------------------------- rebalance
    def _rebalance_with_siblings(self, level: int, node: LsaNode) -> None:
        """Even out child counts with adjacent siblings after a flush.

        The flushed node is empty, so its boundary can move freely (§4.2.1:
        "its key range usually remains unchanged but may be reduced").
        """
        if level >= self.n:
            return
        lst = self.levels[level]
        idx = self._node_index(level, node)
        if idx > 0:
            self._balance_boundary(level, idx - 1, idx)
            idx = self._node_index(level, node)
        if idx < len(lst) - 1:
            self._balance_boundary(level, idx, idx + 1)

    def _balance_boundary(self, level: int, left_idx: int, right_idx: int) -> None:
        """Move the boundary between two adjacent siblings to even out their
        child counts, respecting each node's own data span."""
        lst = self.levels[level]
        kids_lst = self.levels[level + 1]
        left, right = lst[left_idx], lst[right_idx]
        li, lj = children_slice(lst, kids_lst, left_idx)
        ri, rj = children_slice(lst, kids_lst, right_idx)
        c_left, c_right = lj - li, rj - ri
        if abs(c_left - c_right) < 2 or (c_left + c_right) < 2:
            return
        combined = kids_lst[li:rj]
        h = len(combined) // 2
        if h == 0 or h >= len(combined):
            return
        new_b = combined[h].range_lo
        # Feasibility: the new boundary must respect both nodes' data spans
        # and keep ranges disjoint and ordered.
        left_data_max = left.data_max_key
        right_data_min = right.data_min_key
        if left_data_max is not None and left_data_max >= new_b:
            return
        if right_data_min is not None and right_data_min < new_b:
            return
        if new_b <= left.range_lo:
            return
        # Shrink/extend so that left.range_hi < new_b == right.range_lo.
        new_left_hi = combined[h - 1].range_lo
        if left_data_max is not None and left_data_max > new_left_hi:
            new_left_hi = left_data_max
        if new_left_hi < left.range_lo:
            new_left_hi = left.range_lo
        if not (new_left_hi < new_b):
            return
        if right_idx < len(lst) - 1 and new_b >= lst[right_idx + 1].range_lo:
            return
        left.range_hi = new_left_hi
        right.range_lo = new_b
        if right.range_hi < new_b:
            right.range_hi = new_b
        self.runtime.metrics.bump("rebalance")

    # ------------------------------------------------------------------- read
    def get(self, key: Key,
            snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        latency = 0.0
        hashes = hash_pair(key)  # one Bloom hash per get, not per sequence
        for level in range(1, self.n + 1):
            node = level_find_node(self.levels[level], key)
            if node is None or node.is_empty:
                continue
            rec, lat = node.table.get(key, snapshot, hashes)
            latency += lat
            if rec is not None:
                return rec, latency
        return None, latency

    @observation_only
    def scan_cursors(self, lo_key: Optional[Key],
                     hi_key: Optional[Key]) -> List[Iterable[RecordTuple]]:
        """One lazy node chain per level, top level first."""
        streams: List[Iterable[RecordTuple]] = []
        for level in range(1, self.n + 1):
            nodes = level_overlapping(self.levels[level], lo_key, hi_key)
            if nodes:
                streams.append(chain_stream(self.runtime, partial(level_tables, nodes),
                                            lo_key, hi_key))
        return streams

    # ------------------------------------------------------------- inspection
    def level_data_bytes(self) -> Dict[int, int]:
        return {i: sum(node.nbytes for node in self.levels[i])
                for i in range(1, self.n + 1)}

    def level_node_counts(self) -> Dict[int, int]:
        return {i: len(self.levels[i]) for i in range(1, self.n + 1)}

    def max_children(self) -> int:
        """Largest child count of any node (worst-write-case indicator)."""
        worst = 0
        for level in range(1, self.n):
            parents = self.levels[level]
            kids = self.levels[level + 1]
            for idx in range(len(parents)):
                i, j = children_slice(parents, kids, idx)
                worst = max(worst, j - i)
        return worst

    def max_sequences_per_node(self) -> int:
        return max((node.n_sequences
                    for level in self.levels for node in level), default=0)

    def level_class(self, level: int) -> str:
        """"appending", "mixed" or "merging" (§5.1)."""
        if level < self.m:
            return "appending"
        return "mixed" if level == self.m else "merging"

    def policy_debt(self) -> int:
        """Nodes currently over their level's sequence bound.

        Metadata-only move-downs can carry multi-sequence nodes into the
        mixed/merging levels (that is the point: no rewrite); the rule
        merges them on their first arrival.  This counts the not-yet-healed
        nodes -- it should stay small and must never grow monotonically.
        """
        debt = 0
        for level in range(self.m, self.n + 1):
            bound = self.k if level == self.m else 1
            debt += sum(1 for node in self.levels[level] if node.n_sequences > bound)
        return debt

    @observation_only
    def check_invariants(self) -> None:
        for i in range(1, self.n + 1):
            lst = self.levels[i]
            for a, b in zip(lst, lst[1:]):
                if not a.range_hi < b.range_lo:
                    raise InvariantViolation(
                        f"L{i} ranges overlap/unsorted: {a!r} vs {b!r}")
            for node in lst:
                node.check_range_covers_data()
                if node.table is not None and not node.table.probe_rows_mirror_sequences():
                    raise InvariantViolation(f"L{i} probe rows drifted: {node!r}")
        for extra in self.levels[self.n + 1:]:
            if extra:
                raise InvariantViolation("nodes beyond the leaf level")

    @observation_only
    def describe(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "n_levels": self.n,
            "levels": {i: {"nodes": len(self.levels[i]),
                           "bytes": sum(nd.nbytes for nd in self.levels[i]),
                           "max_seqs": max((nd.n_sequences for nd in self.levels[i]),
                                           default=0)}
                       for i in range(1, self.n + 1)},
            "flushes": self.flushes,
            "splits": self.splits,
            "combines": self.combines,
            "move_downs": self.move_downs,
            "appends": self.appends,
            "merges": self.merges,
            "m": self.m,
            "k": self.k,
            "level_classes": {i: self.level_class(i) for i in range(1, self.n + 1)},
        }

    # --------------------------------------------------------------- recovery
    def checkpoint_state(self) -> object:
        """Owned pure-data snapshot: (range_lo, range_hi, table snapshot|None)
        per node -- no live node/table references (see Manifest.checkpoint)."""
        return {
            "n": self.n,
            "levels": [
                [(node.range_lo, node.range_hi,
                  node.table.snapshot() if node.table is not None else None)
                 for node in lvl]
                for lvl in self.levels
            ],
        }

    def _restore_state(self, state: object) -> None:
        for lvl in self.levels:
            for node in lvl:
                node.drop_table()
        if state is None:
            self.n = 1
            self.levels = [[], []]
            return
        sdict = cast(Dict[str, Any], state)
        self.n = sdict["n"]
        levels: List[List[LsaNode]] = []
        for lvl in sdict["levels"]:
            nodes: List[LsaNode] = []
            for lo, hi, snap in lvl:
                node = LsaNode(lo, hi)
                if snap is not None:
                    node.table = MSTable.from_snapshot(self.runtime, snap)
                nodes.append(node)
            levels.append(nodes)
        self.levels = levels

    def live_file_ids(self) -> Set[int]:
        return {node.table.file_id
                for lvl in self.levels for node in lvl
                if node.table is not None and not node.table.deleted}
