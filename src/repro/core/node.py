"""LSA/IAM tree nodes and level bookkeeping (§4.1).

A node owns a key range ``[range_lo, range_hi]`` (inclusive) and an MSTable
holding its sequences; an *empty* node (just flushed) keeps its range but has
no table.  Within a level, node ranges are disjoint and sorted -- a point
read touches at most one node per level.

Parenting rule: a node in ``L_{i+1}`` is the child of the ``L_i`` node with
the greatest ``range_lo`` that is <= the child's ``range_lo`` (the first node
when none qualifies).  This makes child assignment a contiguous partition of
the lower level driven purely by range boundaries, so the paper's
range-adjustment operations (flush rebalancing §4.2.1, combine adoption
§4.2.3) are boundary moves with no pointer surgery.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.common.errors import InvariantViolation
from repro.common.records import Key
from repro.table.mstable import MSTable
from repro.table.run import Run


#: The one fence key every level search bisects by: a C-level getter read
#: off the live nodes, so it cannot go stale when ``extend_range``, a split
#: or a combine moves a boundary (a per-level fence cache could).
RANGE_LO = attrgetter("range_lo")
TABLE = attrgetter("table")


class LsaNode:
    """One tree node: key range + (possibly empty) MSTable."""

    __slots__ = ("range_lo", "range_hi", "table")

    def __init__(self, range_lo: Key, range_hi: Key,
                 table: Optional[MSTable] = None) -> None:
        if range_hi < range_lo:
            raise InvariantViolation(f"bad node range [{range_lo!r}, {range_hi!r}]")
        self.range_lo = range_lo
        self.range_hi = range_hi
        self.table = table

    # ------------------------------------------------------------- properties
    @property
    def is_empty(self) -> bool:
        table = self.table
        return table is None or not table.sequences

    @property
    def nbytes(self) -> int:
        return 0 if self.table is None else self.table.data_bytes

    @property
    def n_sequences(self) -> int:
        return 0 if self.table is None else self.table.n_sequences

    @property
    def tables(self) -> Tuple[MSTable, ...]:
        """What a compaction of this node reads: its table, unless empty."""
        table = self.table
        return (table,) if table is not None and table.sequences else ()

    @property
    def data_min_key(self) -> Optional[Key]:
        return None if self.is_empty else self.table.min_key

    @property
    def data_max_key(self) -> Optional[Key]:
        return None if self.is_empty else self.table.max_key

    # ----------------------------------------------------------------- ranges
    def extend_range(self, lo: Key, hi: Key) -> None:
        """Widen the range to cover appended records (paper §4.2.1)."""
        if lo < self.range_lo:
            self.range_lo = lo
        if hi > self.range_hi:
            self.range_hi = hi

    # ------------------------------------------------------------------- I/O
    def drop_table(self) -> None:
        """Release the node's file (after its data moved down)."""
        if self.table is not None:
            self.table.delete()
            self.table = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LsaNode([{self.range_lo!r},{self.range_hi!r}], "
                f"seqs={self.n_sequences}, bytes={self.nbytes})")


# --------------------------------------------------------------------- levels
def level_insert_sorted(level: List[LsaNode], node: LsaNode) -> None:
    """Insert keeping the level sorted; rejects range overlap."""
    idx = bisect.bisect_right(level, node.range_lo, key=RANGE_LO)
    if idx > 0 and level[idx - 1].range_hi >= node.range_lo:
        raise InvariantViolation(
            f"insert overlaps left neighbour: {level[idx - 1]!r} vs {node!r}")
    if idx < len(level) and level[idx].range_lo <= node.range_hi:
        raise InvariantViolation(
            f"insert overlaps right neighbour: {level[idx]!r} vs {node!r}")
    level.insert(idx, node)


def level_overlapping(level: List[LsaNode], lo: Optional[Key],
                      hi: Optional[Key]) -> List[LsaNode]:
    """Nodes whose ranges intersect [lo, hi] (inclusive; None bounds open).

    Two fence bisects and one slice, so the Python-level cost does not grow
    with the number of nodes returned.  The result is a fresh list: a scan
    keeps it as its fixed view of the level while the level itself moves on.
    """
    start = 0
    if lo is not None:
        start = bisect.bisect_right(level, lo, key=RANGE_LO) - 1
        if start < 0 or level[start].range_hi < lo:
            start += 1
    stop = None if hi is None else bisect.bisect_right(level, hi, key=RANGE_LO)
    return level[start:stop]


def children_slice(parents: List[LsaNode], kids: List[LsaNode],
                   parent_idx: int) -> Tuple[int, int]:
    """Index range [i, j) of ``kids`` parented to ``parents[parent_idx]``.

    Uses the contains-lo rule: a kid belongs to the last parent whose
    ``range_lo`` <= the kid's ``range_lo`` (the first parent otherwise).
    """
    if not kids:
        return (0, 0)
    lo_bound = parents[parent_idx].range_lo
    if parent_idx == 0:
        i = 0
    else:
        i = bisect.bisect_left(kids, lo_bound, key=RANGE_LO)
    if parent_idx == len(parents) - 1:
        j = len(kids)
    else:
        nxt = parents[parent_idx + 1].range_lo
        j = bisect.bisect_left(kids, nxt, key=RANGE_LO)
    return (i, j)


def children_of(parents: List[LsaNode], kids: List[LsaNode],
                parent_idx: int) -> List[LsaNode]:
    i, j = children_slice(parents, kids, parent_idx)
    return kids[i:j]


def count_children(parents: List[LsaNode], kids: List[LsaNode], parent_idx: int) -> int:
    i, j = children_slice(parents, kids, parent_idx)
    return j - i


def partition_records(run: Run, children: List[LsaNode], *, leaf: bool,
                      child_weights: Optional[List[int]] = None) -> List[Run]:
    """Partition a sorted run among children (§4.2.1 rules).

    In-range records go to the covering child.  Out-of-range records go to
    the *closest* child at the leaf level (ties to the left), and to the
    adjacent child with the fewer children (``child_weights``, ties to the
    left) at internal levels.

    Children and records are both sorted, so each child takes one
    contiguous slice: between neighbours there is one threshold key -- the
    largest key the left child takes -- and one bisect of the key column.
    """
    n = len(children)
    if n == 0:
        raise InvariantViolation("partition_records needs at least one child")
    if n == 1:
        return [run]
    keys = run.key_view()
    cuts = [0]
    for idx in range(1, n):
        left_hi = children[idx - 1].range_hi
        right_lo = children[idx].range_lo
        if left_hi >= right_lo - 1:
            threshold = right_lo - 1  # no gap between the two ranges
        elif leaf:
            threshold = (left_hi + right_lo) // 2
        elif child_weights is not None and child_weights[idx] < child_weights[idx - 1]:
            threshold = left_hi
        else:
            threshold = right_lo - 1
        cuts.append(bisect.bisect_right(keys, threshold, cuts[-1]))
    cuts.append(run.n)
    return [run.slice(cuts[idx], cuts[idx + 1]) for idx in range(n)]
