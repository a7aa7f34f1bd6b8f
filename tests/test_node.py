"""LSA node & level helpers: ranges, parenting, record partitioning."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.records import KEY, make_put
from repro.core.node import (
    LsaNode,
    children_of,
    children_slice,
    count_children,
    level_find_node,
    level_insert_sorted,
    level_overlapping,
    partition_records,
)
from repro.table.run import Run


def node(lo, hi):
    return LsaNode(lo, hi)


def partition(recs, children, **kw):
    """partition_records over a tuple list; the parts as tuple lists again."""
    return [part.records()
            for part in partition_records(Run.from_records(recs), children, **kw)]


def test_node_range_validation():
    with pytest.raises(InvariantViolation):
        LsaNode(5, 4)


def test_extend_range():
    n = node(10, 20)
    n.extend_range(5, 25)
    assert (n.range_lo, n.range_hi) == (5, 25)
    n.extend_range(7, 24)  # never shrinks
    assert (n.range_lo, n.range_hi) == (5, 25)


def test_level_find_node():
    level = [node(0, 9), node(20, 29), node(40, 49)]
    assert level_find_node(level, 5) is level[0]
    assert level_find_node(level, 25) is level[1]
    assert level_find_node(level, 15) is None  # gap
    assert level_find_node(level, 60) is None


def test_level_insert_sorted_keeps_order_and_rejects_overlap():
    level = [node(0, 9), node(30, 39)]
    level_insert_sorted(level, node(10, 20))
    assert [n.range_lo for n in level] == [0, 10, 30]
    with pytest.raises(InvariantViolation):
        level_insert_sorted(level, node(5, 12))
    with pytest.raises(InvariantViolation):
        level_insert_sorted(level, node(25, 35))


def test_level_overlapping():
    level = [node(0, 9), node(20, 29), node(40, 49)]
    assert level_overlapping(level, 5, 25) == level[:2]
    assert level_overlapping(level, 10, 19) == []
    assert level_overlapping(level, None, None) == level
    assert level_overlapping(level, 29, None) == level[1:]


def test_children_slice_contains_lo_rule():
    parents = [node(0, 9), node(20, 29), node(40, 49)]
    kids = [node(0, 4), node(8, 15), node(21, 24), node(30, 35), node(45, 60)]
    # kid range_lo decides: 0,8 -> parent0; 21,30 -> parent1; 45 -> parent2
    assert children_of(parents, kids, 0) == kids[0:2]
    assert children_of(parents, kids, 1) == kids[2:4]
    assert children_of(parents, kids, 2) == kids[4:5]
    assert count_children(parents, kids, 1) == 2


def test_children_slice_kid_before_first_parent():
    parents = [node(10, 19), node(30, 39)]
    kids = [node(0, 5), node(12, 15), node(31, 33)]
    assert children_of(parents, kids, 0) == kids[0:2]


def test_partition_records_in_range():
    children = [node(0, 9), node(20, 29)]
    recs = [make_put(k, 1, 8) for k in [1, 5, 22]]
    parts = partition(recs, children, leaf=True)
    assert [r[KEY] for r in parts[0]] == [1, 5]
    assert [r[KEY] for r in parts[1]] == [22]


def test_partition_gap_records_leaf_closest_rule():
    """§4.2.1: a leaf gap record goes to the child with the closest range."""
    children = [node(0, 9), node(20, 29)]
    recs = [make_put(k, 1, 8) for k in [12, 17]]
    parts = partition(recs, children, leaf=True)
    assert [r[KEY] for r in parts[0]] == [12]  # closer to hi=9
    assert [r[KEY] for r in parts[1]] == [17]  # closer to lo=20


def test_partition_gap_records_internal_fewest_children_rule():
    """§4.2.1: internal gap records prefer the child with fewer children."""
    children = [node(0, 9), node(20, 29)]
    recs = [make_put(15, 1, 8)]
    parts = partition(recs, children, leaf=False, child_weights=[5, 2])
    assert parts[1] and not parts[0]
    parts = partition(recs, children, leaf=False, child_weights=[2, 5])
    assert parts[0] and not parts[1]
    parts = partition(recs, children, leaf=False, child_weights=[3, 3])
    assert parts[0]  # tie -> left


def test_partition_out_of_span_records_clamp_to_ends():
    children = [node(10, 19), node(30, 39)]
    recs = [make_put(k, 1, 8) for k in [2, 50]]
    parts = partition(recs, children, leaf=True)
    assert [r[KEY] for r in parts[0]] == [2]
    assert [r[KEY] for r in parts[1]] == [50]


def test_partition_single_child_takes_all():
    children = [node(0, 9)]
    recs = [make_put(k, 1, 8) for k in [1, 100]]
    parts = partition(recs, children, leaf=True)
    assert parts[0] == recs


def test_partition_requires_children():
    with pytest.raises(InvariantViolation):
        partition([make_put(1, 1, 8)], [], leaf=True)


def test_partition_preserves_order_and_total():
    children = [node(0, 9), node(15, 24), node(40, 59)]
    recs = [make_put(k, 1, 8) for k in range(0, 70, 3)]
    parts = partition(recs, children, leaf=True)
    flat = [r for p in parts for r in p]
    assert sorted(flat, key=lambda r: r[KEY]) == recs
    assert sum(len(p) for p in parts) == len(recs)
