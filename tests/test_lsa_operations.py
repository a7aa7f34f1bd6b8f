"""Surgical tests of LSA's structural operations on hand-built trees.

Builds the paper's Figure 3 configuration directly and exercises combine
candidate selection (Tcn rule), splits, move-downs and boundary rebalancing
at the operation level rather than through workloads.
"""

import pytest

from repro.common.options import IamOptions, StorageOptions
from repro.common.records import make_put
from repro.core.lsa import LsaTree
from repro.core.node import LsaNode, children_slice
from repro.db.iamdb import IamDB
from repro.storage.runtime import Runtime
from repro.table.run import Run

KS = 8


def build_tree(fanout=10, node_capacity=4096) -> LsaTree:
    opts = IamOptions(node_capacity=node_capacity, fanout=fanout,
                      key_size=KS).as_lsa()
    runtime = Runtime(StorageOptions(page_cache_bytes=64 * 1024, block_size=256))
    tree = LsaTree(opts, runtime)
    return tree


def filled_node(tree, lo, hi, keys, level):
    node = LsaNode(lo, hi)
    table = node.table = tree._new_table()
    recs = [make_put(k, i + 1, 64) for i, k in enumerate(sorted(keys))]
    table.append_sequence(Run.from_records(recs), level=level)
    return node


def make_figure3_tree() -> LsaTree:
    """The paper's Figure 3: Lx = {3,999}; Lx+1 = {9,99},{120,225},{231,305},
    {885,998}; Lx+2 children with the stated counts (5, 10, 8, ...)."""
    tree = build_tree()
    tree.n = 3
    tree.levels = [[], [], [], []]
    tree.levels[1] = [LsaNode(3, 999)]
    tree.levels[2] = [LsaNode(9, 99), LsaNode(120, 225), LsaNode(231, 305),
                      LsaNode(885, 998)]
    # Lx+2: 5 kids under {9,99}, 10 under {120,225}, 8 under {231,305},
    # 4 under {885,998}.
    kids = []
    for lo in (12, 36, 60, 75, 88):
        kids.append(LsaNode(lo, lo + 8))
    for i in range(10):
        kids.append(LsaNode(121 + 10 * i, 121 + 10 * i + 5))
    for i in range(8):
        kids.append(LsaNode(232 + 9 * i, 232 + 9 * i + 4))
    for lo in (890, 910, 950, 980):
        kids.append(LsaNode(lo, lo + 5))
    tree.levels[3] = kids
    return tree


def test_figure3_child_counts():
    tree = make_figure3_tree()
    counts = []
    for idx in range(4):
        i, j = children_slice(tree.levels[2], tree.levels[3], idx)
        counts.append(j - i)
    assert counts == [5, 10, 8, 4]


def test_figure3_tcn_of_middle_nodes():
    """Tcn of {120,225} = children covered by {9,305} = 5 + 10 + 8 = 23-24
    (the paper's example computes 24 with its own counts)."""
    tree = make_figure3_tree()
    lst, kids = tree.levels[2], tree.levels[3]
    i0, _ = children_slice(lst, kids, 0)
    _, j1 = children_slice(lst, kids, 2)
    tcn_120 = j1 - i0
    assert tcn_120 == 23
    i0, _ = children_slice(lst, kids, 1)
    _, j1 = children_slice(lst, kids, 3)
    tcn_231 = j1 - i0
    assert tcn_231 == 22


def test_combine_picks_smallest_tcn_candidate():
    tree = make_figure3_tree()
    # Force a combine at level 2: threshold exceeded artificially.
    before = list(tree.levels[2])
    tree._combine_one(2)
    # Candidates are the two middle nodes; {231,305} has the smaller Tcn.
    assert len(tree.levels[2]) == 3
    gone = set(before) - set(tree.levels[2])
    assert len(gone) == 1
    assert gone.pop().range_lo == 231


def test_combine_neighbors_adopt_children():
    tree = make_figure3_tree()
    tree._combine_one(2)
    # Every level-3 node still has exactly one level-2 parent.
    lst, kids = tree.levels[2], tree.levels[3]
    total = 0
    for idx in range(len(lst)):
        i, j = children_slice(lst, kids, idx)
        total += j - i
    assert total == len(kids)
    tree.check_invariants()


def test_move_down_when_no_overlap():
    tree = build_tree()
    tree.n = 2
    tree.levels = [[], [], []]
    node = filled_node(tree, 100, 200, range(100, 200, 10), level=1)
    tree.levels[1] = [node]
    tree.levels[2] = [LsaNode(300, 400)]  # disjoint -> pure metadata move
    debt = tree._flush_node(1, node)
    assert debt == 0.0
    assert tree.levels[1] == []
    assert node in tree.levels[2]
    assert tree.move_downs == 1


def test_flush_into_overlapping_children_appends():
    tree = build_tree()
    tree.n = 2
    tree.levels = [[], [], []]
    parent = filled_node(tree, 0, 100, range(0, 100, 5), level=1)
    child = filled_node(tree, 0, 120, range(0, 120, 7), level=2)
    tree.levels[1] = [parent]
    tree.levels[2] = [child]
    debt = tree._flush_node(1, parent)
    assert debt > 0.0
    assert parent.is_empty
    assert parent in tree.levels[1]  # node persists, emptied
    assert child.n_sequences == 2   # got an appended sequence
    tree.check_invariants()


def test_split_node_halves_children():
    tree = build_tree(fanout=3)  # split threshold 2t = 6
    tree.n = 2
    tree.levels = [[], [], []]
    parent = filled_node(tree, 0, 700, range(0, 700, 25), level=1)
    tree.levels[1] = [parent]
    tree.levels[2] = [LsaNode(100 * i, 100 * i + 50) for i in range(7)]
    assert tree._count_children_of(1, parent) == 7
    tree._split_node(1, parent)
    assert len(tree.levels[1]) == 2
    a, b = tree.levels[1]
    assert a.range_hi < b.range_lo
    ca = tree._count_children_of(1, a)
    cb = tree._count_children_of(1, b)
    assert abs(ca - cb) <= 1
    assert ca + cb == 7
    # Records redistributed without loss.
    assert (a.table.n_records if a.table else 0) + \
           (b.table.n_records if b.table else 0) == 28
    assert tree.splits == 1
    tree.check_invariants()


def test_split_with_left_hanging_children_falls_back_safely():
    """The first node of a level owns every kid to its left (contains-lo
    rule); a split must never cut at a boundary outside the node's range."""
    tree = build_tree(fanout=3)
    tree.n = 2
    tree.levels = [[], [], []]
    parent = filled_node(tree, 500, 700, range(500, 700, 10), level=1)
    tree.levels[1] = [parent]
    # All children hang left of the parent's range_lo except one inside.
    tree.levels[2] = [LsaNode(10 * i, 10 * i + 5) for i in range(6)] + \
                     [LsaNode(600, 620)]
    tree._split_node(1, parent)
    tree.check_invariants()
    for nd in tree.levels[1]:
        assert nd.range_lo <= nd.range_hi


def test_split_with_no_valid_boundary_flushes_instead():
    tree = build_tree(fanout=3)
    tree.n = 2
    tree.levels = [[], [], []]
    parent = filled_node(tree, 500, 700, range(500, 700, 10), level=1)
    tree.levels[1] = [parent]
    # Every child strictly left of the parent's range: no cut point exists.
    tree.levels[2] = [LsaNode(10 * i, 10 * i + 5) for i in range(7)]
    tree._split_node(1, parent)
    assert tree.splits == 0           # fell back
    assert parent.is_empty or parent not in tree.levels[1]
    tree.check_invariants()


def test_balance_boundary_moves_children():
    tree = build_tree()
    tree.n = 2
    tree.levels = [[], [], []]
    left = LsaNode(0, 99)          # empty, 6 kids
    right = LsaNode(200, 400)      # empty, 1 kid
    tree.levels[1] = [left, right]
    tree.levels[2] = [LsaNode(10 * i, 10 * i + 5) for i in range(6)] + \
                     [LsaNode(300, 320)]
    tree._balance_boundary(1, 0, 1)
    ca = tree._count_children_of(1, left)
    cb = tree._count_children_of(1, right)
    assert abs(ca - cb) <= 1
    tree.check_invariants()


def test_balance_boundary_respects_data_spans():
    tree = build_tree()
    tree.n = 2
    tree.levels = [[], [], []]
    left = filled_node(tree, 0, 99, [90, 95], level=1)  # data near its hi
    right = LsaNode(200, 400)
    tree.levels[1] = [left, right]
    tree.levels[2] = [LsaNode(10 * i, 10 * i + 5) for i in range(6)] + \
                     [LsaNode(300, 320)]
    tree._balance_boundary(1, 0, 1)
    # Whatever happened, left's range still covers its records.
    left.check_range_covers_data()
    tree.check_invariants()


def test_ensure_structure_deepens():
    tree = build_tree(fanout=3)
    tree.n = 1
    tree.levels = [[], []]
    tree.levels[1] = [LsaNode(i * 100, i * 100 + 50) for i in range(3)]
    tree._ensure_structure()
    assert tree.n == 2
    assert tree.levels[2] == []
