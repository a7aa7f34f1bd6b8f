"""Vectorized scan assembly: plan the whole merge, then replay its charges.

The generator tier (a heap merge over lazily-charging cursors) defines the
charges, but takes one Python step per merged record.  Every scan takes
this module instead: it reads each stream's *description* (a memtable span,
a level's node chain) instead of iterating it -- gathers the in-range
slices of the key and kind columns, newest component first, sorts the key
column once, derives the visible output and the termination rank with
array ops, and replays the exact foreground charges the cursor pipeline
would have issued.

Newest first: the merge order is one stable sort
------------------------------------------------
The components are gathered newest first -- the memtable, the immutable
memtable, each level from the top down, a node's sequences last appended
first: the exact reverse of the deepest-first walk's ``comps`` list.  Each
is sorted ``(key asc, seq desc)``, and for a given key a newer component
never holds an older version than an older component, so equal keys
already sit newest version first and one ``argsort(kind="stable")`` of the
key column (timsort merging the sorted runs) is the merge order; the seq
column is gathered only under a snapshot.  The rule holds on all five scan
engines because data moves down in whole cohorts (a merge takes every
version of its input range); within a level, a later sequence in an LSA /
IAM node is newer than the earlier ones, a LevelDB / RocksDB L0 compaction
takes every L0 file that overlaps its range, transitively (each L0 file is
a stream of its own, newest first), and FLSM guard fragments are appended
in age order.

The charge model
----------------
Everything simulation-observable about a scan flows through the read-ahead
runs :meth:`repro.table.block.Sequence.cursor` charges (chunks of
``READAHEAD_BLOCKS`` blocks, one ``fg_read_blocks`` request each).  In the
``heapq.merge`` pipeline each charge is triggered by one *pull*:

* the initial fill pulls one record per top-level stream, in stream order,
  before the first yield (trigger rank ``-1``);
* a sequence's later record is pulled right after its span predecessor is
  yielded (trigger = the predecessor's merge rank);
* a chain opens the next node's cursors -- pulling one record per
  sequence, in table then sequence order -- when it is pulled past its
  current node, i.e. right after the node's last in-range record is
  yielded (trigger = that record's rank; empty nodes cascade without
  charging).  A node is a table, or an FLSM guard's tuple of overlapping
  tables, which ``heapq.merge`` opens together exactly as it opens one
  table's sequences.

A pull fires iff its trigger rank is below the termination rank ``M`` (the
rank whose push ends the scan: the first key ``>= hi_key``, the record
that fills ``limit``, or exhaustion).  Sorting the charge events by
(trigger, generation order) therefore reproduces the generator tier's
charge sequence exactly -- same clock, same page-cache trajectory -- and
hands it to the runtime as one ``fg_read_blocks`` request.

Limit-bounded scans are planned against truncated spans (``~limit + 64``
records per sequence, whole trailing chain tails reduced to their fill
charges); the plan is valid iff the scan terminates strictly below the
smallest excluded key, else it retries with a wider cut.

Deepest level first, one pass per component
-------------------------------------------
The streams are walked deepest level first, so the densest level fixes the
cut key before the shallower ones are looked at, and a chain's walk ends
at its first node whose ``min_key`` is at or past the cut: a fill-only
tail, as a node past the record budget is.  Events are still generated in
stream order (``gen`` follows the generator tier's pulls).  The walk visits
each component once, recording ``(run, key view, i, j)`` and its charge
facts and folding the cut key; a node's components are one index range
``[first_ci, end_ci)`` of the walk, and a fill-only tail's charges one
comprehension.  Every span reaching the cut key is cut with one
``bisect_left`` before anything is sliced, and each column is one
``np.concatenate``: the kinds only when a component may hold a tombstone
(``Run.deletes``), the sizes only when the synthetic values do not share
one ``Run.value_size`` (else the rows are ``zip(keys, repeat(size))``).
The charge events are Python ints (``ranks.tolist()``, a uniform
sequence's block index being the ``range`` it is, so a chunk index is
``i // step``): at a few hundred records numpy scalars cost more than the
arithmetic they carry.

Every stream is a :class:`~repro.table.scan.ListStream` or a ``ChainStream``
and every stored key and snapshot is uint64 (the entry points refuse the
rest), so every scan is planned; an exception here is a bug.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import InvariantViolation
from repro.common.records import DELETE, Key
from repro.table.block import READAHEAD_BLOCKS
from repro.table.scan import ListStream

_RETRY = object()


def planned_scan(streams: list, *, snapshot: Optional[int] = None,
                 hi_key: Optional[Key] = None,
                 limit: Optional[int] = None) -> List[Tuple[Key, object]]:
    """Run a scan as one vectorized plan.

    ``streams`` are the scan's stream values (memtable lists first, then
    the engine's, newest first).  They are read, never iterated: the output
    is assembled from the columns and the charges are replayed directly.
    """
    # ``limit`` is None or >= 1: the DB answers limit=0 and rejects
    # negative limits before planning.
    cap = None if limit is None else max(96, limit + 64)
    while (res := _attempt(streams, snapshot, hi_key, limit, cap)) is _RETRY:
        cap *= 8
        if cap > (1 << 40):  # defensive: never loop forever
            raise InvariantViolation(f"scan plan still truncated at width {cap}")
    out, events, runtime = res
    if events:  # one request: a memtable-only scan has no runtime
        runtime.fg_read_blocks(events)
    return out


def _attempt(streams, snapshot, hi_key, n_stop, cap):
    """One planning pass at truncation width ``cap`` (None = no cut);
    ``_RETRY`` asks for a wider cut."""
    # Per component: (run, key view, i, j, charge) -- the span [i, j) of
    # the run; charge is None (memtable) or the sequence's charge facts
    # (fid, block index, first block, n_blocks, charge_end).
    comps: List[tuple] = []
    n_comps = 0  # len(comps)
    vals_ok = True  # every value synthetic: the sizes column is the output
    size: Optional[int] = -1  # the shared ``Run.value_size`` (None: none)
    deletes = False  # some component may hold a tombstone: gather the kinds
    # Per chain: ([(first_ci, end_ci, truncated_any)] per node -- its
    # components are the walk's comps[first_ci:end_ci] -- , fill_only events)
    chains = []
    cut_key: Optional[int] = None
    runtime = None

    # Deepest level first: the densest level fixes the cut key, and each
    # shallower chain stops at its first node wholly past it.
    for s in reversed(streams):
        if s.__class__ is ListStream:
            if s.j <= s.i:
                continue
            run = s.run
            vals_ok = vals_ok and run.vals is None
            size = run.value_size if size in (-1, run.value_size) else None
            deletes = deletes or run.deletes is not False and run.holds_deletes()
            comps.append((run, s.key_view, s.i, s.j, None))
            n_comps += 1
            continue
        # A ChainStream, one per level.
        runtime = s.runtime
        lo = s.lo_key
        hi = s.hi_key
        budget = cap
        nodes_meta = []
        fill_only = None
        # A fresh lazy walk per attempt, stopped at the first node past the
        # budget or the cut key; an empty node is skipped first.  A node is
        # a table or a tuple of overlapping tables (an FLSM guard), whose
        # sequences are its components, each charged under its own table.
        for node in s.walk():
            if node.__class__ is tuple:
                min_key = min([table.min_key for table in node])
            elif node is None or not node.sequences:
                continue
            else:
                min_key = node.min_key
                node = (node,)
            if budget is not None and (budget <= 0 or (
                    cut_key is not None and min_key >= cut_key)):
                # Chain tail cut, past the budget or wholly past the cut
                # key: the dropped node's records all sort past the
                # (validated) termination rank, but its cursor fill -- one
                # first-chunk charge per sequence -- still fires when the
                # chain advances past the last kept node (or at once, if
                # none is kept: the cut key is >= ``lo``, so that fill
                # seeks to block 0).  Later nodes need that node to exhaust
                # first, which cannot happen below M.  A sequence whose
                # first key is past ``hi`` has no in-range record to pull.
                fill_only = [
                    (seq.key_view[0], table.file.file_id,
                     range(seq.first_block, seq.first_block
                           + (seq.n_blocks if seq.n_blocks < READAHEAD_BLOCKS
                              else READAHEAD_BLOCKS)))
                    for table in node for seq in table.sequences
                    if hi is None or seq.key_view[0] <= hi]
                for first_key, _, _ in fill_only:
                    if cut_key is None or first_key < cut_key:
                        cut_key = first_key
                break
            first_ci = n_comps
            truncated_any = False
            kept = 0
            for table in node:
                fid = table.file.file_id
                for seq in table.sequences:
                    kv = seq.key_view
                    i = 0 if lo is None else bisect_left(kv, lo)
                    j = seq.n_records if hi is None else bisect_right(kv, hi)
                    if j <= i:
                        continue
                    # A truncated span still pulls (and may charge) one
                    # record past the cut before the plan's validity bound
                    # stops it -- mirror that single-record overshoot.
                    charge_end = j
                    if cap is not None and j - i > cap:
                        j = i + cap
                        charge_end = j + 1
                        truncated_any = True
                        if cut_key is None or kv[j] < cut_key:
                            cut_key = kv[j]
                    run = seq.run
                    vals_ok = vals_ok and run.vals is None
                    size = run.value_size if size in (-1, run.value_size) else None
                    deletes = deletes or run.deletes is not False and run.holds_deletes()
                    comps.append((run, kv, i, j, (fid, seq.block_start_idx,
                                                  seq.first_block, seq.n_blocks,
                                                  charge_end)))
                    n_comps += 1
                    kept += j - i
            lo = None  # only the chain's first node seeks
            if budget is not None:
                budget -= kept
            nodes_meta.append((first_ci, n_comps, truncated_any))
        chains.append((nodes_meta, fill_only))

    if not comps:
        return [], [], runtime
    comps = comps[::-1]  # newest first: walk index w is now ``top - w``
    top = n_comps - 1

    # Cut-key prefilter: in a truncated plan every record with key >=
    # cut_key sorts past the (validated) termination rank M, so it can
    # never be emitted and never triggers a charge below M.  Cutting those
    # tails before the gather shrinks T toward M; the only scalar effect
    # they keep is a sequence's cursor-fill charge, preserved by retaining
    # cut-emptied components (their chunk loop stops at the fill because
    # the missing ranks are all >= M).  A span whose last key is below
    # cut_key keeps all of it: only the others are bisected.
    filtered = [False] * n_comps
    offsets = [0] * (n_comps + 1)
    T = 0
    for ci, (run, kv, i, j, charge) in enumerate(comps):
        if cut_key is not None and kv[j - 1] >= cut_key:
            j = bisect_left(kv, cut_key, i, j)
            comps[ci] = (run, kv, i, j, charge)
            filtered[ci] = True
        T += j - i
        offsets[ci + 1] = T
    if not T:
        # Every gathered record was cut: the scan cannot prove its
        # termination below the cut, so widen and retry.
        return _RETRY
    keys_g = np.concatenate([run.keys[i:j] for run, _, i, j, _ in comps])
    # (key asc, seq desc): the components are gathered newest first, so a
    # stable sort of the keys alone leaves equal keys newest version first.
    order = keys_g.argsort(kind="stable")
    ranks = np.empty(T, dtype=np.intp)
    ranks[order] = np.arange(T, dtype=np.intp)
    skeys = keys_g[order]

    if hi_key is None:
        R = T
    elif hi_key < 0:
        R = 0
    elif hi_key >= (1 << 64):
        R = T
    else:
        R = int(skeys.searchsorted(np.uint64(hi_key), side="left"))

    if R == 0:
        # The very first merged record already sits at/above hi_key: the
        # scan ends at rank 0, after the initial fill.
        emit = np.empty(0, dtype=np.intp)
        M = 0
    else:
        pk = skeys[:R]
        newkey = np.empty(R, dtype=bool)
        newkey[0] = True
        np.not_equal(pk[1:], pk[:-1], out=newkey[1:])
        if snapshot is None:
            first_vis = newkey
        else:
            seqs_g = np.concatenate([run.seqs[i:j] for run, _, i, j, _ in comps])
            cand = seqs_g[order[:R]] <= np.uint64(snapshot)
            cnt = np.cumsum(cand)
            ex_before = (cnt - cand)[newkey]
            gid = np.cumsum(newkey) - 1
            first_vis = cand & ((cnt - ex_before[gid]) == 1)
        if deletes:
            kinds_g = np.concatenate([run.kinds[i:j] for run, _, i, j, _ in comps])
            first_vis = first_vis & (kinds_g[order[:R]] != DELETE)
        vis = first_vis.nonzero()[0]
        if n_stop is not None and vis.size >= n_stop:
            M = int(vis[n_stop - 1])
            emit = vis[:n_stop]
        elif R < T:
            M = R
            emit = vis
        else:
            M = T
            emit = vis

    if cut_key is not None:
        # Truncation is valid only when the scan provably terminates below
        # every excluded record.
        if M >= T or int(skeys[M]) >= cut_key:
            return _RETRY

    # ---------------------------------------------------------- charge events
    # All in Python ints: rank of record p of component ci is
    # ranks[offsets[ci] - i + p].
    ranks = ranks.tolist()
    events: List[Tuple[int, int, int, range]] = []
    gen = 0
    for nodes_meta, fill_only in chains[::-1]:  # stream order: ``gen`` follows the pulls
        prev = -1  # merge rank of the last record of the last non-empty node
        for first_ci, end_ci, truncated_any in nodes_meta:
            if first_ci == end_ci:
                continue
            fill_tr = prev
            last = -1
            cut_any = truncated_any
            for ci in range(top - first_ci, top - end_ci, -1):
                _, _, i, _, (fid, starts, first, n_blocks, charge_end) = comps[ci]
                base = offsets[ci] - i
                end = offsets[ci + 1] - base  # past the last gathered record
                if type(starts) is range:
                    step = starts.step
                    b = i // step
                    last_b = (charge_end - 1) // step
                else:
                    b = bisect_right(starts, i) - 1
                    last_b = bisect_right(starts, charge_end - 1) - 1
                trigger = fill_tr
                # Triggers ascend: once one reaches M nothing later fires.
                while trigger < M:
                    stop = b + READAHEAD_BLOCKS
                    if stop > n_blocks:
                        stop = n_blocks
                    events.append((trigger, gen, fid, range(first + b, first + stop)))
                    gen += 1
                    b += READAHEAD_BLOCKS
                    if b > last_b:
                        break
                    p = starts[b]
                    if p > end:
                        break  # predecessor was cut: rank >= M
                    trigger = ranks[base + p - 1]
                if filtered[ci]:
                    cut_any = True  # true tail rank >= M
                elif (tail := ranks[base + end - 1]) > last:
                    last = tail
            prev = T if cut_any else last
        if fill_only is not None and prev < M:
            for _, fid, blocks in fill_only:
                events.append((prev, gen, fid, blocks))
                gen += 1
    events.sort()  # by (trigger, gen): gen is unique

    # ---------------------------------------------------------------- output
    out: List[Tuple[Key, object]] = []
    if emit.size:
        if vals_ok and size is not None:
            # Every value is the one synthetic size: no value column at all.
            out = list(zip(skeys[emit].tolist(), repeat(size)))
        elif vals_ok:
            # Column-wise assembly: the value columns make the whole
            # result two gathers + one zip, no per-row record indexing.
            vals_g = np.concatenate([run.sizes[i:j] for run, _, i, j, _ in comps])
            out = list(zip(skeys[emit].tolist(),
                           vals_g[order[emit]].tolist()))
        else:
            for key, g in zip(skeys[emit].tolist(), order[emit].tolist()):
                ci = bisect_right(offsets, g) - 1
                run, _, i, _, _ = comps[ci]
                out.append((key, run.value_at(i + g - offsets[ci])))
    return out, events, runtime
