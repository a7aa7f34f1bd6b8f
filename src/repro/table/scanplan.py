"""Vectorized scan assembly: plan the whole merge, then replay its charges.

The generator tier (:func:`repro.table.scan.merge_scan`: a heap merge over
lazily-charging cursors) is correct everywhere, but takes one Python step
per merged record.  This module is the other tier, for memtable lists and
table chains (every engine's streams but FLSM's): it reads each stream's
*description* instead of iterating it -- gathers the in-range slices of
every key/seq/kind column, computes the global merge order with one
``np.lexsort`` (unique ``(key, seq)`` pairs make the order total), derives
the visible output and the termination rank with array ops, and then
replays the exact foreground charge sequence the cursor pipeline would
have issued.

The charge model
----------------
Everything simulation-observable about a scan flows through the
``fg_read_blocks`` calls of :meth:`repro.table.block.Sequence.cursor`
(read-ahead chunks of ``READAHEAD_BLOCKS`` blocks).  In the ``heapq.merge``
pipeline each charge is triggered by one *pull*:

* the initial fill pulls one record per top-level stream, in stream order,
  before the first yield (trigger rank ``-1``);
* a sequence's later record is pulled right after its span predecessor is
  yielded (trigger = the predecessor's merge rank);
* a chain opens the next table's cursors -- pulling one record per
  sequence, in sequence order -- when it is pulled past its current table,
  i.e. right after the table's last in-range record is yielded (trigger =
  that record's rank; empty tables cascade without charging).

A pull fires iff its trigger rank is below the termination rank ``M`` (the
rank whose push ends the scan: the first key ``>= hi_key``, the record
that fills ``limit``, or exhaustion).  Sorting the charge events by
(trigger, generation order) therefore reproduces the generator tier's
charge sequence exactly -- same clock, same page-cache trajectory.

Limit-bounded scans are planned against truncated spans (``~limit + 64``
records per sequence, whole trailing chain tails reduced to their fill
charges); the plan is valid iff the scan terminates strictly below the
smallest excluded key, else it retries with a wider cut.

One pass per component
----------------------
Each sequence component is visited once before the sort: the walk records
``(run, key view, i, j)`` and its charge facts and folds the cut key, then
every span is cut with one ``bisect_left`` on its key view -- before
anything is sliced -- and each column is gathered with one comprehension
into one ``np.concatenate``.  The charge events are derived in Python ints
(``ranks.tolist()``, the offsets as a list, a uniform sequence's block
index being the ``range`` it is, so a chunk index is ``i // step``): at
the scan's T of a few hundred records numpy scalars cost more than the
arithmetic they carry.

Declines
--------
``planned_scan`` returns None -- always before the first charge, so the
caller runs ``merge_scan`` over the same, untouched streams -- when what it
observes in its input does not fit the plan: a snapshot number outside
uint64, or a stream that is not a :class:`~repro.table.scan.ListStream` /
:class:`~repro.table.scan.ChainStream` value (FLSM's guard generators).
Every stored key is uint64 (the write entry points refuse the rest), so
those two checks are all; any other exception is a bug and propagates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.common.records import DELETE, Key
from repro.storage.runtime import Runtime
from repro.table.block import READAHEAD_BLOCKS
from repro.table.run import Run
from repro.table.scan import ChainStream, ListStream
from repro.check.effects.registry import effects

_RETRY = object()


@effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
def planned_scan(streams: list, *, snapshot: Optional[int] = None,
                 hi_key: Optional[Key] = None,
                 limit: Optional[int] = None) -> Optional[List[Tuple[Key, object]]]:
    """Run a scan as one vectorized plan; None when it declines.

    ``streams`` are the scan's stream values (memtable lists first, then
    the engine's, newest first).  They are read, never iterated: the output
    is assembled from the columns and the charges are replayed directly.
    """
    if not streams:
        return []
    if snapshot is not None and not 0 <= snapshot < (1 << 64):
        return None
    runtime: Optional[Runtime]  # typed: the effects gate follows the replay
    # ``limit`` is None or >= 1: the DB answers limit=0 and rejects
    # negative limits before planning.
    cap = None if limit is None else max(96, limit + 64)
    while True:
        res = _attempt(streams, snapshot, hi_key, limit, cap)
        if res is None:
            return None
        if res is not _RETRY:
            out, events, runtime = res
            break
        cap *= 8
        if cap > (1 << 40):  # defensive: never loop forever
            return None
    for _trigger, _gen, fid, blocks in events:
        runtime.fg_read_blocks(fid, blocks)
    return out


def _attempt(streams, snapshot, hi_key, n_stop, cap):
    """One planning pass at truncation width ``cap`` (None = no cut);
    None declines, ``_RETRY`` asks for a wider cut."""
    # Per component: (run, key view, i, j, charge) -- the span [i, j) of
    # the run; charge is None (memtable) or the sequence's charge facts
    # (fid, block index, first block, n_blocks, charge_end).
    comps: List[tuple] = []
    vals_ok = True  # every value synthetic: the sizes column is the output
    # Per chain: ([(comp_idxs, truncated_any)] per table, fill_only events)
    chains = []
    cut_key: Optional[int] = None
    runtime = None

    for s in streams:
        if isinstance(s, ListStream):
            if not s.recs:
                continue
            # The same typed column builder sequences were built with.
            run = Run.from_records(s.recs)
            vals_ok = vals_ok and run.vals is None
            comps.append((run, run.key_view(), 0, run.n, None))
        elif isinstance(s, ChainStream):
            runtime = s.runtime
            lo = s.lo_key
            hi = s.hi_key
            budget = cap
            tables_meta = []
            fill_only = None
            # A fresh lazy walk per attempt: the loop leaves it at the first
            # table past the budget, so the level's remaining members are
            # never looked at (and a wider retry starts over from the head).
            for ti, table in enumerate(s.walk()):
                fid = table.file_id
                if budget is not None and budget <= 0:
                    # Chain tail cut: the dropped node's records all sort
                    # past the (validated) termination rank, but its cursor
                    # fill -- one first-chunk charge per sequence -- still
                    # fires when the chain advances past the last kept
                    # node.  Later nodes need that node to exhaust first,
                    # which cannot happen below M.
                    fill_only = []
                    for seq in table.sequences:
                        kv = seq.key_view
                        if hi is not None and bisect_right(kv, hi) == 0:
                            continue
                        if cut_key is None or kv[0] < cut_key:
                            cut_key = kv[0]
                        stop = min(READAHEAD_BLOCKS, seq.n_blocks)
                        fill_only.append((fid, range(seq.first_block,
                                                     seq.first_block + stop)))
                    break
                comp_idxs = []
                truncated_any = False
                kept = 0
                for seq in table.sequences:
                    kv = seq.key_view
                    i = 0 if ti or lo is None else bisect_left(kv, lo)
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
                    comp_idxs.append(len(comps))
                    comps.append((run, kv, i, j, (fid, seq.block_start_idx,
                                                  seq.first_block, seq.n_blocks,
                                                  charge_end)))
                    kept += j - i
                if budget is not None:
                    budget -= kept
                tables_meta.append((comp_idxs, truncated_any))
            chains.append((tables_meta, fill_only))
        else:
            return None

    if not comps:
        return [], [], runtime

    # Cut-key prefilter: in a truncated plan every record with key >=
    # cut_key sorts past the (validated) termination rank M, so it can
    # never be emitted and never triggers a charge below M.  Cutting those
    # tails before the gather shrinks T toward M; the only scalar effect
    # they keep is a sequence's cursor-fill charge, preserved by retaining
    # cut-emptied components (their chunk loop stops at the fill because
    # the missing ranks are all >= M).
    n_comps = len(comps)
    filtered = [False] * n_comps
    offsets = [0] * (n_comps + 1)
    T = 0
    for ci, (run, kv, i, j, charge) in enumerate(comps):
        if cut_key is not None:
            jf = bisect_left(kv, cut_key, i, j)
            if jf < j:
                comps[ci] = (run, kv, i, jf, charge)
                filtered[ci] = True
                j = jf
        T += j - i
        offsets[ci + 1] = T
    if not T:
        # Every gathered record was cut: the scan cannot prove its
        # termination below the cut, so widen and retry.
        return _RETRY
    keys_g = np.concatenate([run.keys[i:j] for run, _, i, j, _ in comps])
    seqs_g = np.concatenate([run.seqs[i:j] for run, _, i, j, _ in comps])
    kinds_g = np.concatenate([run.kinds[i:j] for run, _, i, j, _ in comps])
    # Total order by (key asc, seq desc): unique (key, seq) pairs, so the
    # bit-complement trick needs no tie-breaking.  When key and sequence
    # widths fit one word, pack them into a single composite and do one
    # stable (radix) argsort -- half the cost of the two-pass lexsort.
    # Scans over a compact key space take it (db_bench readseq over
    # fillseq keys, the ``reads`` perf suite); hashed 64-bit keys never do.
    s_bits = int(seqs_g.max()).bit_length()
    total_bits = int(keys_g.max()).bit_length() + s_bits
    if s_bits < 64 and total_bits <= 64:
        smask = np.uint64((1 << s_bits) - 1)
        composite = np.left_shift(keys_g, np.uint64(s_bits))
        composite |= seqs_g ^ smask
        if total_bits <= 32:
            # Half-width radix passes: the dominant per-record sort cost.
            composite = composite.astype(np.uint32)
        order = np.argsort(composite, kind="stable")
    else:
        order = np.lexsort((np.invert(seqs_g), keys_g))
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
            cand = seqs_g[order[:R]] <= np.uint64(snapshot)
            cnt = np.cumsum(cand)
            ex_before = (cnt - cand)[newkey]
            gid = np.cumsum(newkey) - 1
            first_vis = cand & ((cnt - ex_before[gid]) == 1)
        out_mask = first_vis & (kinds_g[order[:R]] != DELETE)
        vis = np.flatnonzero(out_mask)
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
    for tables_meta, fill_only in chains:
        prev = -1  # merge rank of the last record of the last non-empty node
        for comp_idxs, truncated_any in tables_meta:
            if not comp_idxs:
                continue
            fill_tr = prev
            last = -1
            cut_any = truncated_any
            for ci in comp_idxs:
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
            for fid, blocks in fill_only:
                events.append((prev, gen, fid, blocks))
                gen += 1
    events.sort()  # by (trigger, gen): gen is unique

    # ---------------------------------------------------------------- output
    out: List[Tuple[Key, object]] = []
    if emit.size:
        if vals_ok:
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
