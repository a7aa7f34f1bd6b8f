"""Vectorized scan assembly: plan the whole merge, then replay its charges.

The generator tier (:func:`repro.table.scan.merge_scan`: a heap merge over
lazily-charging cursors) is correct everywhere, but takes one Python step
per merged record.  This module is the other tier, for the common case
(uint64 keys): it reads each stream's *description* instead of iterating it
-- gathers the in-range slices of every key/seq/kind column, computes the
global merge order with one ``np.lexsort`` (unique ``(key, seq)`` pairs
make the order total), derives the visible output and the termination rank
with array ops, and then replays the exact foreground charge sequence the
cursor pipeline would have issued.

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

Declines
--------
``planned_scan`` returns None -- always before the first charge, so the
caller runs ``merge_scan`` over the same, untouched streams -- when what it
observes in its input does not fit the plan: a stream that is not a
:class:`~repro.table.scan.ListStream` / :class:`~repro.table.scan.ChainStream`
value (FLSM's guard generators), or a value that does not fit the uint64
columns (a negative or >= 2**64 key anywhere in the gathered memtable lists
or sequences; a snapshot number outside uint64).
"""

from __future__ import annotations

from bisect import bisect_right
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
    runtime: Optional[Runtime]  # typed: the effects gate follows the replay
    # ``limit`` is None or >= 1: the DB answers limit=0 and rejects
    # negative limits before planning.
    cap = None if limit is None else max(96, limit + 64)
    try:
        while True:
            res = _attempt(streams, snapshot, hi_key, limit, cap)
            if res is not _RETRY:
                out, events, runtime = res
                break
            cap *= 8
            if cap > (1 << 40):  # defensive: never loop forever
                return None
    except (OverflowError, TypeError, ValueError):
        return None
    for _trigger, _gen, fid, blocks in events:
        runtime.fg_read_blocks(fid, blocks)
    return out


def _attempt(streams, snapshot, hi_key, n_stop, cap):
    """One planning pass at truncation width ``cap`` (None = no cut)."""
    key_parts: List[np.ndarray] = []
    seq_parts: List[np.ndarray] = []
    kind_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []  # column-wise output; dropped on flag
    vals_ok = True
    run_parts: List[Tuple[Run, int]] = []  # (run, span start) per comp
    lens: List[int] = []
    # Per sequence component: (fid, starts, first_block, n_blocks, i, charge_end)
    charge_info: List[Optional[tuple]] = []
    # Per chain: (runtime, [(comp_idxs, truncated_any)], fill_only_events)
    chains = []
    cut_key: Optional[int] = None
    runtime = None

    for s in streams:
        if isinstance(s, ListStream):
            if not s.recs:
                continue
            # The same typed column builder sequences were built with.
            run = Run.from_records(s.recs)
            if run.okeys is not None:
                raise TypeError("memtable keys are not uint64")
            key_parts.append(run.keys)
            seq_parts.append(run.seqs)
            kind_parts.append(run.kinds)
            if vals_ok:
                if run.vals is None:
                    val_parts.append(run.sizes)
                else:
                    vals_ok = False
            run_parts.append((run, 0))
            lens.append(run.n)
            charge_info.append(None)
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
                    first_key = None
                    for seq in table.sequences:
                        i2, j2 = seq.span_for_range(None, hi)
                        if j2 <= i2:
                            continue
                        if seq.run.okeys is not None:
                            raise TypeError("sequence keys are not uint64")
                        k0 = seq.key_view[i2]
                        if first_key is None or k0 < first_key:
                            first_key = k0
                        starts = seq.block_start_idx
                        c0 = bisect_right(starts, i2) - 1
                        stop = min(c0 + READAHEAD_BLOCKS, seq.n_blocks)
                        fill_only.append((fid, range(seq.first_block + c0,
                                                     seq.first_block + stop)))
                    if first_key is not None and (cut_key is None
                                                  or first_key < cut_key):
                        cut_key = first_key
                    break
                comp_idxs = []
                truncated_any = False
                kept = 0
                for seq in table.sequences:
                    if ti == 0 or hi is not None:
                        i, j = seq.span_for_range(lo if ti == 0 else None, hi)
                    else:
                        i, j = 0, seq.n_records  # interior table: full span
                    if j <= i:
                        continue
                    j_eff = j
                    if cap is not None and j - i > cap:
                        j_eff = i + cap
                        truncated_any = True
                        k_cut = seq.key_view[j_eff]
                        if cut_key is None or k_cut < cut_key:
                            cut_key = k_cut
                    col, seqs_col, kinds_col, vals_col = seq.columns()
                    comp_idxs.append(len(lens))
                    key_parts.append(col[i:j_eff])
                    seq_parts.append(seqs_col[i:j_eff])
                    kind_parts.append(kinds_col[i:j_eff])
                    if vals_ok:
                        if vals_col is None:
                            vals_ok = False
                        else:
                            val_parts.append(vals_col[i:j_eff])
                    run_parts.append((seq.run, i))
                    lens.append(j_eff - i)
                    # A truncated span still pulls (and may charge) one
                    # record past the cut before the plan's validity bound
                    # stops it -- mirror that single-record overshoot.
                    charge_end = j_eff + 1 if j_eff < j else j
                    charge_info.append((fid, seq.block_start_idx,
                                        seq.first_block, seq.n_blocks,
                                        i, charge_end))
                    kept += j_eff - i
                if budget is not None:
                    budget -= kept
                tables_meta.append((comp_idxs, truncated_any))
            chains.append((tables_meta, fill_only))
        else:
            raise TypeError("not a scan stream value")

    if not lens:
        return [], [], runtime

    # Cut-key prefilter: in a truncated plan every record with key >=
    # cut_key sorts past the (validated) termination rank M, so it can
    # never be emitted and never triggers a charge below M.  Dropping
    # those tails before the sort shrinks T toward M; the only scalar
    # effect they keep is a sequence's cursor-fill charge, preserved by
    # retaining filter-emptied components (their chunk loop stops at the
    # fill because the missing ranks are all >= M).
    filtered = [False] * len(lens)
    if cut_key is not None and cut_key < (1 << 64):
        ck = np.uint64(cut_key)
        for pi, kp in enumerate(key_parts):
            jf = int(kp.searchsorted(ck, side="left"))
            if jf < kp.size:
                key_parts[pi] = kp[:jf]
                seq_parts[pi] = seq_parts[pi][:jf]
                kind_parts[pi] = kind_parts[pi][:jf]
                if vals_ok:
                    val_parts[pi] = val_parts[pi][:jf]
                lens[pi] = jf
                filtered[pi] = True

    offsets = np.zeros(len(lens) + 1, dtype=np.intp)
    np.cumsum(lens, out=offsets[1:])
    keys_g = np.concatenate(key_parts)
    seqs_g = np.concatenate(seq_parts)
    kinds_g = np.concatenate(kind_parts)
    T = int(keys_g.size)
    if not T:
        # Every gathered record was filtered out: the scan cannot prove
        # its termination below the cut, so widen and retry.
        return _RETRY
    # Total order by (key asc, seq desc): unique (key, seq) pairs, so the
    # bit-complement trick needs no tie-breaking.  When key and sequence
    # widths fit one word, pack them into a single composite and do one
    # stable (radix) argsort -- half the cost of the two-pass lexsort.
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
                fid, starts, first, n_blocks, i, charge_end = charge_info[ci]
                g0 = int(offsets[ci])
                m = lens[ci]
                r = ranks[g0:g0 + m]
                c0 = bisect_right(starts, i) - 1
                last_b = bisect_right(starts, charge_end - 1) - 1
                b = c0
                p = i
                while True:
                    if p == i:
                        trigger = fill_tr
                    elif p - 1 - i >= m:
                        break  # predecessor was cut-filtered: rank >= M
                    else:
                        trigger = int(r[p - 1 - i])
                    if trigger >= M:
                        break  # triggers ascend: nothing later fires either
                    stop = min(b + READAHEAD_BLOCKS, n_blocks)
                    events.append((trigger, gen, fid,
                                   range(first + b, first + stop)))
                    gen += 1
                    b += READAHEAD_BLOCKS
                    if b > last_b:
                        break
                    p = starts[b]
                if filtered[ci]:
                    cut_any = True  # true tail rank >= M
                elif (tail := int(r[m - 1])) > last:
                    last = tail
            prev = T if cut_any else last
        if fill_only is not None and prev < M:
            for fid, blocks in fill_only:
                events.append((prev, gen, fid, blocks))
                gen += 1
    events.sort(key=lambda e: (e[0], e[1]))

    # ---------------------------------------------------------------- output
    out: List[Tuple[Key, object]] = []
    if emit.size:
        if vals_ok:
            # Column-wise assembly: the value columns make the whole
            # result two gathers + one zip, no per-row record indexing.
            vals_g = np.concatenate(val_parts)
            out = list(zip(skeys[emit].tolist(),
                           vals_g[order[emit]].tolist()))
        else:
            gs = order[emit]
            cis = offsets.searchsorted(gs, side="right") - 1
            locs = gs - offsets[cis]
            for key, ci, loc in zip(skeys[emit].tolist(), cis.tolist(), locs.tolist()):
                run, base = run_parts[ci]
                out.append((key, run.value_at(base + loc)))
    return out, events, runtime
