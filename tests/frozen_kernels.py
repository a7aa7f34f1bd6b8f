"""Frozen scalar copies of the write-path kernels PR 19 made columnar.

Verbatim from the parent commit (``core/node.py`` and ``common/records.py``
at 833192b), over lists of ``(key, seq, kind, value)`` tuples.  They exist
only as oracles for ``tests/test_run.py``; do not "fix" or optimise them.

``frozen_might_contain`` is the word-indexed Bloom probe of ``filters/
bloom.py`` at 1751bf7, the oracle of ``tests/test_bloom.py``.

``frozen_gather_merge`` is the gather + merge every engine wrote inline at
987e509 (here ``LsaTree._merge_leaf_child``'s), the oracle of
``EngineBase._gather_merge`` in ``tests/test_engine_internals.py``.

``FrozenPumpPool`` is ``BackgroundPool`` with the drain loop of da5d5b2
(``pump`` and ``_fill_threads``): a thread fill before every pass, and
passes until one grants nothing; the oracle of
``tests/test_pump_equivalence.py``.

``frozen_ship_follower`` is ``ReplicaGroup.add_follower(mode="ship")`` at
ae35e43, the pre-shared-storage bootstrap: the leader ships its checkpoint
and every live file over its own link, then the WAL tail.  It is the
reference the store bootstrap is compared against in
``tests/test_objstore_equivalence.py`` and ``tests/test_write_tax.py``.

``FrozenRateEstimator`` is ``repro.storage.pacing.RateEstimator`` at
4608cfe, the eager window: every ``observe`` appends to a deque of
``(debt, bytes)`` anchors and pops the ones the window has slid past.  It
is the oracle of the lazy window in ``tests/test_pacing.py``.

``frozen_op_blocks`` is ``repro.workloads.ycsb.op_blocks`` at d97fb29 (its
body verbatim), whose scan lengths are ``rng.randrange(1, n + 1)``: the
oracle of the inline ``getrandbits`` draw in ``tests/test_ycsb.py``.

``build_op_stream`` is ``repro.workloads.ycsb``'s per-op stream at 5c17a7a
(its body verbatim: a closure per op, scalar ``sample`` and ``permute64``
calls); driven round-robin, it is the oracle of ``run_ycsb``'s op blocks in
``tests/test_ycsb.py``.
"""

import bisect
import random
from collections import deque
from typing import Deque, Iterator, List, Tuple, Union

import numpy as np

from repro.common.hashing import MASK64
from repro.common.errors import InvariantViolation
from repro.common.records import (
    DELETE, KEY, KIND, RECORD_OVERHEAD, SEQ, VALUE, encoded_size)
from repro.storage.background import ACTIVE, FAIR_QUANTUM_S, BackgroundPool
from repro.storage.pacing import MIN_RATE_FRACTION
from repro.table.merge import merge_runs
from repro.workloads.dbbench import KEYGEN_CHUNK
from repro.workloads.distributions import (
    LatestChooser, ScrambledZipfian, UniformChooser, permute64, permute64_many)
from repro.workloads.ycsb import INSERT, READ, RMW, SCAN, UPDATE, YcsbSpec


def frozen_might_contain(bits, n_bits, n_hashes, h1, h2):
    """``bits`` is the filter as the ``uint64`` ndarray it used to be."""
    assert bits.dtype == np.uint64
    if n_hashes == 0:
        return True
    for i in range(n_hashes):
        idx = ((h1 + i * h2) & MASK64) % n_bits
        if not (int(bits[idx >> 6]) >> (idx & 63)) & 1:
            return False
    return True


def frozen_gather_merge(engine, tables, part, *, drop_tombstones):
    debt = 0.0
    runs = [part]
    for table in tables:
        debt += table.compaction_read_debt()
        runs += [s.run for s in table.sequences]
    merged = merge_runs(runs, drop_tombstones=drop_tombstones,
                        snapshots=engine.snapshots_provider())
    return merged, debt


def frozen_ship_follower(group, replica):
    leader = group.leader
    base_seq = 0
    shipped_bytes = 0
    state = leader.db.manifest.restore()
    if state is not None:
        disk = leader.db.runtime.disk
        for fid in sorted(leader.db.engine.live_file_ids()):
            f = disk.files.get(fid)
            if f is not None:
                group.network.send(leader.node_id, replica.node_id,
                                   f.nbytes)
                shipped_bytes += f.nbytes
        replica.db.adopt_checkpoint(state)
        base_seq = int(state["seq"])
    report = {"mode": "ship", "bootstrap_seq": base_seq,
              "shipped_bytes": shipped_bytes}
    tail = 0
    for rec in leader.db.wal.replay():
        if rec[SEQ] <= base_seq:
            continue
        rec_bytes = encoded_size(rec, group.key_size)
        group.network.send(leader.node_id, replica.node_id, rec_bytes)
        if rec[KIND] == DELETE:
            replica.db.delete(rec[KEY])
        else:
            replica.db.put(rec[KEY], rec[VALUE])
        group.network.send(replica.node_id, leader.node_id, 0)
        tail += 1
    if replica.db._seq != leader.db._seq:
        raise InvariantViolation(
            f"shard {group.shard_id}: new follower caught up to seq "
            f"{replica.db._seq}, leader at {leader.db._seq}")
    group.replicas.append(replica)
    report["wal_tail_records"] = tail
    report["follower_node"] = replica.node_id
    report["seq"] = replica.db._seq
    return report


def frozen_partition_records(records, children, *, leaf, child_weights=None):
    n = len(children)
    parts = [[] for _ in range(n)]
    if n == 1:
        parts[0] = list(records)
        return parts
    los = [c.range_lo for c in children]
    for rec in records:
        key = rec[KEY]
        idx = bisect.bisect_right(los, key) - 1
        if idx < 0:
            parts[0].append(rec)
            continue
        if key <= children[idx].range_hi or idx == n - 1:
            parts[idx].append(rec)
            continue
        # Gap between children[idx] and children[idx+1].
        left, right = children[idx], children[idx + 1]
        if leaf:
            choice = idx if _closer_to_left(key, left.range_hi, right.range_lo) else idx + 1
        else:
            if child_weights is not None and child_weights[idx + 1] < child_weights[idx]:
                choice = idx + 1
            else:
                choice = idx
        parts[choice].append(rec)
    return parts


def _closer_to_left(key, left_hi, right_lo):
    try:
        return (key - left_hi) <= (right_lo - key)
    except TypeError:
        return True


def frozen_split_run(recs, key_size, max_bytes):
    fixed = key_size + RECORD_OVERHEAD
    chunk = []
    acc = 0
    for rec in recs:
        v = rec[VALUE]
        sz = fixed + (v if type(v) is int else len(v))
        if acc + sz > max_bytes and chunk and chunk[-1][KEY] != rec[KEY]:
            yield chunk
            chunk = []
            acc = 0
        chunk.append(rec)
        acc += sz
    if chunk:
        yield chunk


class FrozenPumpPool(BackgroundPool):

    def _fill_threads(self):
        while len(self.active) < self.threads and self.queue:
            job = self._pop_ready()
            if job is None:
                break
            self._activate(job)
        if self._provider_idle:
            return
        provider = self.provider
        while len(self.active) < self.threads and not self._queue_ready():
            job = provider() if provider is not None else None
            if job is None:
                self._provider_idle = True
                self.idle = not self.active and not self.queue
                return
            self._activate(job)

    def pump(self):
        if self.idle:
            return
        active = self.active
        while True:
            self._fill_threads()
            if not active:
                return
            progressed = False
            if len(active) > 1:
                contested = len({j.klass for j in active}) > 1
                order = self._fair_order()
            else:  # one job: nothing to arbitrate, no order to compute
                contested = False
                order = active[:]
            for job in order:
                if job.state != ACTIVE:
                    continue
                disk = job.disk
                ask = min(job.debt_s, FAIR_QUANTUM_S) if contested else job.debt_s
                granted = disk.bg_grant(job.not_before, ask, self.lookahead_s)
                if granted > 0.0:
                    progressed = True
                    job.debt_s -= granted
                    job.not_before = disk.busy_until
                    self._account_drain(job, granted)
                    if job.debt_s <= 1e-12:
                        job.debt_s = 0.0
                        self._retire(job)
            if not progressed:
                return


class FrozenRateEstimator:
    """Sustainable ingest rate from the pool's retired-debt window.

    Samples ``(retired_debt_s, user_bytes)`` pairs (both cumulative
    counters) and estimates ``lambda`` = background device-seconds per user
    byte over the trailing ``window_bytes`` of user writes.  One user byte
    then costs ``1/bw`` seconds of foreground streaming plus ``lambda``
    seconds of background work, so the sustainable rate is
    ``1 / (lambda + 1/bw)`` -- clamped to ``[bw/256, bw]`` (the same floor
    as the fault-degradation gate).
    """

    __slots__ = ("bandwidth", "window_bytes", "_anchors")

    def __init__(self, bandwidth: float, window_bytes: int) -> None:
        if bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")
        self.bandwidth = bandwidth
        self.window_bytes = max(1, int(window_bytes))
        self._anchors: Deque[Tuple[float, int]] = deque()

    def observe(self, retired_debt_s: float, user_bytes: int) -> None:
        """Record the current (cumulative) counters as a window anchor."""
        anchors = self._anchors
        if anchors and anchors[-1][1] == user_bytes:
            # No user progress since the last anchor: keep the newest debt
            # reading without growing the window.
            anchors[-1] = (retired_debt_s, user_bytes)
        else:
            anchors.append((retired_debt_s, user_bytes))
        while len(anchors) > 2 and user_bytes - anchors[1][1] >= self.window_bytes:
            anchors.popleft()

    def rate(self) -> float:
        """Sustainable bytes/second, clamped to ``[bw/256, bw]``."""
        bw = self.bandwidth
        anchors = self._anchors
        if len(anchors) < 2:
            return bw
        d_debt = anchors[-1][0] - anchors[0][0]
        d_bytes = anchors[-1][1] - anchors[0][1]
        if d_bytes <= 0 or d_debt <= 0.0:
            return bw
        lam = d_debt / d_bytes
        rate = 1.0 / (lam + 1.0 / bw)
        lo = bw * MIN_RATE_FRACTION
        if not (rate > lo):  # clamp NaN/negative to the floor too
            return lo
        return rate if rate < bw else bw


def build_op_stream(db, spec, n_ops, n_records, *, seed, value_size, client=0,
                    key_offset=0, insert_state=None):
    if client == 0:
        rng = random.Random(f"{seed}:{spec.name}")
    else:
        rng = random.Random(f"{seed}:{spec.name}:c{client}")
    if spec.distribution == "zipfian":
        chooser = ScrambledZipfian(n_records, rng)
    elif spec.distribution == "uniform":
        chooser = UniformChooser(n_records, rng)
    else:
        chooser = LatestChooser(n_records, rng)

    state = insert_state if insert_state is not None else {"inserted": n_records}

    def key_of(item: int) -> int:
        # The client's key-space rotation applies to the loaded item space
        # only; freshly inserted items (>= n_records) keep their global ids
        # so the latest-distribution reads still find them.
        if key_offset and item < n_records:
            item = (item + key_offset) % n_records
        return permute64(item)

    def do_read() -> None:
        db.get(key_of(chooser.sample()))

    def do_update() -> None:
        db.put(key_of(chooser.sample()), value_size)

    def do_insert() -> None:
        item = state["inserted"]
        state["inserted"] += 1
        if isinstance(chooser, LatestChooser):
            chooser.advance()
        db.put(key_of(item), value_size)

    def do_scan() -> None:
        start = key_of(chooser.sample())
        length = rng.randrange(1, spec.max_scan_len + 1)
        db.scan(start, None, limit=length)

    def do_rmw() -> None:
        key = key_of(chooser.sample())
        db.get(key)
        db.put(key, value_size)

    thresholds = []
    acc = 0.0
    for frac, fn in ((spec.read, do_read), (spec.update, do_update),
                     (spec.insert, do_insert), (spec.scan, do_scan),
                     (spec.rmw, do_rmw)):
        if frac > 0:
            acc += frac
            thresholds.append((acc, fn))

    for _ in range(n_ops):
        u = rng.random()
        for bound, fn in thresholds:
            if u <= bound:
                yield fn
                break
        else:  # floating-point edge: fall through to the last op type
            yield thresholds[-1][1]


def frozen_op_blocks(spec: YcsbSpec, n_ops: int, n_records: int, seed: int,
                     client: int, key_offset: int) -> Iterator[List[Tuple[int, int, int]]]:
    if client == 0:
        rng = random.Random(f"{seed}:{spec.name}")
    else:
        rng = random.Random(f"{seed}:{spec.name}:c{client}")
    chooser: Union[ScrambledZipfian, UniformChooser, LatestChooser]
    if spec.distribution == "zipfian":
        chooser = ScrambledZipfian(n_records, rng)
    elif spec.distribution == "uniform":
        chooser = UniformChooser(n_records, rng)
    else:
        chooser = LatestChooser(n_records, rng)

    thresholds = []
    acc = 0.0
    for frac, code in ((spec.read, READ), (spec.update, UPDATE),
                       (spec.insert, INSERT), (spec.scan, SCAN), (spec.rmw, RMW)):
        if frac > 0:
            acc += frac
            thresholds.append((acc, code))

    rng_random, draw, randrange = rng.random, chooser.draw, rng.randrange
    scan_stop = spec.max_scan_len + 1
    for start in range(0, n_ops, KEYGEN_CHUNK):
        k = min(KEYGEN_CHUNK, n_ops - start)
        codes, lens = [0] * k, [0] * k
        draws: List[float] = [0] * k
        for i in range(k):
            u = rng_random()
            # No break (a floating-point edge) leaves the last op type.
            for bound, code in thresholds:
                if u <= bound:
                    break
            codes[i] = code
            if code != INSERT:
                draws[i] = draw()
                if code == SCAN:
                    lens[i] = randrange(1, scan_stop)
        if isinstance(chooser, LatestChooser):
            # A read sees every earlier insert of this stream, this block's
            # too (an insert's own slot is a placeholder).
            seen = np.cumsum(np.equal(codes, INSERT))
            items = chooser.transform(draws, chooser.max_item + seen)
            chooser.max_item += int(seen[-1])
        else:
            items = chooser.transform(draws)
        if key_offset:
            items = np.where(items < n_records, (items + key_offset) % n_records,
                             items)
        yield list(zip(codes, permute64_many(items), lens))
