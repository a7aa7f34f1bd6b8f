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
"""

import bisect

import numpy as np

from repro.common.hashing import MASK64
from repro.common.records import KEY, RECORD_OVERHEAD, VALUE
from repro.storage.background import ACTIVE, FAIR_QUANTUM_S, BackgroundPool
from repro.table.merge import merge_runs


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
