"""db_bench-style workloads (§6.2, §6.6, §6.7).

* ``hash_load``   -- YCSB's default load: unordered unique keys (no updates).
* ``fill_seq``    -- ordered inserts (db_bench fillseq).
* ``fill_random`` -- random keys *with* collisions (updates happen).
* ``overwrite``   -- updates over an existing key space only.
* ``read_seq``    -- one full-database scan (db_bench readseq).
* ``read_random`` -- uniform point reads.

Each returns a :class:`~repro.workloads.runner.WorkloadReport`.  Keys are
integers; values are synthetic payloads of ``value_size`` bytes.

Keys are produced in chunks of :data:`KEYGEN_CHUNK` via the vectorized
``permute64_many`` mixer rather than one ``permute64`` call per operation.
Random item draws still come one at a time from the seeded ``random.Random``,
so every workload issues *exactly* the same key sequence as the per-op
implementation did -- only the Python-level mixing work is batched.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import ConfigError
from repro.db.iamdb import IamDB
from repro.workloads.distributions import permute64_many
from repro.workloads.runner import WorkloadReport, finish_report, latency_marks

DEFAULT_VALUE_SIZE = 256

#: Keys generated per vectorized chunk (amortizes the numpy round trip
#: without holding a large key buffer alive).
KEYGEN_CHUNK = 8192


def hash_load(db: IamDB, n_records: int, *, value_size: int = DEFAULT_VALUE_SIZE,
              quiesce: bool = True, name: str = "hash-load") -> WorkloadReport:
    """Insert ``n_records`` unique unordered keys (the paper's load, §6.2)."""
    if n_records < 0:
        raise ConfigError(f"n_records must be >= 0, got {n_records}")
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    put = db.put
    for start in range(0, n_records, KEYGEN_CHUNK):
        stop = min(start + KEYGEN_CHUNK, n_records)
        for key in permute64_many(range(start, stop)):
            put(key, value_size)
    if quiesce:
        db.quiesce()
    return finish_report(db, name, n_records, t0, marks)


def fill_seq(db: IamDB, n_records: int, *, value_size: int = DEFAULT_VALUE_SIZE,
             quiesce: bool = True) -> WorkloadReport:
    """Insert ``n_records`` strictly increasing keys (db_bench fillseq)."""
    if n_records < 0:
        raise ConfigError(f"n_records must be >= 0, got {n_records}")
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    put = db.put
    for i in range(n_records):
        put(i, value_size)
    if quiesce:
        db.quiesce()
    return finish_report(db, "fillseq", n_records, t0, marks)


def fill_random(db: IamDB, n_records: int, *, value_size: int = DEFAULT_VALUE_SIZE,
                seed: int = 1, quiesce: bool = True) -> WorkloadReport:
    """Insert random keys drawn from a space of ``n_records`` (has updates)."""
    rng = random.Random(seed)
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    put = db.put
    randrange = rng.randrange
    for start in range(0, n_records, KEYGEN_CHUNK):
        chunk = min(KEYGEN_CHUNK, n_records - start)
        items = [randrange(n_records) for _ in range(chunk)]
        for key in permute64_many(items):
            put(key, value_size)
    if quiesce:
        db.quiesce()
    return finish_report(db, "fillrandom", n_records, t0, marks)


def overwrite(db: IamDB, n_ops: int, n_records: int, *,
              value_size: int = DEFAULT_VALUE_SIZE, seed: int = 2,
              quiesce: bool = True) -> WorkloadReport:
    """Update existing keys uniformly (db_bench overwrite; space test §6.7)."""
    rng = random.Random(seed)
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    put = db.put
    randrange = rng.randrange
    for start in range(0, n_ops, KEYGEN_CHUNK):
        chunk = min(KEYGEN_CHUNK, n_ops - start)
        items = [randrange(n_records) for _ in range(chunk)]
        for key in permute64_many(items):
            put(key, value_size)
    if quiesce:
        db.quiesce()
    return finish_report(db, "overwrite", n_ops, t0, marks)


def read_seq(db: IamDB, *, limit: Optional[int] = None) -> WorkloadReport:
    """Scan the whole database in order (db_bench readseq, §6.6)."""
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    rows = db.scan(None, None, limit=limit)
    return finish_report(db, "readseq", len(rows), t0, marks)


def read_random(db: IamDB, n_ops: int, n_records: int, *,
                seed: int = 3) -> WorkloadReport:
    """Uniform point reads over a hash-loaded key space."""
    rng = random.Random(seed)
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    get = db.get
    randrange = rng.randrange
    for start in range(0, n_ops, KEYGEN_CHUNK):
        chunk = min(KEYGEN_CHUNK, n_ops - start)
        items = [randrange(n_records) for _ in range(chunk)]
        for key in permute64_many(items):
            get(key)
    return finish_report(db, "readrandom", n_ops, t0, marks)
