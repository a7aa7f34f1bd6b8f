"""YCSB workload definitions A-G (§6.3-§6.5).

The paper evaluates YCSB's six standard workloads plus a seventh:

========= =============================== =========== =================
workload  mix                             distribution scan length
========= =============================== =========== =================
A         50% read / 50% update           zipfian     --
B         95% read / 5% update            zipfian     --
C         100% read                       zipfian     --
D         95% read / 5% insert            latest      --
E         95% scan / 5% insert            zipfian     uniform 0-100
F         50% read / 50% read-mod-write   zipfian     --
G         95% scan / 5% update            zipfian     uniform 0-10,000
========= =============================== =========== =================

Keys follow the hash-load convention (``permute64(item)``); scans start at a
chosen item's key and read the next N records in key order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.common.errors import ConfigError
from repro.db.iamdb import IamDB
from repro.workloads.distributions import (
    LatestChooser,
    ScrambledZipfian,
    UniformChooser,
    permute64,
)


@dataclass(frozen=True)
class YcsbSpec:
    """One YCSB workload: operation mix + key distribution."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # zipfian | latest | uniform
    max_scan_len: int = 0

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"workload {self.name}: op mix sums to {total}")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.scan > 0 and self.max_scan_len <= 0:
            raise ConfigError("scan workloads need max_scan_len > 0")


YCSB_WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("A", read=0.5, update=0.5),
    "B": YcsbSpec("B", read=0.95, update=0.05),
    "C": YcsbSpec("C", read=1.0),
    "D": YcsbSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YcsbSpec("E", scan=0.95, insert=0.05, max_scan_len=100),
    "F": YcsbSpec("F", read=0.5, rmw=0.5),
    "G": YcsbSpec("G", scan=0.95, update=0.05, max_scan_len=10_000),
}


def build_op_stream(db: IamDB, spec: YcsbSpec, n_ops: int, n_records: int, *,
                    seed: int, value_size: int, client: int = 0,
                    key_offset: int = 0,
                    insert_state: Optional[Dict[str, int]] = None,
                    ) -> Iterator[Callable[[], None]]:
    """Yield ``n_ops`` zero-argument operations implementing ``spec``.

    The RNG is seeded per (seed, workload): back-to-back workloads on one
    store must not replay each other's key sequence (which would read
    entirely from page cache and inflate throughput).

    Multi-client runs give each client its own stream: ``client`` salts the
    RNG (client 0 keeps the single-client seed string, so its stream is
    unchanged), ``key_offset`` rotates the client's item space so clients
    hit different key neighborhoods, and ``insert_state`` shares the
    inserted-item counter so concurrent inserts never collide on a key.
    """
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
