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
chosen item's key and read the next N records in key order.  The ops come
in blocks (:func:`op_blocks`) that :func:`repro.workloads.runner.run_ycsb`
dispatches to the store.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.common.errors import ConfigError
from repro.workloads.dbbench import KEYGEN_CHUNK
from repro.workloads.distributions import (
    LatestChooser,
    ScrambledZipfian,
    UniformChooser,
    permute64_many,
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
        fractions = (self.read, self.update, self.insert, self.scan, self.rmw)
        if not all(f >= 0 for f in fractions):  # NaN fails every comparison
            raise ConfigError(f"workload {self.name}: negative or NaN op fraction")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"workload {self.name}: op mix sums to {total}")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if type(self.max_scan_len) is not int:  # bool too: True is not a length
            raise ConfigError(f"max_scan_len must be an int, got {self.max_scan_len!r}")
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


#: Op codes of an op block's ``(code, key, scan_len)`` entries.
READ, UPDATE, INSERT, SCAN, RMW = range(5)


def op_blocks(spec: YcsbSpec, n_ops: int, n_records: int, seed: int,
              client: int, key_offset: int) -> Iterator[List[Tuple[int, int, int]]]:
    """Yield one client's ``n_ops`` ops of ``spec`` in blocks of ``KEYGEN_CHUNK``.

    An op is ``(code, key, scan_len)``; an ``INSERT``'s key is a placeholder,
    since inserts take the next item of the counter the clients share when
    they run.  Draws come serially from one ``random.Random``, per op: the
    op type, then the chooser's draw (none for an insert), then a scan's
    length; the chooser's vectorized ``transform`` and ``permute64_many``
    turn a block's draws into keys.

    The RNG is seeded per (seed, workload): back-to-back workloads on one
    store must not replay each other's key sequence (which would read
    entirely from page cache and inflate throughput).  ``client`` salts it
    (client 0 keeps the single-client seed string), and ``key_offset``
    rotates the loaded item space so clients hit different key
    neighborhoods; inserted items (``>= n_records``) keep their global ids
    so the latest-distribution reads still find them.
    """
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

    rng_random, draw, getrandbits = rng.random, chooser.draw, rng.getrandbits
    # A scan's length is ``rng.randrange(1, n + 1)`` inline: CPython's
    # ``_randbelow`` loop over ``getrandbits(n.bit_length())``, one call.
    n_lens = spec.max_scan_len
    len_bits = n_lens.bit_length()
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
                    r = getrandbits(len_bits)
                    while r >= n_lens:
                        r = getrandbits(len_bits)
                    lens[i] = 1 + r
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
