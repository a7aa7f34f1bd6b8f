"""Shared digest harness for the write-path golden.

``tests/data/write_path_golden.json`` pins the *default* write path --
token-bucket gate, weighted-fair pump, each engine's score-order pick --
as it stood on the commit that still carried the ``legacy_gate`` /
``scheduler`` / ``compaction_selector`` forks beside it.  The digests
capture everything the write path can perturb: final records, write
amplification, the simulated clock, the per-reason stall/gate-delay
aggregates and the job counts.  ``tests/test_write_path_golden.py``
asserting equality against them proves a refactor of the gate, the pump
or the picker left default behaviour byte-identical.

Regenerate (``python -m tests.write_path_golden``) only when a change is
*meant* to move the sim clock, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

GOLDEN_PATH = Path(__file__).parent / "data" / "write_path_golden.json"


def _tight_lsm(trigger: int, slowdown: int, stop: int, **common: Any) -> Any:
    from repro.common.options import LsmOptions

    return LsmOptions(style="leveldb", memtable_bytes=2048, file_bytes=2048,
                      level1_bytes=2048, l0_compaction_trigger=trigger,
                      l0_slowdown_trigger=slowdown, l0_stop_trigger=stop,
                      **common)


def make_golden_db(config: str, *, faulted: Any = False, threads: int = 1,
                   slow_device: bool = False) -> Any:
    """A small-scale DB of engine configuration ``config``."""
    from repro.common.options import (
        DeviceProfile,
        FaultOptions,
        IamOptions,
        LsmOptions,
        StorageOptions,
    )
    from repro.db.iamdb import IamDB

    common: Dict[str, Any] = dict(key_size=16, background_threads=threads)
    engine = config.split("-")[0]
    if config in ("iam", "lsa"):
        opts: Any = IamOptions(node_capacity=4096, **common)
    elif config == "leveldb":
        opts = LsmOptions(style="leveldb", memtable_bytes=4096,
                          file_bytes=4096, level1_bytes=8192, **common)
    elif config in ("leveldb-tight", "flsm-tight"):
        # Tight L0 triggers drive the pace ramp over its whole range.
        opts = _tight_lsm(2, 2, 3, **common)
    elif config == "leveldb-stop":
        # No slowdown band below the stop trigger: the hard L0 stop fires.
        opts = _tight_lsm(2, 2, 2, **common)
    elif config == "flsm-stop":
        opts = _tight_lsm(1, 1, 1, **common)
    elif config == "rocksdb":
        opts = LsmOptions(style="rocksdb", memtable_bytes=4096,
                          file_bytes=4096, level1_bytes=8192,
                          pending_compaction_soft_bytes=4096,
                          l0_slowdown_trigger=5, l0_stop_trigger=9,
                          delayed_write_fraction=0.1, **common)
    else:
        raise ValueError(config)
    fault_options = None
    if faulted == "streak":
        # A high fault rate with a single retry makes background job
        # give-ups likely (~rate^2 per activation), growing
        # ``failed_streak`` so the degradation gate runs its nonzero
        # path.  (Fault windows cannot do this -- one foreground retry
        # loop spans the whole window before any activation.)
        fault_options = FaultOptions(seed=3, rate=0.35, max_retries=1,
                                     backoff_base_s=1e-6, backoff_max_s=8e-6,
                                     giveup_backoff_s=2e-5)
    elif faulted:
        fault_options = FaultOptions(seed=3, rate=0.05)
    storage = None
    if slow_device:
        # Slow enough that one 2 KiB flush owes more than the pump's fair
        # quantum (2 ms), so contested grants really are chunked.
        storage = StorageOptions(device=DeviceProfile(
            "slow", 0.0, 0.0, 512 * 1024, 512 * 1024))
    db = IamDB(engine, engine_options=opts, storage_options=storage)
    if fault_options is not None:
        db.runtime.attach_faults(fault_options)
    return db


def _load(db: Any) -> None:
    from repro.workloads.dbbench import hash_load

    hash_load(db, 400, value_size=64, quiesce=True)


def _mixed(db: Any, ops: int = 400) -> None:
    from repro.workloads.dbbench import hash_load
    from repro.workloads.runner import run_ycsb
    from repro.workloads.ycsb import YCSB_WORKLOADS

    hash_load(db, 300, value_size=64, quiesce=True)
    run_ycsb(db, YCSB_WORKLOADS["A"], ops, 300, seed=7, value_size=64)
    db.quiesce()


def _mixed_short(db: Any) -> None:
    _mixed(db, ops=300)


#: case name -> (engine configuration, runner, make_golden_db keywords)
CASES: Dict[str, Tuple[str, Callable[[Any], None], Dict[str, Any]]] = {
    "iam-load": ("iam", _load, {}),
    "lsa-load": ("lsa", _load, {}),
    "leveldb-load": ("leveldb", _load, {}),
    "flsm-load": ("flsm-tight", _load, {}),
    "iam-mixed": ("iam", _mixed, {}),
    "lsa-mixed": ("lsa", _mixed, {}),
    "leveldb-mixed": ("leveldb", _mixed, {}),
    "flsm-mixed": ("flsm-tight", _mixed_short, {}),
    "rocksdb-mixed": ("rocksdb", _mixed_short, {}),
    "iam-faulted": ("iam", _mixed, {"faulted": True}),
    "leveldb-faulted": ("leveldb", _mixed, {"faulted": True}),
    "leveldb-streak": ("leveldb", _mixed_short, {"faulted": "streak"}),
    "leveldb-tight": ("leveldb-tight", _mixed_short, {}),
    "leveldb-stop": ("leveldb-stop", _mixed_short, {}),
    "flsm-stop": ("flsm-stop", _mixed_short, {}),
    # Four threads put a flush and a compaction in flight together: the
    # only cases that reach the pump's contested, quantum-chunked grants
    # (IAM runs all structural work in its flush job, so its case pins
    # that extra threads change nothing).
    "iam-4t": ("iam", _mixed, {"threads": 4, "slow_device": True}),
    "leveldb-4t": ("leveldb-tight", _mixed_short,
                   {"threads": 4, "slow_device": True}),
}


def run_digest(case: str) -> Dict[str, Any]:
    """Run one case and return its byte-identity digest."""
    config, runner, kw = CASES[case]
    db = make_golden_db(config, **kw)
    runner(db)
    rows: List[Tuple[Any, Any]] = db.scan()
    records_sha = hashlib.sha256(repr(rows).encode()).hexdigest()
    metrics = db.metrics
    stalls = {r: [s.count, s.total_s.hex(), s.max_s.hex()]
              for r, s in sorted(metrics.stalls.items())}
    gates = {r: [s.count, s.total_s.hex(), s.max_s.hex()]
             for r, s in sorted(metrics.gate_delays.items())}
    digest = {
        "engine": config,
        "records": len(rows),
        "records_sha": records_sha,
        "clock": db.runtime.clock.now.hex(),
        "wa": db.write_amplification().hex(),
        "wa_wal": db.write_amplification(include_wal=True).hex(),
        "space_used": db.space_used_bytes(),
        "total_stall_s": metrics.total_stall_s.hex(),
        "stalls": stalls,
        "gate_delays": gates,
        "completed_jobs": db.runtime.pool.completed_jobs,
        "failed_jobs": db.runtime.pool.failed_jobs,
    }
    db.close()
    return digest


def main() -> None:
    """Regenerate the golden fixture (see the module docstring first)."""
    out = {case: run_digest(case) for case in CASES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    # One case per line: a behaviour change shows as that case's line.
    lines = [f" {json.dumps(case)}: {json.dumps(out[case], sort_keys=True)}"
             for case in sorted(out)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(out)} cases)")


if __name__ == "__main__":
    main()
