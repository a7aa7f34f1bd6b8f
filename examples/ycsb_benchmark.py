#!/usr/bin/env python3
"""Run a YCSB workload against any engine on either device profile.

Usage:
    python examples/ycsb_benchmark.py [workload] [engine] [device] [n_ops]

    workload: A B C D E F G        (default A)
    engine:   iam lsa leveldb rocksdb flsm   (default iam)
    device:   ssd hdd              (default ssd)
    n_ops:    run-phase operations (default 3000)

Example:
    python examples/ycsb_benchmark.py E iam hdd 1000
"""

import sys

from repro import HDD, SSD, IamDB, StorageOptions
from repro.bench.scale import KEY_SIZE, SSD_100G, VALUE_SIZE
from repro.common.options import IamOptions, LsmOptions
from repro.workloads import YCSB_WORKLOADS, hash_load, run_ycsb


def build_db(engine: str, device_name: str) -> IamDB:
    device = HDD if device_name == "hdd" else SSD
    storage = StorageOptions(device=device,
                             page_cache_bytes=SSD_100G.memory_bytes)
    if engine in ("iam", "lsa"):
        opts = IamOptions(key_size=KEY_SIZE)
    elif engine == "rocksdb":
        opts = LsmOptions.rocksdb(key_size=KEY_SIZE)
    else:
        opts = LsmOptions.leveldb(key_size=KEY_SIZE)
    return IamDB(engine, engine_options=opts, storage_options=storage)


def main() -> None:
    workload = (sys.argv[1] if len(sys.argv) > 1 else "A").upper()
    engine = sys.argv[2] if len(sys.argv) > 2 else "iam"
    device = sys.argv[3] if len(sys.argv) > 3 else "ssd"
    n_ops = int(sys.argv[4]) if len(sys.argv) > 4 else 3000
    spec = YCSB_WORKLOADS[workload]

    n_records = 30_000
    db = build_db(engine, device)
    print(f"loading {n_records} records into {engine} on {device}...")
    load = hash_load(db, n_records, value_size=VALUE_SIZE, quiesce=False)
    print(f"  load: {load.throughput:,.0f} ops/s, "
          f"WA {load.write_amplification:.2f}")

    print(f"running YCSB-{workload} ({n_ops} ops)...")
    rep = run_ycsb(db, spec, n_ops, n_records, value_size=VALUE_SIZE)
    print(f"  throughput: {rep.throughput:,.0f} ops/s "
          f"({rep.sim_seconds * 1e3:.2f} simulated ms)")
    for op, digest in sorted(rep.latency.items()):
        print(f"  {op:>7}: n={digest['count']:>6.0f}  "
              f"p50={digest['p50'] * 1e6:8.1f}us  "
              f"p99={digest['p99'] * 1e6:8.1f}us  "
              f"max={digest['max'] * 1e3:8.2f}ms")
    db.close()


if __name__ == "__main__":
    main()
