#!/usr/bin/env python3
"""Run every workload (one OS process each, both traces) and save the numbers.

    python3 benchmarks/e2e/suite.py --out benchmarks/e2e/results/set1.json

The file holds, per workload, the end-to-end metrics of each ``--trace 0``
run, the per-layer ledger of one ``--trace 1`` run, the ``sim_digest`` and
the host facts the numbers were taken under.  ``compare.py`` reads two of
these.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import spec

RUN_PY = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int,
             extra: List[str]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One workload process; returns (result line, detail line)."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} (trace {trace}) printed no result; "
                         f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} (trace {trace}) failed: "
                         f"{detail['problems']}")
    return result, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--runs", type=int, default=1,
                        help="--trace 0 runs per workload (spread needs >= 2)")
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                        help="restrict to these workloads (default: all seven)")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    extra = ["--quick"] if args.quick else []

    out: Dict[str, Any] = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg()),
            "size_factor": (spec.QUICK_SIZE_FACTOR if args.quick
                            else spec.SIZE_FACTOR),
            "seconds": args.seconds,
        },
        "seed": args.seed,
        "workloads": {},
    }
    for name in args.workload or spec.WORKLOAD_NAMES:
        runs = [run_once(name, args.seed, args.seconds, 0, extra)
                for _ in range(args.runs)]
        traced, traced_detail = run_once(name, args.seed, args.seconds, 1, extra)
        digests = {detail["sim_digest"] for _, detail in runs}
        digests.add(traced_detail["sim_digest"])
        if len(digests) != 1:
            raise SystemExit(f"{name}: sim_digest differs between runs: {digests}")
        first_detail = runs[0][1]
        out["workloads"][name] = {
            "sim_digest": first_detail["sim_digest"],
            "end_to_end": {
                "host_ops_per_s": [detail["host_ops_per_s"] for _, detail in runs],
                **{metric: [result["metrics"][metric]["value"] for result, _ in runs]
                   for metric in spec.END_TO_END_NAMES}},
            "host_spread_pct": [detail["host_spread_pct"] for _, detail in runs],
            "timed_repetitions": [detail["timed_repetitions"] for _, detail in runs],
            "attempted": sum(result["attempted"] for result, _ in runs),
            "failed": sum(result["failed"] for result, _ in runs),
            "sim": first_detail["sim"],
            "latency_us": first_detail["latency_us"],
            "per_layer": {metric: traced["metrics"][metric]["value"]
                          for metric in spec.PER_LAYER_NAMES},
        }
        row = out["workloads"][name]
        print(f"{name:18s} digest {row['sim_digest']}  host_ops_per_s "
              f"{row['end_to_end']['host_ops_per_s']}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
