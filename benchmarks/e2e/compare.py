#!/usr/bin/env python3
"""Compare two result files written by suite.py.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x reported metric (``host_ops_per_s`` and the driver's
end-to-end list): both medians, the ratio B/A (A is
the base), the metric's bound and a verdict:

* ``same``       -- sim clock and counts: equal to the last digit; host clock:
  B is within the bound of A.
* ``better`` / ``worse`` -- B moved past that in the metric's good / bad
  direction (any difference at all, for a sim-clock metric or a count).
* ``unresolved`` -- host clock only: the runs of A or of B spread (max - min
  over their median) wider than the bound, so the bound cannot be checked.

Exit code 1 when any row is ``worse``, any digest differs or any op failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional

import spec


def spread(values: List[float]) -> float:
    median = statistics.median(values)
    return (max(values) - min(values)) / median if len(values) > 1 and median else 0.0


def verdict(metric: spec.Metric, a: List[float], b: List[float]) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = (med_b - med_a) / med_a if med_a else 0.0
    if metric.better == "lower":
        gain = -gain
    if metric.clock != "host":
        return "same" if med_a == med_b else ("better" if gain > 0 else "worse")
    assert metric.bound is not None
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    if gain < -metric.bound:
        return "worse"
    return "better" if gain > metric.bound else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in spec.REPORTED:
            va, vb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            med_a, med_b = statistics.median(va), statistics.median(vb)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": med_a, "b": med_b,
                "ratio": med_b / med_a if med_a else float("nan"),
                "bound": metric.bound, "verdict": verdict(metric, va, vb),
            })
        rows.append({
            "workload": name, "metric": "sim_digest", "unit": "",
            "a": wa["sim_digest"], "b": wb["sim_digest"], "ratio": None,
            "bound": 0.0,
            "verdict": "same" if wa["sim_digest"] == wb["sim_digest"] else "worse",
        })
        failed = wa["failed"] + wb["failed"]
        rows.append({
            "workload": name, "metric": "failed_ops", "unit": "count",
            "a": wa["failed"], "b": wb["failed"], "ratio": None, "bound": 0.0,
            "verdict": "same" if failed == 0 else "worse",
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(args[0]) as fa, open(args[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["host"]["size_factor"] != b["host"]["size_factor"] or a["seed"] != b["seed"]:
        print("size factor or seed differ: the files are not comparable",
              file=sys.stderr)
        return 2
    rows = compare(a, b)
    print(f"{'workload':18s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for row in rows:
        def cell(value: Any) -> str:
            return f"{value:14.6g}" if isinstance(value, (int, float)) else f"{value:>14s}"
        ratio = "" if row["ratio"] is None else f"{row['ratio']:8.4f}"
        print(f"{row['workload']:18s} {row['metric']:20s} {cell(row['a'])} "
              f"{cell(row['b'])} {ratio:>8s} {row['bound']:6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
