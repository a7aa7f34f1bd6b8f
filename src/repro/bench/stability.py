"""Stability benchmark: windowed throughput, stall blame, tail latency.

Runs one sustained hash load plus one mixed YCSB-A phase per engine with a
:class:`~repro.obs.stability.StabilityProbe` attached, and emits the
``BENCH_stability.json`` stability baseline:

* ``python -m repro stability`` runs the suite, prints the table and (with
  ``--update``) rewrites ``BENCH_stability.json``;
* ``benchmarks/stability/`` is the standalone entry point;
* ``--check`` (used by CI) fails unless the fresh report is byte-identical
  to the committed baseline, and names the first differing JSON path.

Unlike a host wall-clock timing (machine-dependent), everything here is
*simulated*: same seed, same report, byte for byte, on any machine -- so
any difference is a behavioral change, never runner noise, and a deliberate
one regenerates the file with ``--update``.  The report therefore carries
no host fields (no wall time, no platform string).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.sampler import DEFAULT_INTERVAL_S

if TYPE_CHECKING:
    from repro.db.iamdb import IamDB

#: Where the committed stability baseline lives (repo root).
BENCH_STABILITY_FILENAME = "BENCH_stability.json"

#: Engine name -> §6.2 legend config (single-threaded variants: stall
#: behavior is the subject here, not background parallelism).
ENGINES: Dict[str, str] = {
    "iam": "I-1t",
    "lsa": "A-1t",
    "leveldb": "L",
}

DEFAULT_RECORDS = 30_000
DEFAULT_OPS = 8_000
DEFAULT_SEED = 11

#: Phase keys in run order (load first: YCSB runs against the loaded tree).
PHASES = ("load", "ycsb_a")

def run_engine(engine: str, *, records: int = DEFAULT_RECORDS,
               ops: int = DEFAULT_OPS, seed: int = DEFAULT_SEED,
               interval_s: float = DEFAULT_INTERVAL_S,
               trace_path: Optional[str] = None,
               validate: bool = False) -> Dict[str, object]:
    """One engine's stability run: sustained load, then mixed YCSB-A.

    Returns ``{"load": <window report>, "ycsb_a": <window report>}`` (see
    :meth:`~repro.obs.stability.StabilityProbe.window_report`).

    ``trace_path`` additionally wires a tracer into the run and writes a
    Chrome trace there (the probe's sampler provides the counter tracks);
    tracing is observation-only, so the report is unchanged by it.
    """
    from repro.bench.scale import SSD_100G, make_db
    from repro.obs.stability import StabilityProbe
    from repro.workloads.dbbench import hash_load
    from repro.workloads.runner import run_ycsb
    from repro.workloads.ycsb import YCSB_WORKLOADS

    db = make_db(ENGINES[engine], SSD_100G)
    tracer = None
    if trace_path is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer(db.runtime.clock)
        db.runtime.attach_tracer(tracer)
    probe = StabilityProbe(db, interval_s)
    phases: Dict[str, object] = {}

    mark = probe.mark()
    hash_load(db, records, quiesce=True)
    phases["load"] = probe.window_report(mark)

    mark = probe.mark()
    run_ycsb(db, YCSB_WORKLOADS["A"], ops, records, seed=seed)
    db.quiesce()
    phases["ycsb_a"] = probe.window_report(mark)

    if tracer is not None and trace_path is not None:
        from repro.obs.export import chrome_trace, validate_chrome_trace, write_json

        trace = chrome_trace(tracer, probe.sampler,
                             process_name=f"stability:{engine}")
        if validate:
            problems = validate_chrome_trace(trace)
            if problems:
                raise ValueError(
                    f"stability trace failed validation: {problems[:3]}")
        write_json(trace_path, trace)
    db.close()
    return phases


def run_suite(engines: Optional[Sequence[str]] = None, *,
              records: int = DEFAULT_RECORDS, ops: int = DEFAULT_OPS,
              seed: int = DEFAULT_SEED,
              interval_s: float = DEFAULT_INTERVAL_S,
              trace_path: Optional[str] = None,
              validate: bool = False) -> Dict[str, object]:
    """Run the stability suite; returns the full BENCH_stability report.

    The report is deterministic: same config, same bytes (no wall-clock or
    platform fields) -- ``tests/test_stability.py`` pins this down.  When
    ``trace_path`` is given, only the first engine's run is traced.
    """
    names = list(engines) if engines else list(ENGINES)
    out: Dict[str, object] = {}
    for i, name in enumerate(names):
        out[name] = run_engine(
            name, records=records, ops=ops, seed=seed, interval_s=interval_s,
            trace_path=trace_path if i == 0 else None, validate=validate)
    return {
        "schema": 1,
        "generated_by": "python -m repro stability",
        "config": {
            "records": records,
            "ops": ops,
            "seed": seed,
            "interval_s": interval_s,
            "workload": "A",
            "setup": "SSD-100G",
            "engines": names,
        },
        "engines": out,
    }


def _canonical(report: Mapping[str, object]) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def _first_diff(old: Any, new: Any, path: str) -> Optional[str]:
    """The first JSON path (keys sorted, list indices as parts) where
    ``old`` and ``new`` differ, as ``path: old -> new``; None if equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        parts = [(k, k in old, k in new) for k in sorted(set(old) | set(new))]
    elif isinstance(old, list) and isinstance(new, list):
        parts = [(i, i < len(old), i < len(new))
                 for i in range(max(len(old), len(new)))]
    elif type(old) is type(new) and old == new:
        return None
    else:
        return f"{path}: {json.dumps(old)} -> {json.dumps(new)}"
    for key, in_old, in_new in parts:
        where = f"{path}/{key}" if path else str(key)
        if not in_old or not in_new:
            return f"{where}: missing from the {'baseline' if in_new else 'report'}"
        diff = _first_diff(old[key], new[key], where)
        if diff is not None:
            return diff
    return None


def check_stability(report: Mapping[str, object], baseline_path: Path) -> List[str]:
    """Compare a fresh report with the committed baseline, byte for byte.

    Returns failure messages (empty = pass).  The report is simulated, so
    any difference is a behavioral change: the message names the first
    differing JSON path with ``baseline -> report`` (a config mismatch is
    a path under ``config/``).  A missing baseline is itself a failure, so
    CI can never silently skip the comparison.
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}"]
    committed = baseline_path.read_text()
    fresh = _canonical(report)
    if committed == fresh:
        return []
    diff = _first_diff(json.loads(committed), json.loads(fresh), "")
    if diff is None:
        return [f"{baseline_path} holds this report but not in canonical "
                "form; rerun with --update"]
    return [diff]


def format_report(report: Mapping[str, Any]) -> str:
    from repro.bench.report import format_table

    cfg = report["config"]
    rows: List[List[object]] = []
    for engine in cfg["engines"]:
        for phase in PHASES:
            digest = report["engines"][engine][phase]
            tp = digest["throughput"]
            p999, p999_op = 0.0, "-"
            for op, lat in sorted(digest["latency"].items()):
                if lat["p999"] > p999:
                    p999, p999_op = lat["p999"], op
            rows.append([engine, phase, f"{tp['mean_ops_s']:,.0f}",
                         f"{tp['cv']:.3f}", f"{tp['min_window_ops_s']:,.0f}",
                         f"{digest['stalls']['stall_fraction'] * 100:.1f}%",
                         f"{p999 * 1e3:.3f} ({p999_op})"])
    title = (f"stability: {cfg['records']} records load + "
             f"{cfg['ops']} YCSB-{cfg['workload']} ops, "
             f"seed {cfg['seed']} (sim time)")
    return format_table(
        ["engine", "phase", "mean ops/s", "cv", "worst win ops/s",
         "stall %", "p99.9 ms (op)"],
        rows, title=title)


def write_report(report: Mapping[str, object], path: Path) -> None:
    path.write_text(_canonical(report))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point shared by ``python -m repro stability`` and benchmarks/."""
    import argparse

    p = argparse.ArgumentParser(
        prog="repro stability",
        description="windowed-throughput / stall-blame / tail-latency suite")
    p.add_argument("--engine", action="append", choices=list(ENGINES),
                   dest="engines",
                   help="run only this engine (repeatable; default: all)")
    p.add_argument("--records", type=int, default=DEFAULT_RECORDS,
                   help=f"records in the load phase (default {DEFAULT_RECORDS})")
    p.add_argument("--ops", type=int, default=DEFAULT_OPS,
                   help=f"YCSB-A ops in the mixed phase (default {DEFAULT_OPS})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED})")
    p.add_argument("--interval", type=float, default=DEFAULT_INTERVAL_S,
                   metavar="SIM_S",
                   help=f"sampler interval, sim seconds (default {DEFAULT_INTERVAL_S})")
    p.add_argument("--quick", action="store_true",
                   help="quarter-size run (not comparable to the baseline)")
    p.add_argument("--update", action="store_true",
                   help=f"write {BENCH_STABILITY_FILENAME}")
    p.add_argument("--check", action="store_true",
                   help="fail unless the report is byte-identical to the baseline")
    p.add_argument("--out", type=Path, default=None,
                   help=f"baseline path (default ./{BENCH_STABILITY_FILENAME})")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome trace of the first engine's run")
    p.add_argument("--validate", action="store_true",
                   help="schema-check the Chrome trace (requires --trace)")
    args = p.parse_args(argv)

    records, ops = args.records, args.ops
    if args.quick:
        records, ops = max(1000, records // 4), max(500, ops // 4)
    report = run_suite(args.engines, records=records, ops=ops,
                       seed=args.seed, interval_s=args.interval,
                       trace_path=args.trace, validate=args.validate)
    if args.trace:
        print(f"wrote Chrome trace of the first engine's run to {args.trace}")
    print(format_report(report))
    path = args.out if args.out is not None else Path(BENCH_STABILITY_FILENAME)
    rc = 0
    if args.check:
        failures = check_stability(report, path)
        for msg in failures:
            print(f"STABILITY CHANGED: {msg}", file=sys.stderr)
        if failures:
            rc = 1
        else:
            print(f"\nstability check ok (byte-identical to {path})")
    if args.update:
        if args.quick:
            print("refusing to --update from a --quick run", file=sys.stderr)
            rc = rc or 2
        else:
            write_report(report, path)
            print(f"\nwrote {path}")
    return rc
