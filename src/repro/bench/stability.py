"""Stability benchmark: windowed throughput, stall blame, tail latency.

Runs one sustained hash load plus one mixed YCSB-A phase per engine with a
:class:`~repro.obs.stability.StabilityProbe` attached, and emits the
``BENCH_stability.json`` stability baseline:

* ``python -m repro stability`` runs the suite, prints the table and (with
  ``--update``) rewrites ``BENCH_stability.json``;
* ``benchmarks/stability/`` is the standalone entry point;
* ``--check`` (used by CI) fails when windowed-throughput variance, the
  worst window, the stall-time fraction or any op class's p99.9 regresses
  against the committed baseline.

Unlike ``BENCH_perf.json`` (wall-clock, machine-dependent), everything here
is *simulated*: same seed, same report, byte for byte, on any machine --
so the check tolerances guard against behavioral regressions (a scheduling
change that makes writes burstier), not runner noise.  The report therefore
carries no host fields (no wall time, no platform string).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

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

#: Checked digests and their direction: ``+`` means higher-is-worse
#: (ceiling), ``-`` means lower-is-worse (floor).
_THROUGHPUT_CHECKS = (
    ("mean_ops_s", "-"),
    ("cv", "+"),
    ("min_window_ops_s", "-"),
)


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


def _phase_digest(report: Mapping[str, object], engine: str,
                  phase: str) -> Optional[Mapping[str, object]]:
    engines = report.get("engines")
    if not isinstance(engines, Mapping):
        return None
    per_engine = engines.get(engine)
    if not isinstance(per_engine, Mapping):
        return None
    digest = per_engine.get(phase)
    return digest if isinstance(digest, Mapping) else None


def _num(container: Mapping[str, object], *path: str) -> Optional[float]:
    node: object = container
    for key in path:
        if not isinstance(node, Mapping):
            return None
        node = node.get(key)
    return float(node) if isinstance(node, (int, float)) else None


def check_stability(report: Dict[str, object], baseline_path: Path, *,
                    max_regression: float = 0.25) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Returns failure messages (empty = pass).  A missing baseline or a
    config mismatch is itself a failure, so CI can never silently skip the
    comparison.  Per engine and phase the gate holds:

    * ``mean_ops_s`` and ``min_window_ops_s`` above a ``1 - tol`` floor;
    * windowed-throughput ``cv`` and the ``stall_fraction`` below a
      ``(1 + tol) + 0.01`` ceiling (the additive slack keeps near-zero
      baselines from forbidding any stall at all);
    * every op class's p99.9 below a ``1 + tol`` ceiling.
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}"]
    baseline = json.loads(baseline_path.read_text())
    base_cfg = baseline.get("config") or {}
    cur_cfg = report.get("config") or {}
    if base_cfg != cur_cfg:
        diffs = sorted(k for k in set(base_cfg) | set(cur_cfg)
                       if base_cfg.get(k) != cur_cfg.get(k))
        return [f"config mismatch vs baseline ({', '.join(diffs)}); "
                "rerun with the baseline's scale or --update"]

    failures: List[str] = []
    for engine in cur_cfg.get("engines", []):
        for phase in PHASES:
            base = _phase_digest(baseline, engine, phase)
            cur = _phase_digest(report, engine, phase)
            where = f"{engine}/{phase}"
            if base is None or cur is None:
                failures.append(f"{where}: missing from "
                                f"{'baseline' if base is None else 'report'}")
                continue
            for key, sign in _THROUGHPUT_CHECKS:
                b = _num(base, "throughput", key)
                c = _num(cur, "throughput", key)
                if b is None or c is None:
                    continue
                if sign == "-":
                    floor = b * (1.0 - max_regression)
                    if c < floor:
                        failures.append(
                            f"{where}: {key} regressed: {c:,.1f} < {floor:,.1f} "
                            f"(baseline {b:,.1f} - {max_regression:.0%})")
                else:
                    ceil = b * (1.0 + max_regression) + 0.01
                    if c > ceil:
                        failures.append(
                            f"{where}: {key} regressed: {c:.4f} > {ceil:.4f} "
                            f"(baseline {b:.4f} + {max_regression:.0%})")
            b = _num(base, "stalls", "stall_fraction")
            c = _num(cur, "stalls", "stall_fraction")
            if b is not None and c is not None:
                ceil = b * (1.0 + max_regression) + 0.01
                if c > ceil:
                    failures.append(
                        f"{where}: stall_fraction regressed: {c:.4f} > "
                        f"{ceil:.4f} (baseline {b:.4f} + {max_regression:.0%})")
            base_lat = base.get("latency")
            cur_lat = cur.get("latency")
            if isinstance(base_lat, Mapping) and isinstance(cur_lat, Mapping):
                for op in sorted(base_lat):
                    b = _num(base_lat, op, "p999")
                    c = _num(cur_lat, op, "p999")
                    if b is None or c is None:
                        continue
                    ceil = b * (1.0 + max_regression) + 1e-6
                    if c > ceil:
                        failures.append(
                            f"{where}: {op} p99.9 regressed: {c * 1e3:.4f}ms > "
                            f"{ceil * 1e3:.4f}ms (baseline {b * 1e3:.4f}ms "
                            f"+ {max_regression:.0%})")
    return failures


def format_report(report: Dict[str, object]) -> str:
    from repro.bench.report import format_table

    cfg = report.get("config") or {}
    rows: List[List[object]] = []
    for engine in cfg.get("engines", []):  # type: ignore[union-attr]
        for phase in PHASES:
            digest = _phase_digest(report, engine, phase)
            if digest is None:
                continue
            mean = _num(digest, "throughput", "mean_ops_s") or 0.0
            cv = _num(digest, "throughput", "cv") or 0.0
            worst = _num(digest, "throughput", "min_window_ops_s") or 0.0
            stall = _num(digest, "stalls", "stall_fraction") or 0.0
            lat = digest.get("latency")
            p999 = 0.0
            p999_op = "-"
            if isinstance(lat, Mapping):
                for op in sorted(lat):
                    v = _num(lat, op, "p999")
                    if v is not None and v > p999:
                        p999, p999_op = v, str(op)
            rows.append([engine, phase, f"{mean:,.0f}", f"{cv:.3f}",
                         f"{worst:,.0f}", f"{stall * 100:.1f}%",
                         f"{p999 * 1e3:.3f} ({p999_op})"])
    title = (f"stability: {cfg.get('records')} records load + "
             f"{cfg.get('ops')} YCSB-{cfg.get('workload')} ops, "
             f"seed {cfg.get('seed')} (sim time)")
    return format_table(
        ["engine", "phase", "mean ops/s", "cv", "worst win ops/s",
         "stall %", "p99.9 ms (op)"],
        rows, title=title)


def write_report(report: Dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


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
                   help="fail when stability regressed vs the committed baseline")
    p.add_argument("--max-regression", type=float, default=0.25,
                   help="tolerated relative regression (default 0.25)")
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
        failures = check_stability(report, path,
                                   max_regression=args.max_regression)
        for msg in failures:
            print(f"STABILITY REGRESSION: {msg}", file=sys.stderr)
        if failures:
            rc = 1
        else:
            print(f"\nstability check ok (within {args.max_regression:.0%} "
                  f"of {path})")
    if args.update:
        if args.quick:
            print("refusing to --update from a --quick run", file=sys.stderr)
            rc = rc or 2
        else:
            write_report(report, path)
            print(f"\nwrote {path}")
    return rc
