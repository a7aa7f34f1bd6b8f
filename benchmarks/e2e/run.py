#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 benchmarks/e2e/run.py --workload load_iam --seed 11 --seconds 7 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail: {...}``) carries the ``sim_digest``, the spread of the host
timings and every simulated fact.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import spec

#: Upper limit on timed repetitions when ``--seconds`` outlasts the work.
MAX_REPS = 60


@dataclass
class Rep:
    """One repetition: host timings plus the simulated facts it produced."""

    wall_s: float
    build_s: float
    facts: Dict[str, Any]
    #: dropped (set to None) once a later repetition supersedes it
    store: Any
    #: ledger totals of the timed region (observed repetitions only)
    layers: Any
    #: function calls made in the timed region (counted repetition only)
    calls: Optional[int]


def one_rep(cases: Any, case: Any, seed: int, store_or_base: Any, *,
            prebuilt: bool, drivers: Any, histograms: bool,
            ledger: Any = None, count_calls: bool = False) -> Rep:
    """Build the start state (untimed), run the timed region, quiesce."""
    gc.collect()
    t0 = perf_counter()
    store = store_or_base if prebuilt else case.fresh(store_or_base)
    build_s = perf_counter() - t0
    if histograms:
        cases.enable_histograms(store)
    before = cases.counters(store)
    if ledger is not None:
        ledger.reset()  # wrappers also fired while the store was built
    profiler = cProfile.Profile() if count_calls else None
    t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    report = case.drive(store, seed, drivers)
    if profiler is not None:
        profiler.disable()
    wall_s = perf_counter() - t0
    layers = ledger.totals() if ledger is not None else None
    calls = (sum(entry.callcount for entry in profiler.getstats())
             if profiler is not None else None)
    phase = cases.delta(before, cases.counters(store))
    store.quiesce()
    total = cases.delta(before, cases.counters(store))
    facts = cases.sim_facts(case, seed, report, store, phase, total)
    return Rep(wall_s, build_s, facts, store, layers, calls)


def spread_pct(values: List[float]) -> float:
    """Inter-quartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) * 100.0


def percentiles_us(store: Any) -> Dict[str, Optional[float]]:
    """Client-visible latency percentiles of the histogram repetition."""
    hist = store.metrics.hist_percentiles()

    def pick(op: str, q: str) -> Optional[float]:
        return hist[op][q] * 1e6 if op in hist else None

    return {
        "sim_write_p50_us": pick("put", "p50"),
        "sim_write_p999_us": pick("put", "p999"),
        "sim_read_p50_us": pick("get", "p50"),
        "sim_read_p99_us": pick("get", "p99"),
        "sim_scan_p50_us": pick("scan", "p50"),
        "sim_scan_p99_us": pick("scan", "p99"),
    }


def layer_metrics(rep: Rep, fastest_timed_s: float,
                  lat: Dict[str, Optional[float]]) -> Dict[str, float]:
    """The per-layer ledger of one observed repetition (0 where absent)."""
    facts, phase, ledger = rep.facts, rep.facts["phase"], rep.layers
    host, calls = ledger.host_s, ledger.calls

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    touches = phase["cache_hits"] + phase["cache_misses"]
    out = {f"workloads.{name}": value or 0.0 for name, value in lat.items()}
    out.update({
        "workloads.stall_fraction": facts["stall_fraction"],
        "workloads.read_amp": facts["read_amp"] or 0.0,
        "workloads.host_ops_per_s": facts["ops"] / fastest_timed_s,
        "workloads.host_s": host("workloads"),
        "workloads.ops": facts["ops"],
        "db.write_host_s": host("db.write"),
        "db.read_host_s": host("db.read"),
        "db.rotations": calls("engine.flush.submit"),
        "engine.write_gate_host_s": host("engine.write_gate"),
        "engine.write_gate_calls": calls("engine.write_gate"),
        "engine.flush_host_s": host("engine.flush"),
        "engine.flushes": calls("engine.flush.job"),
        "engine.compaction_host_s": host("engine.compaction"),
        "engine.compactions": calls("engine.compaction.job"),
        "engine.get_host_s": host("engine.get"),
        "engine.gate_delay_sim_s": phase["gate_delay_s"],
        "storage.pacing.host_s": host("storage.pacing"),
        "storage.pacing.admits": calls("storage.pacing.admit"),
        "storage.pacing.delay_sim_s": phase["pace_delay_s"],
        "storage.wal.host_s": host("storage.wal"),
        "storage.wal.appends": calls("storage.wal.append"),
        "storage.wal.bytes": phase["wal_bytes"],
        "storage.background.pump_host_s": host("storage.background.pump"),
        "storage.background.pumps": calls("storage.background.pump"),
        "storage.background.other_host_s": (host("storage.background.submit")
                                            + host("storage.background.wait")),
        "storage.background.jobs": (calls("engine.flush.job")
                                    + calls("engine.compaction.job")),
        "storage.background.wait_sim_s": phase["stall_s"] - phase.get("admission_s", 0.0),
        "memtable.host_s": host("memtable"),
        "memtable.adds": calls("memtable.add"),
        "memtable.gets": calls("memtable.get"),
        "table.build_host_s": host("table.build"),
        "table.sequences_built": calls("table.build.sequence"),
        "table.lookup_host_s": host("table.lookup"),
        "table.lookups": calls("table.lookup.table"),
        "table.merge_host_s": host("table.merge"),
        "table.merge_calls": calls("table.merge"),
        "table.merge_records_in": ledger.tally("table.merge_records_in"),
        "table.scan_host_s": host("table.scan"),
        "table.scan_rows": ledger.tally("table.scan_rows"),
        "filters.bloom.build_host_s": host("filters.bloom.build"),
        "filters.bloom.probe_host_s": host("filters.bloom.probe"),
        "filters.bloom.probes": phase["bloom_probes"],
        "filters.bloom.negative_share": share(phase["bloom_negatives"],
                                              phase["bloom_probes"]),
        "storage.pagecache.host_s": host("storage.pagecache"),
        "storage.pagecache.touches": touches,
        "storage.pagecache.hit_rate": share(phase["cache_hits"], touches),
        "storage.simdisk.host_s": host("storage.simdisk"),
        "storage.simdisk.calls": calls("storage.simdisk"),
        "storage.simdisk.bytes_written": phase["disk_bytes_written"],
        "storage.simdisk.bytes_read": phase["disk_bytes_read"],
        "storage.simdisk.busy_sim_s": ledger.tally("storage.simdisk.busy_sim_s"),
        "storage.runtime.host_s": host("storage.runtime"),
        "cluster.router.host_s": host("cluster.router"),
        "cluster.router.ops_routed": (calls("cluster.router")
                                      - calls("cluster.router.facade")),
        "cluster.router.admission_wait_sim_s": phase.get("admission_s", 0.0),
        "cluster.network.host_s": host("cluster.network"),
        "cluster.network.messages": phase.get("net_messages", 0),
        "cluster.network.bytes": phase.get("net_bytes", 0),
        "cluster.network.wait_sim_s": ledger.tally("cluster.network.wait_sim_s"),
        "cluster.replica.host_s": host("cluster.replica"),
        "cluster.replica.writes_replicated": calls("cluster.replica.write"),
        "objstore.store.host_s": host("objstore.store"),
        "objstore.store.requests": phase.get("store_requests", 0),
        "objstore.store.bytes_up": phase.get("store_bytes_up", 0),
        "objstore.store.bytes_down": phase.get("store_bytes_down", 0),
        "objstore.store.wait_sim_s": ledger.tally("objstore.store.wait_sim_s"),
        "objstore.tiering.host_s": host("objstore.tiering"),
        "objstore.manifestlog.host_s": host("objstore.manifestlog"),
        "objstore.manifestlog.cuts": calls("objstore.manifestlog.append_cut"),
        "metrics.host_s": host("metrics"),
        "metrics.calls": calls("metrics"),
        "trace_overhead_pct": (rep.wall_s / fastest_timed_s - 1.0) * 100.0,
        "unattributed_host_s": rep.wall_s - ledger.total_self_s(),
        "observed_wall_s": rep.wall_s,
    })
    return out


def measure(cases: Any, ledger_mod: Any, args: argparse.Namespace,
            import_s: float) -> Dict[str, Any]:
    case = cases.CASES[args.workload]
    seed = args.seed
    min_reps = spec.QUICK_REPS if args.quick else spec.MIN_REPS
    problems: List[str] = []

    # Set-up, several times over: the first store is the one repetitions
    # clone, the second is reloaded state for the last repetition (so the
    # digest check also proves clone == reload), the rest are timing only.
    setup_times: List[float] = []
    base = reloaded = None
    for round_no in range(spec.SETUP_ROUNDS):
        gc.collect()
        t0 = perf_counter()
        built = case.build(seed)
        setup_times.append(perf_counter() - t0)
        if round_no == 0:
            base = built
        elif round_no == 1:
            reloaded = built
        del built

    # Timed repetitions: nothing wrapped, histograms off.
    timed_budget = args.seconds if args.trace == 0 else args.seconds / 2.0
    started = perf_counter()
    timed: List[Rep] = []
    while len(timed) < min_reps or (perf_counter() - started < timed_budget
                                    and len(timed) < MAX_REPS):
        rep = one_rep(cases, case, seed, base, prebuilt=False,
                      drivers=cases.PLAIN_DRIVERS, histograms=False)
        rep.store = None
        timed.append(rep)
    walls = [rep.wall_s for rep in timed]
    fastest = min(walls)
    ops = timed[0].facts["ops"]

    # Last repetition(s): histograms on and, with --trace 0, every function
    # call counted; with --trace 1, every layer wrapped.  Simulated facts
    # must not notice any of it.
    final: List[Rep] = []
    if args.trace == 0:
        final.append(one_rep(cases, case, seed,
                             reloaded if reloaded is not None else base,
                             prebuilt=reloaded is not None,
                             drivers=cases.PLAIN_DRIVERS, histograms=True,
                             count_calls=True))
    else:
        while not final or (perf_counter() - started < args.seconds
                            and len(final) < MAX_REPS):
            ledger = ledger_mod.Ledger()
            handle = ledger_mod.install(ledger)
            try:
                drivers = cases.Drivers(
                    ledger.wrap(cases.hash_load, "workloads.driver"),
                    ledger.wrap(cases.run_ycsb, "workloads.driver"))
                first = not final and reloaded is not None
                rep = one_rep(cases, case, seed, reloaded if first else base,
                              prebuilt=first, drivers=drivers, histograms=True,
                              ledger=ledger)
            finally:
                handle.uninstall()
            reloaded = None
            if final:
                final[-1].store = None
            final.append(rep)

    # Determinism: every repetition of this run saw the same simulation.
    want = timed[0].facts
    sim_digest = cases.digest(want)
    for label, rep in ([(f"timed repetition {i}", r) for i, r in enumerate(timed)]
                       + [(f"final repetition {i}", r) for i, r in enumerate(final)]):
        if cases.digest(rep.facts) != sim_digest:
            problems.append(f"{label} diverged from timed repetition 0 at "
                            f"{cases.first_difference(want, rep.facts)}")
            break

    # Audit the state the last repetition left behind (outside all timing).
    last = final[-1]
    latency_us = percentiles_us(last.store)
    checks, mismatches, messages = cases.audit(case, seed, last.store,
                                               last.facts["inserted"])
    problems.extend(messages)
    attempted = ops * (len(timed) + len(final)) + checks
    failed = mismatches

    facts = dict(want)
    facts.pop("phase")
    detail: Dict[str, Any] = {
        "workload": case.name, "seed": seed, "trace": args.trace,
        "size_factor": cases.scale_factor(),
        "sim_digest": sim_digest,
        "timed_repetitions": len(timed),
        "fastest_wall_s": fastest,
        "host_ops_per_s": ops / fastest,
        "median_wall_s": statistics.median(walls),
        "host_spread_pct": spread_pct(walls),
        "setup_parts_s": {"import": import_s, "setups": setup_times,
                          "state_builds": [rep.build_s for rep in timed]},
        "failed_ops_share": failed / attempted,
        "sim": facts,
        "latency_us": latency_us,
        "problems": problems,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times)
                        + statistics.median(rep.build_s for rep in timed)),
            "host_ops_per_s": ops / fastest,
            "host_calls_per_op": last.calls / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_ops_per_s": want["sim_ops_per_s"],
            "write_amp": want["write_amp"],
            "space_amp": want["space_amp"],
            "sim_io_bytes_per_op": want["sim_io_bytes_per_op"],
        }
        declared = spec.REPORTED
    else:
        metrics = layer_metrics(min(final, key=lambda rep: rep.wall_s),
                                fastest, latency_us)
        detail["observed_repetitions"] = len(final)
        declared = spec.PER_LAYER
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in declared},
        "detail": detail,
        "declared": declared,
    }


def print_table(result: Dict[str, Any]) -> None:
    detail = result["detail"]
    print(f"# {detail['workload']}  seed={detail['seed']}  "
          f"size_factor={detail['size_factor']}  sim_digest={detail['sim_digest']}")
    print(f"# {detail['timed_repetitions']} timed repetitions: fastest "
          f"{detail['fastest_wall_s']:.4f} s, median {detail['median_wall_s']:.4f} s, "
          f"host_spread_pct {detail['host_spread_pct']:.1f}")
    print(f"{'metric':40s} {'value':>16s} {'unit':6s} {'clock':5s} "
          f"{'better':7s} {'bound':>6s}  moves")
    for m in result["declared"]:
        value = result["metrics"][m.name]["value"]
        bound = "" if m.bound is None else f"{m.bound:.0%}"
        print(f"{m.name:40s} {value:16.6g} {m.unit:6s} {m.clock:5s} "
              f"{m.better:7s} {bound:>6s}  {m.moves}")
    for name, value in detail["latency_us"].items():
        print(f"{name:40s} {'null' if value is None else format(value, '16.6g'):>16s} us")
    print(f"{'stall_fraction':40s} {detail['sim']['stall_fraction']:16.6g} ratio")
    read_amp = detail["sim"]["read_amp"]
    print(f"{'read_amp':40s} {'null' if read_amp is None else format(read_amp, '16.6g'):>16s} x")
    print(f"{'failed_ops_share':40s} {detail['failed_ops_share']:16.6g} ratio")
    for problem in detail["problems"]:
        print(f"PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="keep adding timed repetitions for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size-factor", type=float, default=spec.SIZE_FACTOR,
                        help="REPRO_SCALE for this run (1.0 = the paper-scale "
                             "sizes of BENCH_perf.json)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes: small, 2 repetitions")
    args = parser.parse_args(argv)
    if args.quick:
        args.size_factor = spec.QUICK_SIZE_FACTOR
        args.seconds = 0.0

    src = Path(__file__).resolve().parents[2] / "src"
    if not (src / "repro").is_dir():
        print(f"benchmarks/e2e: the program under test is missing ({src}/repro)",
              file=sys.stderr)
        return 2
    os.environ["REPRO_SCALE"] = repr(args.size_factor)
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import cases
    import ledger
    import_s = perf_counter() - t0

    result = measure(cases, ledger, args, import_s)
    print_table(result)
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    # The driver's line: with --trace 0 only the metrics it bounds.
    wanted = spec.END_TO_END_NAMES if args.trace == 0 else spec.PER_LAYER_NAMES
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in wanted}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
