"""Microbenchmark engine for the simulator's hot-path kernels.

Times each optimized kernel against its frozen seed counterpart from
:mod:`repro.bench.reference` (memtable insert, k-way merge, page-cache block
accounting, workload key generation), the sequence and Bloom-filter builds,
plus one end-to-end scaled hash load, and emits the ``BENCH_perf.json`` perf
trajectory:

* ``python -m repro perf`` runs the suite, prints the table and (with
  ``--update``) rewrites ``BENCH_perf.json``;
* ``benchmarks/perf/perf_*.py`` are standalone entry points per kernel;
* ``--check`` (used by CI) fails when the end-to-end run regresses more than
  ``max_regression`` against the committed baseline.

Wall-clock numbers are machine-dependent: ``speedups`` (optimized vs
reference *on the same machine, same run*) are the stable signal, absolute
``ops_per_s`` the trajectory.  ``seed_baseline`` pins the pre-optimization
end-to-end measurement this PR started from.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.db.iamdb import IamDB
from repro.check.effects.registry import effects

#: Where the committed perf trajectory lives (repo root).
BENCH_PERF_FILENAME = "BENCH_perf.json"

#: Pre-optimization numbers measured on the seed tree (same machine that
#: produced the first committed BENCH_perf.json); kept so every later report
#: still shows the before/after of the kernel rewrite.
SEED_BASELINE = {
    "end_to_end_hash_load": {"config": "I-1t", "setup": "SSD-100G",
                             "records": 91980, "seconds": 13.65,
                             "ops_per_s": 6738.0},
    "memtable_add_200k_ops_per_s": 64076.0,
    "merge_2way_200k_recs_per_s": 1108438.0,
    "pagecache_insert_range_blk_per_s": 1165218.0,
    "permute64_scalar_keys_per_s": 826641.0,
}


@effects("HOST_TIME")
def _time(fn: Callable[[], object], *, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall seconds of one ``fn()`` call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()  # repro: noqa-REP001 (host benchmark timer)
        fn()
        dt = time.perf_counter() - t0  # repro: noqa-REP001 (host benchmark timer)
        if dt < best:
            best = dt
    return best


def _entry(n_ops: int, seconds: float) -> Dict[str, float]:
    return {"n_ops": n_ops, "seconds": round(seconds, 6),
            "ops_per_s": round(n_ops / seconds, 1) if seconds > 0 else 0.0}


def _verify(cond: bool, msg: str) -> None:
    """Inline equivalence gate for the read benches (survives python -O)."""
    if not cond:
        from repro.common.errors import InvariantViolation

        raise InvariantViolation(msg)


# ------------------------------------------------------------------ memtable
def bench_memtable(quick: bool = False) -> Dict[str, Dict[str, float]]:
    from repro.bench.reference import ReferenceMemtable
    from repro.common.records import make_put
    from repro.memtable import Memtable

    # The reference is O(n^2) in element shifts, so the measured gap grows
    # with n; 250k keys is where the real flush-sized loads of a long run sit.
    n = 30_000 if quick else 250_000
    keys = list(range(n))
    random.Random(7).shuffle(keys)
    recs = [make_put(k, i + 1, 256) for i, k in enumerate(keys)]

    def load_reference() -> list:
        mt = ReferenceMemtable(16)
        for r in recs:
            mt.add(r)
        return mt.sorted_records()

    def load_add() -> list:
        mt = Memtable(16)
        for r in recs:
            mt.add(r)
        return mt.sorted_records()

    out = {
        "memtable_bulk_load_reference": _entry(n, _time(load_reference, repeat=1)),
        "memtable_bulk_load_add": _entry(n, _time(load_add)),
    }
    return out


# --------------------------------------------------------------------- merge
def bench_merge(quick: bool = False) -> Dict[str, Dict[str, float]]:
    from repro.bench.reference import reference_merge_runs
    from repro.common.records import sort_key
    from repro.table.merge import merge_runs
    from repro.table.run import Run

    n = 50_000 if quick else 200_000
    rng = random.Random(3)
    recs = [(rng.randrange(n // 2), s + 1,
             0 if rng.random() > 0.1 else 1, 256) for s in range(n)]
    half = n // 2
    runs2 = [sorted(recs[:half], key=sort_key), sorted(recs[half:], key=sort_key)]
    chunk = n // 5
    runs5 = [sorted(recs[i * chunk:(i + 1) * chunk], key=sort_key)
             for i in range(5)]
    snaps = [n // 3, n // 2]
    # The kernel's inputs are columnar runs (what sequences store); building
    # them is the memtable's job, not part of a merge.
    cols2 = [Run.from_records(r) for r in runs2]
    cols5 = [Run.from_records(r) for r in runs5]

    out = {
        "merge_2way_reference": _entry(n, _time(lambda: reference_merge_runs(runs2))),
        "merge_2way": _entry(n, _time(lambda: merge_runs(cols2))),
        "merge_5way_reference": _entry(n, _time(lambda: reference_merge_runs(runs5))),
        "merge_5way": _entry(n, _time(lambda: merge_runs(cols5))),
        "merge_2way_snapshots_reference": _entry(
            n, _time(lambda: reference_merge_runs(runs2, snapshots=snaps))),
        "merge_2way_snapshots": _entry(
            n, _time(lambda: merge_runs(cols2, snapshots=snaps))),
    }
    return out


# --------------------------------------------------------------------- table
def bench_table(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Sequence and Bloom-filter builds at the store's run sizes.

    One hashed run is cut into sequences of ``n`` records, as a flush does:
    the Bloom pair is computed once for the run and every build takes its
    slice.  ``n_ops`` counts filters / sequences built.
    """
    from repro.common.records import make_put
    from repro.filters.bloom import BloomFilter, hash_columns
    from repro.table.block import Sequence
    from repro.table.run import Run
    from repro.workloads.distributions import permute64_many

    total = 20_000 if quick else 100_000
    run = Run.from_records([make_put(key, seq, 256) for seq, key in
                            enumerate(sorted(permute64_many(range(total))), 1)])

    def build_filters(n: int) -> None:
        keys = run.keys
        hashes = hash_columns(keys)
        for i in range(0, total, n):
            BloomFilter.build(keys[i:i + n], 14, hashes[:, i:i + n])

    def build_sequences(n: int) -> None:
        run.hashes = None
        run.ensure_hashes()
        for i in range(0, total, n):
            Sequence(run.slice(i, i + n), key_size=16, block_size=1024,
                     bloom_bits_per_key=14, first_block=0)

    return {
        "bloom_build_25": _entry(total // 25, _time(lambda: build_filters(25))),
        "bloom_build_500": _entry(total // 500, _time(lambda: build_filters(500))),
        "sequence_build": _entry(total // 25, _time(lambda: build_sequences(25))),
    }


# ----------------------------------------------------------------- pagecache
def bench_pagecache(quick: bool = False) -> Dict[str, Dict[str, float]]:
    from repro.bench.reference import ReferencePageCache
    from repro.storage.pagecache import PageCache

    reps = 15 if quick else 50
    files, blocks = 20, 500
    n = reps * files * blocks
    block_size = 1024
    fit_bytes = files * blocks * block_size     # everything fits
    tight_bytes = 4096 * block_size             # constant eviction pressure

    def drive_cold(cache_cls: type) -> None:
        # Fresh cache per rep: every insert_range is a cold whole-run
        # admission (the bg_write_run pattern).
        for _ in range(reps):
            cache = cache_cls(fit_bytes, block_size)
            for f in range(files):
                cache.insert_range(f, 0, blocks)

    @effects("HOST_TIME")
    def drive_touch(make_touch: Tuple[type, Callable[..., object]],
                    ) -> float:
        # Fully resident cache: the all-hits query read path.
        cache_cls, touch_all = make_touch
        cache = cache_cls(fit_bytes, block_size)
        for f in range(files):
            cache.insert_range(f, 0, blocks)
        t0 = time.perf_counter()  # repro: noqa-REP001 (host benchmark timer)
        for _ in range(reps):
            for f in range(files):
                touch_all(cache, f)
        return time.perf_counter() - t0  # repro: noqa-REP001 (host benchmark timer)

    def ref_touch_all(cache: Any, f: int) -> None:
        touch = cache.touch
        for b in range(blocks):
            touch(f, b)

    def drive_evicting(cache_cls: type) -> None:
        # 10k distinct blocks through a 4096-block cache: re-admission churn.
        cache = cache_cls(tight_bytes, block_size)
        for _ in range(reps):
            for f in range(files):
                cache.insert_range(f, 0, blocks)

    out = {
        "pagecache_cold_admission_reference": _entry(
            n, _time(lambda: drive_cold(ReferencePageCache), repeat=2)),
        "pagecache_cold_admission": _entry(
            n, _time(lambda: drive_cold(PageCache), repeat=2)),
        "pagecache_touch_reference": _entry(
            n, drive_touch((ReferencePageCache, ref_touch_all))),
        "pagecache_touch_range": _entry(
            n, drive_touch((PageCache,
                            lambda c, f: c.touch_range(f, 0, blocks)))),
        "pagecache_insert_evicting_reference": _entry(
            n, _time(lambda: drive_evicting(ReferencePageCache), repeat=2)),
        "pagecache_insert_evicting": _entry(
            n, _time(lambda: drive_evicting(PageCache), repeat=2)),
    }
    return out


# ----------------------------------------------------------------- workloads
def bench_workloads(quick: bool = False) -> Dict[str, Dict[str, float]]:
    from repro.workloads.distributions import (
        ScrambledZipfian,
        ZipfianGenerator,
        permute64,
        permute64_many,
    )

    n = 100_000 if quick else 400_000
    out = {
        "keygen_permute64_scalar": _entry(
            n, _time(lambda: [permute64(i) for i in range(n)], repeat=2)),
        "keygen_permute64_many": _entry(
            n, _time(lambda: permute64_many(range(n)))),
    }
    zn = 1_000_000
    k = n // 2
    z_scalar = ZipfianGenerator(zn, random.Random(5))
    z_vec = ZipfianGenerator(zn, random.Random(5))
    out["keygen_zipfian_scalar"] = _entry(
        k, _time(lambda: [z_scalar.sample() for _ in range(k)], repeat=1))
    out["keygen_zipfian_many"] = _entry(
        k, _time(lambda: z_vec.sample_many(k), repeat=1))
    s_scalar = ScrambledZipfian(zn, random.Random(6))
    s_vec = ScrambledZipfian(zn, random.Random(6))
    out["keygen_scrambled_scalar"] = _entry(
        k, _time(lambda: [s_scalar.sample() for _ in range(k)], repeat=1))
    out["keygen_scrambled_many"] = _entry(
        k, _time(lambda: s_vec.sample_many(k), repeat=1))
    return out


# --------------------------------------------------------------------- reads
def bench_reads(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """The scan planner vs its frozen scalar reference.

    Builds *two* identically-seeded stores, proves the planned scan returns
    the same rows at the same simulated clock as the scalar reference (a
    cheap inline echo of the hypothesis equivalence suite), then times both
    -- so the speedup is pure host-CPU savings on a workload with pinned
    simulated behaviour.  The ``read_scan`` ratio is reported, not gated:
    its denominator runs the *live* ``engine.scan_cursors`` streams, so
    speeding those up lowers the ratio.  The equivalence suites guard
    correctness and the repo benchmark (``benchmarks/e2e``) guards cost.
    Point reads have one path (``IamDB.get``) and so nothing to compare;
    the repo benchmark's ``ycsb_c_iam`` carries their cost.
    """
    from repro.bench.reference import reference_scan
    from repro.bench.scale import SSD_100G, make_db

    # A leveled store over a compact key space (the composite-sort fast
    # path), five versions per key with a tombstone tail -- the shape where
    # the scalar merge burns a Python step on every superseded version
    # while the planner handles them as array ops.
    s_records = 6_000 if quick else 12_000
    n_scans = 6 if quick else 8
    scan_limit = 3_000 if quick else 6_000

    def build_scan_db() -> "IamDB":
        db = make_db("L", SSD_100G)
        load_rng = random.Random(123)
        order = list(range(s_records))
        load_rng.shuffle(order)
        for k in order:
            db.put(k, 100 + (k % 64))
        for _ in range(4 * s_records):
            k = load_rng.randrange(s_records)
            if load_rng.random() < 0.12:
                db.delete(k)
            else:
                db.put(k, 100)
        db.quiesce()
        return db

    db_ref = build_scan_db()
    db_opt = build_scan_db()
    # Start low enough that every scan runs its full limit; exhausted scans
    # measure fixed costs, not the per-record merge the kernel targets.
    rng = random.Random(17)
    starts = [rng.randrange(s_records // 3) for _ in range(n_scans)]
    v = reference_scan(db_ref, starts[0], None, limit=scan_limit)
    _verify(v == db_opt.scan(starts[0], None, limit=scan_limit),
            "batched scan diverged from the scalar reference")
    _verify(db_ref.runtime.clock.now == db_opt.runtime.clock.now,  # repro: noqa-REP004 (exact sim-clock equivalence gate)
            "batched scan moved the simulated clock differently than the reference")

    def drive_scans(fn: Callable[..., object]) -> None:
        for start in starts:
            fn(start, None, limit=scan_limit)

    scan_rows = n_scans * scan_limit
    out = {
        "read_scan_reference": _entry(scan_rows, _time(lambda: drive_scans(
            lambda lo, hi, limit: reference_scan(db_ref, lo, hi, limit=limit)))),
        "read_scan_batched": _entry(scan_rows, _time(lambda: drive_scans(
            lambda lo, hi, limit: db_opt.scan(lo, hi, limit=limit)))),
    }
    _verify(db_ref.runtime.clock.now == db_opt.runtime.clock.now,  # repro: noqa-REP004 (exact sim-clock equivalence gate)
            "timed scan runs ended at different simulated clocks")
    db_ref.close()
    db_opt.close()
    return out


# --------------------------------------------------------------- end to end
@effects("CLOCK_ADVANCE", "DISK_CHARGE", "HOST_TIME", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
def bench_end_to_end(quick: bool = False, *, config: str = "I-1t",
                     records: Optional[int] = None,
                     trace_path: Optional[str] = None) -> Dict[str, Dict[str, float]]:
    """Wall-clock of one scaled hash load (the exp_fig6-style inner loop).

    ``trace_path`` additionally runs the sim-time tracer on the load and
    writes a Chrome trace there -- tracing is observation-only, but note the
    wall-clock then includes the tracer's (small) bookkeeping overhead, so
    traced numbers are not comparable to the committed baseline.
    """
    from repro.bench.scale import SSD_100G, make_db
    from repro.workloads.dbbench import hash_load

    n = records if records is not None else SSD_100G.n_records
    if quick:
        n = max(1000, n // 4)
    db = make_db(config, SSD_100G)
    session = None
    if trace_path is not None:
        from repro.obs import attach_trace
        session = attach_trace(db)
    t0 = time.perf_counter()  # repro: noqa-REP001 (host benchmark timer)
    rep = hash_load(db, n, quiesce=False)
    seconds = time.perf_counter() - t0  # repro: noqa-REP001 (host benchmark timer)
    entry = _entry(n, seconds)
    entry.update({"config": config, "setup": "SSD-100G",
                  "write_amplification": round(rep.write_amplification, 6),
                  "sim_seconds": round(rep.sim_seconds, 6)})
    if session is not None and trace_path is not None:
        session.finish()
        session.write_chrome(trace_path)
        entry["traced"] = 1.0
    db.close()
    return {"end_to_end_hash_load": entry}


SUITES: Dict[str, Callable[[bool], Dict[str, Dict[str, float]]]] = {
    "memtable": bench_memtable,
    "merge": bench_merge,
    "table": bench_table,
    "pagecache": bench_pagecache,
    "workloads": bench_workloads,
    "reads": bench_reads,
    "end_to_end": bench_end_to_end,
}

#: (speedup name, numerator kernel, denominator kernel) pairs derived per run.
_SPEEDUP_PAIRS = (
    ("memtable_per_record_add", "memtable_bulk_load_add", "memtable_bulk_load_reference"),
    ("merge_2way", "merge_2way", "merge_2way_reference"),
    ("merge_5way", "merge_5way", "merge_5way_reference"),
    ("merge_2way_snapshots", "merge_2way_snapshots", "merge_2way_snapshots_reference"),
    ("pagecache_cold_admission", "pagecache_cold_admission", "pagecache_cold_admission_reference"),
    ("pagecache_touch", "pagecache_touch_range", "pagecache_touch_reference"),
    ("pagecache_insert_evicting", "pagecache_insert_evicting", "pagecache_insert_evicting_reference"),
    ("keygen_permute64", "keygen_permute64_many", "keygen_permute64_scalar"),
    ("keygen_zipfian", "keygen_zipfian_many", "keygen_zipfian_scalar"),
    ("keygen_scrambled", "keygen_scrambled_many", "keygen_scrambled_scalar"),
    ("read_scan", "read_scan_batched", "read_scan_reference"),
)


def run_suite(which: Optional[Sequence[str]] = None, *,
              quick: bool = False,
              trace_path: Optional[str] = None) -> Dict[str, object]:
    """Run the selected suites; returns the full BENCH_perf report dict."""
    names = list(which) if which else list(SUITES)
    kernels: Dict[str, Dict[str, float]] = {}
    for name in names:
        if name == "end_to_end" and trace_path is not None:
            kernels.update(bench_end_to_end(quick, trace_path=trace_path))
        else:
            kernels.update(SUITES[name](quick))

    speedups: Dict[str, float] = {}
    for label, new, ref in _SPEEDUP_PAIRS:
        if new in kernels and ref in kernels and kernels[ref]["ops_per_s"]:
            speedups[label] = round(
                kernels[new]["ops_per_s"] / kernels[ref]["ops_per_s"], 2)
    e2e = kernels.get("end_to_end_hash_load")
    seed_e2e = SEED_BASELINE["end_to_end_hash_load"]
    if e2e and e2e["n_ops"] == seed_e2e["records"]:
        speedups["end_to_end_vs_seed"] = round(
            e2e["ops_per_s"] / seed_e2e["ops_per_s"], 2)
    return {
        "schema": 1,
        "generated_by": "python -m repro perf",
        "python": platform.python_version(),
        "quick": quick,
        "kernels": kernels,
        "speedups": speedups,
        "seed_baseline": SEED_BASELINE,
    }


def format_report(report: Dict[str, object]) -> str:
    from repro.bench.report import format_table

    rows: List[List[object]] = []
    for name, entry in sorted(report["kernels"].items()):  # type: ignore[union-attr]
        rows.append([name, entry["n_ops"], round(entry["seconds"], 4),
                     f"{entry['ops_per_s']:,.0f}"])
    text = format_table(["kernel", "ops", "seconds", "ops/s"], rows,
                        title="hot-path microbenchmarks"
                              + (" (quick)" if report.get("quick") else ""))
    speedups = report.get("speedups") or {}
    if speedups:
        lines = [f"  {k:>28}: {v:.2f}x" for k, v in sorted(speedups.items())]
        text += "\n\nspeedups (optimized vs reference, this machine):\n"
        text += "\n".join(lines)
    return text


def write_report(report: Dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def check_regression(report: Dict[str, object], baseline_path: Path, *,
                     max_regression: float = 0.30) -> List[str]:
    """Compare the fresh end-to-end run against the committed baseline.

    Returns a list of failure messages (empty = pass).  Only same-size runs
    are comparable; a size mismatch is reported as a failure so CI cannot
    silently skip the check.
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}"]
    baseline = json.loads(baseline_path.read_text())
    base = (baseline.get("kernels") or {}).get("end_to_end_hash_load")
    cur = (report.get("kernels") or {}).get("end_to_end_hash_load")
    if base is None or cur is None:
        return ["baseline or current report lacks end_to_end_hash_load"]
    if base["n_ops"] != cur["n_ops"]:
        return [f"baseline ran {base['n_ops']} records, this run {cur['n_ops']}; "
                "regenerate the baseline with the same scale"]
    floor = base["ops_per_s"] * (1.0 - max_regression)
    failures = []
    if cur["ops_per_s"] < floor:
        failures.append(
            f"end_to_end_hash_load regressed: {cur['ops_per_s']:,.0f} ops/s "
            f"< {floor:,.0f} (baseline {base['ops_per_s']:,.0f} "
            f"- {max_regression:.0%} tolerance)")
    wa_base = base.get("write_amplification")
    wa_cur = cur.get("write_amplification")
    if wa_base is not None and wa_cur is not None and wa_base != wa_cur:
        failures.append(
            f"end-to-end write amplification changed: {wa_cur} != {wa_base} "
            "(hot-path rewrites must preserve record-level semantics)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point shared by ``python -m repro perf`` and benchmarks/perf."""
    import argparse

    p = argparse.ArgumentParser(
        prog="repro perf", description="hot-path microbenchmark suite")
    p.add_argument("--suite", action="append", choices=list(SUITES),
                   help="run only this suite (repeatable; default: all)")
    p.add_argument("--quick", action="store_true",
                   help="smaller problem sizes (not comparable to baselines)")
    p.add_argument("--update", action="store_true",
                   help=f"write {BENCH_PERF_FILENAME}")
    p.add_argument("--check", action="store_true",
                   help="fail if end-to-end regressed vs the committed baseline")
    p.add_argument("--max-regression", type=float, default=0.30,
                   help="tolerated end-to-end throughput drop (default 0.30)")
    p.add_argument("--out", type=Path, default=None,
                   help=f"baseline path (default ./{BENCH_PERF_FILENAME})")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the suite and print the top entries")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="trace the end-to-end load; write a Chrome trace "
                        "(adds tracer overhead -- don't combine with --update)")
    args = p.parse_args(argv)

    from repro.bench.harness import maybe_profile

    with maybe_profile(args.profile):
        report = run_suite(args.suite, quick=args.quick,
                           trace_path=args.trace)
    if args.trace:
        print(f"wrote Chrome trace of the end-to-end load to {args.trace}")
    print(format_report(report))
    path = args.out if args.out is not None else Path(BENCH_PERF_FILENAME)
    rc = 0
    if args.check:
        failures = check_regression(report, path,
                                    max_regression=args.max_regression)
        for msg in failures:
            print(f"PERF REGRESSION: {msg}", file=sys.stderr)
        if failures:
            rc = 1
        else:
            print(f"\nperf check ok (within {args.max_regression:.0%} of "
                  f"{path})")
    if args.update:
        if args.quick:
            print("refusing to --update from a --quick run", file=sys.stderr)
            rc = rc or 2
        else:
            write_report(report, path)
            print(f"\nwrote {path}")
    return rc
