"""Experiment harness: one function per paper table/figure.

Each ``exp_*`` function runs the scaled workloads and returns structured
results; the ``benchmarks/`` suite wraps them with pytest-benchmark and
prints paper-style tables.  DB instances loaded for one experiment are cached
per (config, setup, dataset) within the process -- the paper itself loads the
1 TB database once and reuses it across runs (§6.1).
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import sys
from typing import Any, Dict, Iterator, Optional, Sequence, TextIO, Tuple, cast

from repro.bench.scale import (
    HDD_100G,
    HDD_1T,
    SSD_100G,
    ScaledSetup,
    make_db,
)
from repro.db.iamdb import IamDB
from repro.workloads import (
    YCSB_WORKLOADS,
    fill_random,
    fill_seq,
    hash_load,
    overwrite,
    read_seq,
    run_ycsb,
)
from repro.workloads.runner import WorkloadReport

#: Default op count for a YCSB run phase (the paper runs each for an hour;
#: we bound by operations on the simulated clock).
DEFAULT_RUN_OPS = 4000

_loaded_cache: Dict[Tuple, IamDB] = {}


@contextlib.contextmanager
def maybe_profile(enabled: bool, *, limit: int = 30,
                  stream: Optional[TextIO] = None,
                  ) -> Iterator[Optional[cProfile.Profile]]:
    """Optionally cProfile the enclosed block (``--profile`` CLI flag).

    When ``enabled`` is false this is a no-op context manager, so call sites
    can wrap unconditionally.  Stats go to ``stream`` (default stderr) so
    they never pollute result output on stdout.
    """
    if not enabled:
        yield None
        return
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
        out = stream if stream is not None else sys.stderr
        pstats.Stats(prof, stream=out).sort_stats("cumulative").print_stats(limit)


def clear_cache() -> None:
    _loaded_cache.clear()


def loaded_db(config: str, setup: ScaledSetup, *, quiesce: bool = False,
              **engine_kw: Any) -> Tuple[IamDB, WorkloadReport]:
    """A DB hash-loaded with the setup's dataset (cached per arguments)."""
    key = (config, setup.name, setup.n_records, quiesce,
           tuple(sorted(engine_kw.items())))
    if key not in _loaded_cache:
        db = make_db(config, setup, **engine_kw)
        report = hash_load(db, setup.n_records, quiesce=quiesce)
        db._load_report = report  # type: ignore[attr-defined] # stash for reuse
        _loaded_cache[key] = db
        return db, report
    db = _loaded_cache[key]
    return db, db._load_report  # type: ignore[attr-defined]


# ---------------------------------------------------------------- Table 3
def exp_table3(setup: ScaledSetup = HDD_100G, ks: Sequence[int] = (1, 2, 3),
               m: int = 3,
               ) -> Dict[int, Dict[int, float]]:
    """Per-level WA of IAM after a hash load, for fixed m and each k (§5.1.2)."""
    out: Dict[int, Dict[int, float]] = {}
    for k in ks:
        db = make_db("I-1t", setup, fixed_m=m, fixed_k=k)
        hash_load(db, setup.n_records, quiesce=False)
        out[k] = db.per_level_write_amplification()
        db.close()
    return out


# ---------------------------------------------------------------- Table 4
def exp_table4(setup: ScaledSetup = HDD_1T,
               configs: Sequence[str] = ("L", "R-1t", "R-4t", "A-1t",
                                         "A-4t", "I-1t", "I-4t"),
               ) -> Dict[str, Dict[int, float]]:
    """Per-level WA after hash-loading the 1 TB dataset for every config."""
    out: Dict[str, Dict[int, float]] = {}
    for config in configs:
        db = make_db(config, setup)
        hash_load(db, setup.n_records, quiesce=False)
        out[config] = db.per_level_write_amplification()
        db.close()
    return out


# ---------------------------------------------------------------- Figure 6
def exp_fig6(configs: Sequence[str] = ("L", "R-1t", "R-4t", "A-1t", "A-4t",
                                       "I-1t", "I-4t"),
             setups: Sequence[ScaledSetup] = (SSD_100G, HDD_100G, HDD_1T),
             ) -> Dict[str, Dict[str, WorkloadReport]]:
    """Hash-load throughput for each setup and config (normalized later)."""
    out: Dict[str, Dict[str, WorkloadReport]] = {}
    for setup in setups:
        rows: Dict[str, WorkloadReport] = {}
        for config in configs:
            db = make_db(config, setup)
            rows[config] = hash_load(db, setup.n_records, quiesce=False)
            db.close()
        out[setup.name] = rows
    return out


# ---------------------------------------------------------------- Figure 7
def exp_fig7(setup: ScaledSetup,
             workloads: Sequence[str] = ("A", "B", "C", "D", "E", "F", "G"),
             configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
             n_ops: int = DEFAULT_RUN_OPS,
             ) -> Dict[str, Dict[str, WorkloadReport]]:
    """YCSB A-G throughput on a loaded store (fresh load per config, §6.1)."""
    out: Dict[str, Dict[str, WorkloadReport]] = {w: {} for w in workloads}
    for config in configs:
        db, _ = loaded_db(config, setup)
        for w in workloads:
            ops = n_ops if YCSB_WORKLOADS[w].scan == 0 else max(200, n_ops // 10)
            if w == "G":
                ops = max(50, n_ops // 40)
            out[w][config] = run_ycsb(db, YCSB_WORKLOADS[w], ops, setup.n_records)
    return out


# ---------------------------------------------------------------- Figure 8
def _query_ops(workload: str, n_ops: int) -> int:
    """Op budget per query workload: scans are ~10x the work of reads."""
    if workload == "G":
        return max(50, n_ops // 40)
    if YCSB_WORKLOADS[workload].scan > 0:
        return max(200, n_ops // 10)
    return n_ops


def exp_fig8(setup: ScaledSetup = SSD_100G,
             workloads: Sequence[str] = ("B", "C", "D", "E", "G"),
             configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
             n_ops: int = DEFAULT_RUN_OPS,
             ) -> Dict[str, Dict[str, WorkloadReport]]:
    """Stable throughputs: run after the tuning phase completes (§6.4)."""
    out: Dict[str, Dict[str, WorkloadReport]] = {w: {} for w in workloads}
    for config in configs:
        db, _ = loaded_db(config, setup, quiesce=True)
        db.quiesce()  # no pending compaction debt: the stable state
        for w in workloads:
            out[w][config] = run_ycsb(db, YCSB_WORKLOADS[w],
                                      _query_ops(w, n_ops), setup.n_records)
    return out


def exp_fig8_stability(setup: ScaledSetup = SSD_100G,
                       workloads: Sequence[str] = ("B", "C", "D", "E", "G"),
                       configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
                       n_ops: int = DEFAULT_RUN_OPS,
                       ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 8 on the stability primitives: windowed throughput per phase.

    Same runs as :func:`exp_fig8`, but each (workload, config) cell is a
    windowed digest from a :class:`~repro.obs.stability.StabilityProbe`
    instead of one scalar: the duration-weighted ``mean_ops_s`` (equal to
    the old ``WorkloadReport.throughput`` by construction -- the benchmark
    asserts it), plus ``cv`` / ``min_window_ops_s`` / ``stall_fraction``,
    which quantify the *stability* the figure's caption talks about.
    """
    from repro.obs.stability import StabilityProbe

    out: Dict[str, Dict[str, Dict[str, float]]] = {w: {} for w in workloads}
    for config in configs:
        db, _ = loaded_db(config, setup, quiesce=True)
        db.quiesce()  # no pending compaction debt: the stable state
        probe = StabilityProbe(db)
        for w in workloads:
            mark = probe.mark()
            rep = run_ycsb(db, YCSB_WORKLOADS[w], _query_ops(w, n_ops),
                           setup.n_records)
            digest = probe.window_report(mark)
            tp = cast(Dict[str, float], digest["throughput"])
            stalls = cast(Dict[str, float], digest["stalls"])
            out[w][config] = {
                "ops_per_s": rep.throughput,
                "mean_ops_s": float(tp["mean_ops_s"]),
                "cv": float(tp["cv"]),
                "min_window_ops_s": float(tp["min_window_ops_s"]),
                "stall_fraction": float(stalls["stall_fraction"]),
            }
    return out


# ---------------------------------------------------------------- Table 5
def exp_table5_hist(setups: Sequence[ScaledSetup] = (SSD_100G, HDD_100G,
                                                     HDD_1T),
                    workloads: Sequence[str] = ("B", "C", "D", "E", "G"),
                    configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
                    n_ops: int = DEFAULT_RUN_OPS,
                    ) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Table 5 on the histogram primitives: tail latencies per phase.

    The query-intensive workloads on every setup and configuration; the
    tails come from the per-op-class log-linear histograms (windowed per
    workload with :meth:`~repro.obs.stability.StabilityProbe.latency_since`)
    rather than the per-op sample recorder.  Each cell is the full digest
    ``{"p50", "p99", "p999", "max", ...}`` plus ``p99_recorder``, the old
    sample-interpolated p99, so the benchmark can assert the two
    conventions agree to within the histogram's bucket resolution.
    """
    from repro.obs.stability import StabilityProbe

    out: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {
        w: {c: {} for c in configs} for w in workloads}
    for setup in setups:
        for config in configs:
            db, _ = loaded_db(config, setup)
            probe = StabilityProbe(db)
            for w in workloads:
                spec = YCSB_WORKLOADS[w]
                mark = probe.mark()
                rep = run_ycsb(db, spec, _query_ops(w, n_ops), setup.n_records)
                op_class = "scan" if spec.scan > 0 else "get"
                op_type = "scan" if spec.scan > 0 else "read"
                digest = dict(probe.latency_since(mark).get(op_class, {}))
                digest["p99_recorder"] = (
                    rep.latency.get(op_type, {}).get("p99", 0.0))
                out[w][config][setup.name] = digest
    return out


# ---------------------------------------------------------------- Figure 9
def exp_fig9(setups: Sequence[ScaledSetup] = (SSD_100G, HDD_100G),
             configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
             ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """db_bench fillseq + readseq throughputs (§6.6)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {"fillseq": {}, "readseq": {}}
    for setup in setups:
        fs: Dict[str, float] = {}
        rs: Dict[str, float] = {}
        for config in configs:
            db = make_db(config, setup)
            rep = fill_seq(db, setup.n_records, quiesce=False)
            fs[config] = rep.throughput
            scan_rep = read_seq(db)
            rs[config] = (scan_rep.ops / scan_rep.sim_seconds
                          if scan_rep.sim_seconds > 0 else 0.0)
            db.close()
        out["fillseq"][setup.name] = fs
        out["readseq"][setup.name] = rs
    return out


# ---------------------------------------------------------------- Figure 10
def exp_fig10(setup: ScaledSetup = SSD_100G,
              configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
              ) -> Dict[str, Dict[str, int]]:
    """Space usage after fillseq / hash-load / fillrandom / overwrite (§6.7)."""
    out: Dict[str, Dict[str, int]] = {}
    n = setup.n_records
    for test in ("fillseq", "hash-load", "fillrandom", "overwrite"):
        row: Dict[str, int] = {}
        for config in configs:
            db = make_db(config, setup)
            if test == "fillseq":
                fill_seq(db, n, quiesce=False)
            elif test == "hash-load":
                hash_load(db, n, quiesce=False)
            elif test == "fillrandom":
                fill_random(db, n, quiesce=False)
            else:
                # The paper overwrites for an hour; two full passes give the
                # outdated-record accumulation the same chance to show.
                hash_load(db, n, quiesce=False)
                overwrite(db, 2 * n, n, quiesce=False)
            row[config] = db.space_used_bytes()
            db.close()
        out[test] = row
    return out


# -------------------------------------------------------- §6.2 tail latency
def exp_load_latency(setup: ScaledSetup = SSD_100G,
                     configs: Sequence[str] = ("L", "R-1t", "A-1t", "I-1t"),
                     ) -> Dict[str, Dict[str, float]]:
    """Insert-latency tail during a hash load: p99 and max per config."""
    out: Dict[str, Dict[str, float]] = {}
    for config in configs:
        db = make_db(config, setup)
        hash_load(db, setup.n_records, quiesce=False)
        rec = db.metrics.latency["insert"]
        out[config] = {"p99": rec.p99(), "max": rec.max, "mean": rec.mean}
        db.close()
    return out


# ------------------------------------------------------------- §6.8 (FLSM)
def exp_flsm_seqwrite(setup: ScaledSetup = SSD_100G,
                      ) -> Dict[str, WorkloadReport]:
    """Sequential-load behaviour: FLSM rewrites, LSA/IAM/LSM move (§6.8)."""
    out: Dict[str, WorkloadReport] = {}
    for engine in ("flsm", "leveldb", "lsa", "iam"):
        db = IamDB(engine, storage_options=setup.storage_options())
        out[engine] = fill_seq(db, setup.n_records, quiesce=False)
        db.close()
    return out
