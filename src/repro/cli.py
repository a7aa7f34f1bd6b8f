"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``load``         hash-load records into an engine and report WA/throughput
``fillseq``      sequential load
``ycsb``         run a YCSB workload (A-G) on a freshly loaded store
``cluster``      run a workload on a sharded, replicated multi-node cluster
``objstore``     cluster run against the shared object-store tier
                 (manifest-log mirroring, follower bootstrap, time travel)
``trace``        run a workload with sim-time tracing; export + summarize
``compare``      run one load across several engines side by side
``experiment``   regenerate a paper table/figure via the bench harness
``perf``         run the hot-path microbenchmarks (BENCH_perf.json)
``stability``    run the stability suite (BENCH_stability.json)
``check``        determinism lint + typing gate + sanitizer smoke run
``faults``       crash-point matrix: crash everywhere, assert durability
``info``         print the scaled configuration in effect

``load``, ``ycsb`` and ``experiment`` accept ``--sanitize``: every DB built
for the run gets the runtime sanitizer attached (observation-only; identical
results, fails fast on a structural invariant violation).  ``load`` and
``ycsb`` also accept ``--trace PATH``: the run is traced (observation-only)
and the trace written to PATH -- Chrome trace-event JSON by default, JSONL
when PATH ends in ``.jsonl`` -- and ``--faults SPEC``: deterministic
transient device faults are injected per the spec (e.g.
``rate=0.01,seed=7`` or ``rate=0.5,time=0.001:0.002``; see
``repro.faults.plan.parse_fault_spec``).

Examples
--------

::

    python -m repro load --engine iam --records 50000 --device hdd
    python -m repro ycsb --workload E --engine lsa --ops 2000
    python -m repro trace ycsb-a --engine leveldb --records 20000
    python -m repro compare --records 30000 --engines L R-1t A-1t I-1t
    python -m repro experiment table3
    python -m repro check --list-rules
    python -m repro load --records 20000 --faults rate=0.01,seed=7
    python -m repro faults --ops 300 --per-site 1 --out fault-matrix.json
    python -m repro cluster ycsb --shards 4 --replicas 2 --workload A
    python -m repro cluster ycsb --shards 4 --replicas 2 \
        --faults kill=1:2000,rate=0.001,seed=7 --trace cluster.json --validate
    python -m repro objstore load --records 20000 --store-latency 2000 \
        --bootstrap-follower 0 --as-of 4
    python -m repro objstore ycsb --workload B --offload-compaction \
        --faults kill=0:2500 --trace objstore.json --validate
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import harness
from repro.bench.report import format_table, normalize_to
from repro.bench.scale import (
    ENGINE_CONFIGS,
    HDD_100G,
    HDD_1T,
    KEY_SIZE,
    SSD_100G,
    make_db,
)
from repro.common.options import HDD, IamOptions, LsaOptions, LsmOptions, SSD, StorageOptions
from repro.db.iamdb import IamDB
from repro.workloads import YCSB_WORKLOADS, fill_seq, hash_load, run_ycsb

ENGINES = ("iam", "lsa", "leveldb", "rocksdb", "flsm", "lsmtrie")
SETUPS = {"ssd-100g": SSD_100G, "hdd-100g": HDD_100G, "hdd-1t": HDD_1T}


def _engine_options(engine: str, threads: int):
    kw = dict(key_size=KEY_SIZE, background_threads=threads)
    if engine in ("iam", "lsa"):
        return IamOptions(**kw)
    if engine == "lsmtrie":
        return LsaOptions(**kw)
    if engine == "rocksdb":
        return LsmOptions.rocksdb(**kw)
    return LsmOptions.leveldb(**kw)


def _build_db(engine: str, device: str, memory_mb: float,
              threads: int) -> IamDB:
    dev = HDD if device == "hdd" else SSD
    storage = StorageOptions(device=dev, page_cache_bytes=int(memory_mb * 1e6))
    opts = _engine_options(engine, threads)
    return IamDB(engine, engine_options=opts, storage_options=storage)


def _report_rows(rep, db) -> list:
    ins = db.metrics.latency.get("insert")
    return [
        round(rep.write_amplification, 3),
        round(rep.throughput),
        f"{ins.p99() * 1e6:.1f}us" if ins and ins.count else "-",
        f"{ins.max * 1e3:.2f}ms" if ins and ins.count else "-",
        round(rep.space_used_bytes / 1e6, 2),
    ]


def _apply_sanitize(args) -> None:
    """Install process-wide sanitizer defaults for ``--sanitize`` runs."""
    if getattr(args, "sanitize", False):
        from repro.check.sanitizer import SanitizerOptions, set_default_options
        set_default_options(SanitizerOptions())


def _maybe_trace(args, db):
    """Attach a trace session when ``--trace PATH`` was given."""
    if not getattr(args, "trace", None):
        return None
    from repro.obs import attach_trace
    return attach_trace(db)


def _maybe_faults(args, db):
    """Arm fault injection when ``--faults SPEC`` was given; returns injector."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults.plan import parse_fault_spec
    return db.runtime.attach_faults(parse_fault_spec(spec))


def _report_faults(injector) -> None:
    if injector is not None:
        print(f"\nfaults: {injector.snapshot()}")


def _finish_trace(session, path: str) -> None:
    """Write the finished session to ``path`` (JSONL iff ``.jsonl``)."""
    session.finish()
    if path.endswith(".jsonl"):
        session.write_jsonl(path)
    else:
        session.write_chrome(path)
    print(f"\nwrote trace to {path}")


def _validate_trace(session) -> int:
    """Schema-check the session's Chrome trace; the exit code."""
    from repro.obs import validate_chrome_trace
    problems = validate_chrome_trace(session.to_chrome())
    for p in problems:
        print(f"TRACE SCHEMA: {p}", file=sys.stderr)
    if not problems:
        print("trace schema ok")
    return 1 if problems else 0


def cmd_load(args) -> int:
    _apply_sanitize(args)
    db = _build_db(args.engine, args.device, args.memory_mb, args.threads)
    session = _maybe_trace(args, db)
    injector = _maybe_faults(args, db)
    fn = fill_seq if args.sequential else hash_load
    rep = fn(db, args.records, quiesce=args.quiesce)
    print(format_table(
        ["engine", "WA", "ops/s", "p99", "max", "space MB"],
        [[args.engine] + _report_rows(rep, db)],
        title=f"{'fillseq' if args.sequential else 'hash load'} of "
              f"{args.records} records ({args.device})"))
    print("\nstructure:", db.engine.describe())
    _report_faults(injector)
    if session is not None:
        _finish_trace(session, args.trace)
    db.close()
    return 0


def cmd_ycsb(args) -> int:
    _apply_sanitize(args)
    spec = YCSB_WORKLOADS[args.workload.upper()]
    db = _build_db(args.engine, args.device, args.memory_mb, args.threads)
    session = _maybe_trace(args, db)
    injector = _maybe_faults(args, db)
    hash_load(db, args.records, quiesce=False)
    rep = run_ycsb(db, spec, args.ops, args.records)
    print(f"YCSB-{spec.name} on {args.engine} ({args.device}): "
          f"{rep.throughput:,.0f} ops/s over {rep.sim_seconds * 1e3:.2f} sim-ms")
    for op, digest in sorted(rep.latency.items()):
        print(f"  {op:>7}: n={digest['count']:>7.0f} "
              f"p50={digest['p50'] * 1e6:9.1f}us "
              f"p99={digest['p99'] * 1e6:9.1f}us "
              f"max={digest['max'] * 1e3:9.2f}ms")
    _report_faults(injector)
    if session is not None:
        _finish_trace(session, args.trace)
    db.close()
    return 0


TRACE_WORKLOADS = ("load", "fillseq") + tuple(f"ycsb-{c}" for c in "abcdefg")


def cmd_trace(args) -> int:
    from repro.obs import TraceConfig, attach_trace
    _apply_sanitize(args)
    db = _build_db(args.engine, args.device, args.memory_mb, args.threads)
    config = TraceConfig() if args.interval is None else TraceConfig(
        sample_interval_s=args.interval)
    session = attach_trace(db, config)
    if args.prom:
        # Histograms feed the exposition's op-latency families; enabling
        # them up front keeps the whole run in the percentiles.
        db.metrics.enable_histograms()
    workload = args.workload.lower()
    if workload == "fillseq":
        fill_seq(db, args.records, quiesce=False)
    elif workload == "load":
        hash_load(db, args.records, quiesce=False)
    else:
        spec = YCSB_WORKLOADS[workload[-1].upper()]
        hash_load(db, args.records, quiesce=False)
        run_ycsb(db, spec, args.ops, args.records)
    # End-of-run barrier: in-flight jobs complete so their spans close.
    db.quiesce()
    session.finish()
    rc = _validate_trace(session) if args.validate else 0
    if args.out:
        session.write_chrome(args.out)
        print(f"wrote Chrome trace to {args.out} "
              "(load it at https://ui.perfetto.dev)")
    if args.jsonl:
        session.write_jsonl(args.jsonl)
        print(f"wrote JSONL trace to {args.jsonl}")
    if args.prom:
        text = db.metrics.render_prom(
            extra_gauges={"sim_time_seconds": db.runtime.clock.now})
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote Prometheus text exposition to {args.prom}")
    print()
    print(session.summary())
    db.close()
    return rc


def cmd_compare(args) -> int:
    rows = []
    tps = {}
    for config in args.engines:
        if config not in ENGINE_CONFIGS:
            print(f"unknown config {config!r}; choose from "
                  f"{', '.join(ENGINE_CONFIGS)}", file=sys.stderr)
            return 2
        db = make_db(config, SETUPS[args.setup])
        rep = hash_load(db, args.records, quiesce=False)
        tps[config] = rep.throughput
        rows.append([config] + _report_rows(rep, db))
        db.close()
    norm = normalize_to(args.engines[0], tps)
    for row, config in zip(rows, args.engines):
        row.append(round(norm[config], 2))
    print(format_table(
        ["config", "WA", "ops/s", "p99", "max", "space MB",
         f"vs {args.engines[0]}"],
        rows, title=f"hash load x{args.records} on {args.setup}"))
    return 0


EXPERIMENTS = {
    "table3": lambda: harness.exp_table3(),
    "table4": lambda: harness.exp_table4(),
    "fig6": lambda: harness.exp_fig6(),
    "fig8": lambda: harness.exp_fig8(),
    "fig9": lambda: harness.exp_fig9(),
    "fig10": lambda: harness.exp_fig10(),
    "load-latency": lambda: harness.exp_load_latency(),
    "flsm": lambda: harness.exp_flsm_seqwrite(),
}


def cmd_experiment(args) -> int:
    _apply_sanitize(args)
    fn = EXPERIMENTS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    with harness.maybe_profile(args.profile):
        result = fn()
    import pprint
    pprint.pprint(result)
    return 0


def cmd_perf(args) -> int:
    from repro.bench.perf import main as perf_main
    return perf_main(args.perf_args)


def cmd_stability(args) -> int:
    from repro.bench.stability import main as stability_main
    return stability_main(args.stability_args)


def cmd_check(args) -> int:
    from repro.check.runner import main as check_main
    return check_main(args.check_args)


def cmd_faults(args) -> int:
    """Crash-point matrix: crash at every reachable site, verify recovery."""
    import json
    from repro.faults.crash import run_crash_matrix
    report = run_crash_matrix(
        tuple(args.engines), n_ops=args.ops, per_site=args.per_site,
        seed=args.seed, torn_variants=tuple(args.torn),
        sanitize=not args.no_sanitize)
    for engine, counts in report["sites"].items():
        print(f"{engine}: sites {counts}")
    print(f"{report['n_cases']} crash cases, "
          f"{report['n_failures']} contract failures")
    for case in report["failures"]:
        print(f"  FAIL {case['engine']} {case['site']} "
              f"occ={case['occurrence']} torn={case['torn']}: "
              f"{case.get('error')}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote fault-matrix report to {args.out}")
    return 1 if report["n_failures"] else 0


def _cluster_storage(args) -> StorageOptions:
    """Per-node storage: ``--memory-mb`` is split evenly across shards."""
    dev = HDD if args.device == "hdd" else SSD
    return StorageOptions(
        device=dev,
        page_cache_bytes=max(1, int(args.memory_mb * 1e6 / args.shards)))


def _start_cluster(args, options):
    """Build the cluster, attach the trace session, arm ``--faults``."""
    from repro.cluster import (
        ClusterDB,
        attach_cluster_trace,
        parse_cluster_fault_spec,
    )
    cluster = ClusterDB(options)
    session = attach_cluster_trace(cluster) if args.trace or args.validate \
        else None
    if args.faults:
        from repro.faults.plan import parse_fault_spec
        dev_spec, kills = parse_cluster_fault_spec(args.faults)
        cluster.arm_faults(
            parse_fault_spec(dev_spec) if dev_spec else None, kills)
    return cluster, session


def _load_then_ycsb(cluster, args):
    """Hash-load, then the YCSB phase in ``ycsb`` mode; the last report."""
    rep = hash_load(cluster, args.records, quiesce=False)
    if args.mode == "ycsb":
        spec = YCSB_WORKLOADS[args.workload.upper()]
        rep = run_ycsb(cluster, spec, args.ops, args.records,
                       clients=args.clients)
    return rep


def _check_cluster_invariants(cluster) -> int:
    from repro.common.errors import InvariantViolation
    try:
        cluster.check_invariants()
    except InvariantViolation as exc:
        print(f"CLUSTER INVARIANT: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_headline(label: str, stats, args, rep) -> None:
    what = (f"YCSB-{args.workload.upper()}" if args.mode == "ycsb"
            else "hash load")
    print(f"{label} {what} on {args.engine} x{stats['n_shards']} shards "
          f"x{args.replicas} replicas ({args.device}): "
          f"{rep.throughput:,.0f} ops/s over "
          f"{rep.sim_seconds * 1e3:.2f} sim-ms")


def _print_network(stats) -> None:
    net = stats["network"]
    print(f"network: {net['messages']} messages, "
          f"{net['bytes_sent'] / 1e6:.2f} MB shipped")


def _print_failovers(stats) -> None:
    for report in stats["failovers"]:
        print(f"failover: shard {report['shard']} node "
              f"{report['dead_node']} -> {report['promoted_node']} "
              f"(acked {report['acked_seq']}, recovered "
              f"{report['recovered_seq']})")


def _finish_cluster_trace(session, args, label: str) -> int:
    """``--validate`` / ``--trace`` tail of a cluster run; the exit code."""
    rc = _validate_trace(session) if args.validate else 0
    if args.trace:
        session.write_chrome(args.trace)
        print(f"wrote {label} trace to {args.trace}")
    return rc


def _write_cluster_report(stats, args, label: str) -> None:
    if args.report:
        import json
        with open(args.report, "w") as fh:
            fh.write(json.dumps(stats, sort_keys=True, separators=(",", ":")))
        print(f"wrote {label} report to {args.report}")


def cmd_cluster(args) -> int:
    """Sharded, replicated cluster run: load (+ optional YCSB), full report."""
    from repro.cluster import ClusterOptions, NetworkOptions, RebalanceOptions
    _apply_sanitize(args)
    net_kwargs = {}
    if args.net_latency_us is not None:
        net_kwargs["latency_s"] = args.net_latency_us * 1e-6
    if args.net_bandwidth_mb is not None:
        net_kwargs["bandwidth"] = args.net_bandwidth_mb * 1e6
    rebalance = (RebalanceOptions(
        split_threshold_bytes=int(args.split_mb * 1e6))
        if args.split_mb else RebalanceOptions())
    cluster, session = _start_cluster(args, ClusterOptions(
        n_shards=args.shards, n_replicas=args.replicas, engine=args.engine,
        engine_options=_engine_options(args.engine, args.threads),
        storage_options=_cluster_storage(args),
        network=NetworkOptions(**net_kwargs), rebalance=rebalance))
    rep = _load_then_ycsb(cluster, args)
    cluster.quiesce()
    rc = _check_cluster_invariants(cluster)
    stats = cluster.stats()
    _print_headline("cluster", stats, args, rep)
    rows = []
    for row in stats["shards"]:
        rows.append([
            row["shard_id"], row["leader_node"], row["replicas"],
            row["writes_routed"], row["reads_routed"], row["scans_routed"],
            round(row["data_bytes"] / 1e6, 2), row["acked_seq"],
            row["failovers"],
        ])
    print()
    print(format_table(
        ["shard", "leader", "repl", "writes", "reads", "scans",
         "MB", "acked", "failovers"],
        rows, title="per-shard"))
    imb = stats["load_imbalance"]
    print(f"\nimbalance: ops max/mean={imb['ops_max_over_mean']:.2f} "
          f"bytes max/mean={imb['bytes_max_over_mean']:.2f}")
    _print_network(stats)
    reb = stats["rebalance"]
    print(f"rebalance: {reb['splits']} splits, {reb['merges']} merges, "
          f"{reb['moved_bytes'] / 1e6:.2f} MB moved")
    for op, digest in sorted(stats["tail_latency"].items()):
        print(f"  {op:>7}: n={digest['count']:>7.0f} "
              f"p50={digest['p50'] * 1e6:9.1f}us "
              f"p99={digest['p99'] * 1e6:9.1f}us "
              f"max={digest['max'] * 1e3:9.2f}ms")
    _print_failovers(stats)
    if session is not None:
        rc |= _finish_cluster_trace(session, args, "cluster")
        print()
        print(session.summary())
    _write_cluster_report(stats, args, "cluster")
    cluster.close()
    return rc


def cmd_objstore(args) -> int:
    """Shared-storage cluster run: every shard mirrors to the object store."""
    from repro.cluster import ClusterOptions, NetworkOptions
    from repro.common.errors import ConfigError
    from repro.objstore import ObjStoreOptions
    from repro.objstore.report import format_objstore_report
    _apply_sanitize(args)
    store_kwargs = {}
    if args.store_latency_us is not None:
        store_kwargs["latency_s"] = args.store_latency_us * 1e-6
    if args.store_bandwidth_mb is not None:
        store_kwargs["bandwidth"] = args.store_bandwidth_mb * 1e6
    cluster, session = _start_cluster(args, ClusterOptions(
        n_shards=args.shards, n_replicas=args.replicas, engine=args.engine,
        engine_options=_engine_options(args.engine, args.threads),
        storage_options=_cluster_storage(args), network=NetworkOptions(),
        objstore=ObjStoreOptions(**store_kwargs),
        objstore_retain_cuts=args.retain_cuts,
        compaction_offload=args.offload_compaction))
    rep = _load_then_ycsb(cluster, args)
    cluster.flush()
    cluster.quiesce()
    if args.bootstrap_follower is not None:
        boot = cluster.spawn_follower(args.bootstrap_follower,
                                      mode="objstore")
        print(f"follower bootstrap (shard {args.bootstrap_follower}): "
              f"cut {boot['cut_id']} @ seq {boot['bootstrap_seq']}, "
              f"{boot['objects_fetched']} objects / "
              f"{int(boot['store_bytes_down']) / 1e6:.2f} MB "  # type: ignore[call-overload]
              f"from shared storage, "
              f"{boot['wal_tail_records']} WAL tail records")
    rc = _check_cluster_invariants(cluster)
    stats = cluster.stats()
    _print_headline("objstore", stats, args, rep)
    print()
    print(format_objstore_report(stats["objstore"]))
    _print_network(stats)
    if args.as_of is not None:
        sample = cluster.scan(None, None, limit=8)
        shown = 0
        for key, _value in sample:
            try:
                got = cluster.get(key, as_of_cut=args.as_of)
            except ConfigError as exc:
                print(f"as-of read failed: {exc}", file=sys.stderr)
                rc = 1
                break
            print(f"  as-of cut {args.as_of}: key {key:#018x} -> {got}")
            shown += 1
        if not shown and not rc:
            print(f"  as-of cut {args.as_of}: no keys to sample")
    _print_failovers(stats)
    if session is not None:
        rc |= _finish_cluster_trace(session, args, "objstore cluster")
    _write_cluster_report(stats, args, "objstore")
    cluster.close()
    return rc


def cmd_info(args) -> int:
    from repro.bench.scale import RECORD_BYTES, scale_factor
    print(f"REPRO_SCALE = {scale_factor()}")
    print(f"record bytes = {RECORD_BYTES}")
    for name, setup in SETUPS.items():
        print(f"{name}: data {setup.data_bytes / 1e6:.2f} MB "
              f"({setup.n_records} records), "
              f"memory {setup.memory_bytes / 1e6:.2f} MB, "
              f"device {setup.device.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--engine", choices=ENGINES, default="iam")
        sp.add_argument("--device", choices=("ssd", "hdd"), default="ssd")
        sp.add_argument("--records", type=int, default=30_000)
        sp.add_argument("--memory-mb", type=float,
                        default=SSD_100G.memory_bytes / 1e6)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--sanitize", action="store_true",
                        help="attach the runtime sanitizer to every DB")
        sp.add_argument("--trace", metavar="PATH", default=None,
                        help="trace the run; write Chrome trace JSON "
                             "(or JSONL when PATH ends in .jsonl)")
        sp.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject deterministic transient device faults, "
                             "e.g. rate=0.01,seed=7 or rate=0.5,ops=500:600")

    sp = sub.add_parser("load", help="hash-load records, report amplifications")
    common(sp)
    sp.add_argument("--sequential", action="store_true")
    sp.add_argument("--quiesce", action="store_true")
    sp.set_defaults(fn=cmd_load)

    sp = sub.add_parser("ycsb", help="run a YCSB workload")
    common(sp)
    sp.add_argument("--workload", choices=list("ABCDEFG") + list("abcdefg"),
                    default="A")
    sp.add_argument("--ops", type=int, default=3000)
    sp.set_defaults(fn=cmd_ycsb)

    sp = sub.add_parser(
        "trace", help="run a workload under the sim-time tracer")
    sp.add_argument("workload", choices=TRACE_WORKLOADS)
    sp.add_argument("--engine", choices=ENGINES, default="iam")
    sp.add_argument("--device", choices=("ssd", "hdd"), default="ssd")
    sp.add_argument("--records", type=int, default=30_000)
    sp.add_argument("--memory-mb", type=float,
                    default=SSD_100G.memory_bytes / 1e6)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--sanitize", action="store_true",
                    help="attach the runtime sanitizer too")
    sp.add_argument("--ops", type=int, default=3000,
                    help="YCSB operation count (ycsb-* workloads)")
    sp.add_argument("--interval", type=float, default=None,
                    help="timeseries sample interval in sim seconds")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write Chrome trace-event JSON (Perfetto-loadable)")
    sp.add_argument("--jsonl", metavar="PATH", default=None,
                    help="write the trace as JSON lines")
    sp.add_argument("--prom", metavar="PATH", default=None,
                    help="write a Prometheus text exposition of the final "
                         "metrics (enables per-op latency histograms)")
    sp.add_argument("--validate", action="store_true",
                    help="schema-check the Chrome trace; nonzero exit on error")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("compare", help="one load across engine configs")
    sp.add_argument("--engines", nargs="+",
                    default=["L", "R-1t", "A-1t", "I-1t"])
    sp.add_argument("--records", type=int, default=30_000)
    sp.add_argument("--setup", choices=list(SETUPS), default="ssd-100g")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    sp.add_argument("name", choices=list(EXPERIMENTS))
    sp.add_argument("--profile", action="store_true",
                    help="cProfile the experiment (stats to stderr)")
    sp.add_argument("--sanitize", action="store_true",
                    help="attach the runtime sanitizer to every DB")
    sp.set_defaults(fn=cmd_experiment)

    sp = sub.add_parser(
        "perf", help="hot-path microbenchmarks (see `perf --help`)",
        add_help=False)
    sp.add_argument("perf_args", nargs=argparse.REMAINDER,
                    help="arguments for the perf suite, e.g. --quick --check")
    sp.set_defaults(fn=cmd_perf)

    sp = sub.add_parser(
        "stability",
        help="stability suite: windowed throughput, stall blame, tail "
             "latency (see `stability --help`)",
        add_help=False)
    sp.add_argument("stability_args", nargs=argparse.REMAINDER,
                    help="arguments for the stability suite, e.g. --check")
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser(
        "check", help="determinism lint + typing gate + sanitizer smoke",
        add_help=False)
    sp.add_argument("check_args", nargs=argparse.REMAINDER,
                    help="arguments for the check driver, e.g. --list-rules")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser(
        "faults",
        help="crash-point matrix: crash at every pipeline site, verify the "
             "durability contract after recovery")
    sp.add_argument("--engines", nargs="+", default=["iam", "leveldb"],
                    help="engines to run the matrix over")
    sp.add_argument("--ops", type=int, default=300,
                    help="workload operations per matrix cell")
    sp.add_argument("--per-site", type=int, default=1,
                    help="crash occurrences to test per reachable site")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--torn", type=int, nargs="+", default=[0, 4],
                    help="torn-WAL-tail record counts to test")
    sp.add_argument("--no-sanitize", action="store_true",
                    help="skip the runtime sanitizer during the matrix")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write the JSON report to PATH")
    sp.set_defaults(fn=cmd_faults)

    sp = sub.add_parser(
        "cluster",
        help="run a workload on a sharded, replicated multi-node cluster")
    sp.add_argument("mode", choices=("load", "ycsb"),
                    help="hash-load only, or hash-load then a YCSB phase")
    sp.add_argument("--shards", type=int, default=4)
    sp.add_argument("--replicas", type=int, default=2,
                    help="copies per shard, leader included")
    sp.add_argument("--workload", choices=list("ABCDEFG") + list("abcdefg"),
                    default="A", help="YCSB workload for the ycsb mode")
    sp.add_argument("--ops", type=int, default=3000,
                    help="YCSB operations after the load phase")
    sp.add_argument("--clients", type=int, default=1,
                    help="deterministically interleaved YCSB client streams")
    sp.add_argument("--engine", choices=ENGINES, default="iam")
    sp.add_argument("--device", choices=("ssd", "hdd"), default="ssd")
    sp.add_argument("--records", type=int, default=30_000)
    sp.add_argument("--memory-mb", type=float,
                    default=SSD_100G.memory_bytes / 1e6,
                    help="total cluster memory, split evenly across shards")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--net-latency-us", type=float, default=None,
                    help="per-message link latency in microseconds")
    sp.add_argument("--net-bandwidth-mb", type=float, default=None,
                    help="per-link bandwidth in MB/s")
    sp.add_argument("--split-mb", type=float, default=0.0,
                    help="split a shard when its data exceeds this many MB")
    sp.add_argument("--sanitize", action="store_true",
                    help="attach the runtime sanitizer to every replica")
    sp.add_argument("--faults", metavar="SPEC", default=None,
                    help="device faults plus scheduled leader kills, e.g. "
                         "kill=1:2000,rate=0.001,seed=7")
    sp.add_argument("--trace", metavar="PATH", default=None,
                    help="write the merged cluster Chrome trace to PATH")
    sp.add_argument("--validate", action="store_true",
                    help="validate the merged Chrome trace schema")
    sp.add_argument("--report", metavar="PATH", default=None,
                    help="write the deterministic JSON cluster report")
    sp.set_defaults(fn=cmd_cluster)

    sp = sub.add_parser(
        "objstore",
        help="run a cluster workload against the shared object-store tier")
    sp.add_argument("mode", choices=("load", "ycsb"),
                    help="hash-load only, or hash-load then a YCSB phase")
    sp.add_argument("--shards", type=int, default=2)
    sp.add_argument("--replicas", type=int, default=2,
                    help="copies per shard, leader included")
    sp.add_argument("--workload", choices=list("ABCDEFG") + list("abcdefg"),
                    default="A", help="YCSB workload for the ycsb mode")
    sp.add_argument("--ops", type=int, default=3000,
                    help="YCSB operations after the load phase")
    sp.add_argument("--clients", type=int, default=1,
                    help="deterministically interleaved YCSB client streams")
    sp.add_argument("--engine", choices=ENGINES, default="iam")
    sp.add_argument("--device", choices=("ssd", "hdd"), default="ssd")
    sp.add_argument("--records", type=int, default=30_000)
    sp.add_argument("--memory-mb", type=float,
                    default=SSD_100G.memory_bytes / 1e6,
                    help="total cluster memory, split evenly across shards")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--store-latency", dest="store_latency_us", type=float,
                    default=None, metavar="US",
                    help="per-request object-store latency in microseconds "
                         "(0 = the byte-identical mirror mode)")
    sp.add_argument("--store-bandwidth-mb", type=float, default=None,
                    help="object-store bandwidth in MB/s")
    sp.add_argument("--retain-cuts", type=int, default=8,
                    help="manifest cuts retained for time travel before the "
                         "cleanup compactor truncates dead segments")
    sp.add_argument("--offload-compaction", action="store_true",
                    help="drain compaction device time on a shared offload "
                         "disk instead of each leader's own disk")
    sp.add_argument("--bootstrap-follower", type=int, default=None,
                    metavar="SHARD",
                    help="after the workload, spawn a brand-new follower for "
                         "this shard index, bootstrapped from shared storage")
    sp.add_argument("--as-of", dest="as_of", type=int, default=None,
                    metavar="CUT",
                    help="after the workload, sample time-travel reads at "
                         "this manifest cut id")
    sp.add_argument("--sanitize", action="store_true",
                    help="attach the runtime sanitizer to every replica")
    sp.add_argument("--faults", metavar="SPEC", default=None,
                    help="device faults plus scheduled leader kills, e.g. "
                         "kill=1:2000,rate=0.001,seed=7")
    sp.add_argument("--trace", metavar="PATH", default=None,
                    help="write the merged cluster Chrome trace to PATH")
    sp.add_argument("--validate", action="store_true",
                    help="validate the merged Chrome trace schema")
    sp.add_argument("--report", metavar="PATH", default=None,
                    help="write the deterministic JSON objstore report")
    sp.set_defaults(fn=cmd_objstore)

    sp = sub.add_parser("info", help="print the scaled configuration")
    sp.set_defaults(fn=cmd_info)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER mis-parses leading options under a subparser, so the
    # perf suite (which owns its own argparse) is dispatched before parsing.
    if argv and argv[0] == "perf":
        return cmd_perf(argparse.Namespace(perf_args=list(argv[1:])))
    if argv and argv[0] == "stability":
        return cmd_stability(argparse.Namespace(stability_args=list(argv[1:])))
    if argv and argv[0] == "check":
        return cmd_check(argparse.Namespace(check_args=list(argv[1:])))
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
