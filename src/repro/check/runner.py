"""The ``python -m repro check`` driver.

Runs the four correctness gates in order and reports one status line each:

1. **lint** -- the AST determinism lint (:mod:`repro.check.lint`) over
   ``src/repro`` (or explicit paths).
2. **sanitizer** -- a smoke workload (mixed puts/deletes/reads/scans, an
   explicit flush and a crash/recovery cycle) on each of the six engines
   (LSM-trie reads instead of scanning) with the runtime sanitizer
   collecting violations; the status line counts each engine's structural
   events.
3. **cluster** -- a tiny sharded/replicated cluster run (mixed ops, a forced
   leader failover, a forced shard split) with the cluster invariant catalog
   (:mod:`repro.cluster.invariants`) checked throughout: shard ranges tile
   the key space exactly, acked writes sit on a quorum, and no file is owned
   by two live replicas after a rebalance.
4. **objstore** -- a tiny shared-storage cluster run: follower bootstrap
   from the shared manifest log (zero leader WAL bytes for the flushed
   prefix), a leader kill recovered off shared storage, and a time-travel
   read (``as_of_cut``) checked against a model recorded at that cut.

Every gate runs even when an earlier one fails or raises: a gate that
escapes with an exception is reported ERROR (with the exception inline) and
the remaining gates still execute, so one broken invariant cannot mask
another.  A summary line closes the run.  Exit status is 0 only when no
gate FAILs or ERRORs; 2 signals a usage error (unknown rule or gate name).
The typing check is not a gate here: CI runs ``python -m mypy`` with the
``[tool.mypy]`` settings in ``pyproject.toml``.
"""

from __future__ import annotations

import argparse
import random
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.check.lint import RULES, lint_paths, lint_repo

#: Gate names in execution order (also the --gate vocabulary).
GATE_NAMES: Tuple[str, ...] = ("lint", "sanitizer", "cluster", "objstore")


@dataclass
class GateOutcome:
    """One gate's result: status is PASS, FAIL or ERROR."""

    name: str
    status: str
    #: Extra output printed *before* the status line (findings, tracebacks).
    body: str = ""
    #: Short parenthesized annotation on the status line.
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("FAIL", "ERROR")


def _run_lint(args: argparse.Namespace) -> GateOutcome:
    rules = set(args.rule) if args.rule else None
    if args.paths:
        findings = lint_paths(args.paths, rules=rules)
    else:
        findings = lint_repo(rules=rules)
    if findings:
        lines = [f.format() for f in findings]
        lines.append(f"{len(findings)} finding(s)")
        return GateOutcome("lint", "FAIL", body="\n".join(lines))
    return GateOutcome("lint", "PASS", detail="0 findings")


def _smoke_workload(engine: str, seed: int) -> "tuple[int, int, List[str]]":
    """Run a small mixed workload with the sanitizer collecting violations.

    Returns (events_seen, checks_run, violation messages).
    """
    from repro.check.sanitizer import SanitizerOptions
    from repro.db.iamdb import IamDB
    from repro.faults.crash import tiny_store

    db = IamDB(engine, sanitizer_options=SanitizerOptions(halt_on_violation=False),
               **tiny_store(engine))
    rng = random.Random(seed)
    keyspace = 512
    for i in range(900):
        roll = rng.random()
        key = rng.randrange(keyspace)
        if roll < 0.55:
            db.put(key, 64)
        elif roll < 0.65:
            db.delete(key)
        elif roll < 0.85 or engine == "lsmtrie":  # LSM-trie refuses scans
            db.get(key)
        else:
            lo = rng.randrange(keyspace)
            db.scan(lo, lo + 16, limit=8)
        if i == 450:
            db.flush()
            db.crash_and_recover()
    db.flush()
    db.quiesce()
    db.engine.check_invariants()
    sanitizer = db.sanitizer
    assert sanitizer is not None  # repro: noqa-REP008 (driver-internal)
    messages = [d.format() for d in sanitizer.violations]
    summary = sanitizer.summary()
    db.close()
    return summary["events_seen"], summary["checks_run"], messages


def _run_sanitizer_smoke(args: argparse.Namespace) -> GateOutcome:
    from repro.db.iamdb import ENGINE_TABLE

    events: List[str] = []
    total_checks = 0
    failures: List[str] = []
    for engine in ENGINE_TABLE:
        n_events, checks, messages = _smoke_workload(engine, seed=args.seed)
        events.append(f"{engine} {n_events}")
        total_checks += checks
        failures.extend(f"[{engine}] {m}" for m in messages)
    detail = f"events: {', '.join(events)}; {total_checks} checks"
    if failures:
        return GateOutcome("sanitizer", "FAIL",
                           body="\n".join(failures + [detail]))
    return GateOutcome("sanitizer", "PASS", detail=f"{detail}, 0 violations")


def _run_cluster_smoke(args: argparse.Namespace) -> GateOutcome:
    """Tiny sharded run exercising the cluster invariant catalog.

    Mixed ops against a 3-shard/2-replica cluster checked against a model
    dict, with one forced leader failover and one forced shard split; the
    invariant catalog runs every 100 ops and after each structural event.
    """
    from repro.cluster import ClusterDB, ClusterOptions
    from repro.cluster.invariants import check_cluster_invariants
    from repro.common.errors import InvariantViolation
    from repro.faults.crash import tiny_store

    cluster = ClusterDB(ClusterOptions(n_shards=3, n_replicas=2, **tiny_store("iam")))
    rng = random.Random(args.seed)
    keys = [rng.randrange(2 ** 64) for _ in range(256)]
    model: "dict[int, int]" = {}
    checks = 0
    failures: List[str] = []
    try:
        for i in range(700):
            key = keys[rng.randrange(len(keys))]
            roll = rng.random()
            if roll < 0.6:
                value = 32 + (i % 64)
                cluster.put(key, value)
                model[key] = value
            elif roll < 0.7:
                cluster.delete(key)
                model.pop(key, None)
            else:
                got = cluster.get(key)
                want = model.get(key)
                if got != want:
                    raise InvariantViolation(
                        f"cluster read {key:#x}: got {got}, want {want}")
            if i == 350:
                cluster.crash_leader(1)
                check_cluster_invariants(cluster)
                checks += 1
            if i % 100 == 99:
                check_cluster_invariants(cluster)
                checks += 1
        fattest = max(cluster.router.shards, key=lambda s: s.data_bytes())
        cluster.rebalancer.split(fattest)
        check_cluster_invariants(cluster)
        checks += 1
        for key, want in sorted(model.items()):
            if cluster.get(key) != want:
                raise InvariantViolation(
                    f"post-split read {key:#x} diverged from model")
        cluster.quiesce()
        cluster.check_invariants()
        checks += 1
    except InvariantViolation as exc:
        failures.append(str(exc))
    n_shards = len(cluster.router.shards)
    n_failovers = len(cluster.failover_reports)
    cluster.close()
    detail = (f"{checks} invariant sweeps, {n_shards} shards, "
              f"{n_failovers} failover(s), {len(model)} live keys")
    if failures:
        return GateOutcome("cluster", "FAIL",
                           body="\n".join(failures + [detail]))
    return GateOutcome("cluster", "PASS", detail=detail)


def _run_objstore_smoke(args: argparse.Namespace) -> GateOutcome:
    """Tiny shared-storage cluster run pinning the objstore contracts.

    A 1-shard/2-replica cluster with the simulated object store attached:
    phase-1 writes are flushed and the model is recorded at the latest
    manifest cut; a new follower then bootstraps *from shared storage*
    (asserted: zero bytes on the leader's links for the flushed prefix);
    phase-2 overwrites land, the leader is killed (recovery re-reads the
    shared log), and the promoted leader must serve both the live model
    and a time-travel read (``as_of_cut``) matching the recorded one.
    """
    from repro.cluster import ClusterDB, ClusterOptions
    from repro.cluster.invariants import check_cluster_invariants
    from repro.common.errors import InvariantViolation
    from repro.faults.crash import tiny_store
    from repro.objstore import ObjStoreOptions

    cluster = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=2, objstore=ObjStoreOptions(),
        objstore_retain_cuts=64, **tiny_store("iam")))
    rng = random.Random(args.seed)
    keys = [rng.randrange(2 ** 64) for _ in range(160)]
    model: "dict[int, int]" = {}
    failures: List[str] = []
    tt_checks = 0
    cut_n = 0
    try:
        # Phase 1: mixed writes, flushed so the manifest cut covers them.
        for i in range(300):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < 0.85:
                value = 32 + (i % 64)
                cluster.put(key, value)
                model[key] = value
            else:
                cluster.delete(key)
                model.pop(key, None)
        cluster.flush()
        cluster.quiesce()
        model1 = dict(model)
        log = cluster.manifest_logs[cluster.router.shards[0].shard_id]
        cut = log.latest_cut()
        if cut is None:
            raise InvariantViolation("no manifest cut after flush")
        cut_n = cut.cut_id
        # Follower bootstrap from shared storage: the flushed prefix must
        # cost the leader zero network bytes (objects come from the store).
        leader_node = cluster.router.shards[0].group.leader.node_id
        before = sum(v for (src, _dst), v
                     in cluster.network.link_bytes.items()
                     if src == leader_node)
        boot = cluster.spawn_follower(0)
        after = sum(v for (src, _dst), v
                    in cluster.network.link_bytes.items()
                    if src == leader_node)
        if boot["wal_tail_records"] != 0 or after != before:
            raise InvariantViolation(
                f"objstore bootstrap shipped leader bytes: tail="
                f"{boot['wal_tail_records']}, link delta {after - before}")
        if int(boot["objects_fetched"]) <= 0:  # type: ignore[call-overload]
            raise InvariantViolation("bootstrap fetched no objects")
        # Phase 2: overwrites, then a leader kill; recovery re-reads the
        # shared log and the promoted leader serves the acked audit.
        for i in range(150):
            key = keys[rng.randrange(len(keys))]
            value = 128 + (i % 64)
            cluster.put(key, value)
            model[key] = value
        cluster.crash_leader(0)
        check_cluster_invariants(cluster)
        for key, want in sorted(model.items()):
            if cluster.get(key) != want:
                raise InvariantViolation(
                    f"post-failover read {key:#x} diverged from model")
        # Time travel: the retained cut still serves phase-1 values.
        for key in sorted(model1)[:24]:
            got = cluster.get(key, as_of_cut=cut_n)
            if got != model1[key]:
                raise InvariantViolation(
                    f"as-of cut {cut_n} read {key:#x}: got {got}, "
                    f"want {model1[key]}")
            tt_checks += 1
        cluster.quiesce()
        cluster.check_invariants()
    except InvariantViolation as exc:
        failures.append(str(exc))
    summary = cluster.stats().get("objstore", {})
    n_objects = summary.get("objects", 0) if isinstance(summary, dict) else 0
    cluster.close()
    detail = (f"cut {cut_n}, "
              f"{n_objects} objects, {tt_checks} time-travel reads, "
              f"{len(cluster.failover_reports)} failover(s)")
    if failures:
        return GateOutcome("objstore", "FAIL",
                           body="\n".join(failures + [detail]))
    return GateOutcome("objstore", "PASS", detail=detail)


_GATE_RUNNERS: "dict[str, Callable[[argparse.Namespace], GateOutcome]]" = {
    "lint": _run_lint,
    "sanitizer": _run_sanitizer_smoke,
    "cluster": _run_cluster_smoke,
    "objstore": _run_objstore_smoke,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro check",
        description=("determinism lint + sanitizer smoke run "
                     "+ cluster smoke run + objstore smoke run"))
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src/repro)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the lint rule catalog and exit")
    p.add_argument("--rule", action="append", metavar="REPxxx",
                   help="restrict the lint to the given rule(s)")
    p.add_argument("--gate", action="append", metavar="NAME",
                   choices=GATE_NAMES,
                   help="run only the named gate(s); repeatable "
                        f"(choices: {', '.join(GATE_NAMES)})")
    p.add_argument("--seed", type=int, default=0xC0FFEE,
                   help="seed of the sanitizer/cluster/objstore smoke "
                        "workloads")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, description in sorted(RULES.items()):
            print(f"{rule_id}  {description}")
        return 0
    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}")
            return 2

    selected = tuple(args.gate) if args.gate else GATE_NAMES
    outcomes: List[GateOutcome] = []
    for name in GATE_NAMES:
        if name not in selected:
            continue
        try:
            outcome = _GATE_RUNNERS[name](args)
        except Exception:  # one broken gate must not mask the others
            outcome = GateOutcome(name, "ERROR",
                                  body=traceback.format_exc().rstrip())
        outcomes.append(outcome)
        if outcome.body:
            print(outcome.body)
        annotation = f" ({outcome.detail})" if outcome.detail else ""
        print(f"{outcome.name:<9}  {outcome.status}{annotation}")

    n_failed = sum(1 for o in outcomes if o.failed)
    summary = f"{len(outcomes) - n_failed}/{len(outcomes)} gates passed"
    if n_failed:
        bad = ", ".join(o.name for o in outcomes if o.failed)
        summary += f", {n_failed} failed ({bad})"
    print(summary)
    return 1 if n_failed else 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
