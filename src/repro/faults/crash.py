"""Hard crash model: crash-point scheduler + durability-contract matrix.

The write pipeline is instrumented with named *crash sites* (the catalog in
:data:`CRASH_SITES`).  A :class:`CrashPoints` scheduler counts every visit
and, when armed with ``(site, occurrence)``, raises :class:`SimulatedCrash`
at exactly that visit -- cutting the pipeline mid-operation the way a power
loss would.  ``IamDB.crash_and_recover`` then models what a real crash
destroys: in-flight background jobs are abandoned (their output becomes
orphaned files), the volatile memtable is gone, and optionally the WAL tail
is *torn* (un-synced records lost, snapped to a group-commit boundary).

:func:`run_crash_matrix` enumerates every reachable site deterministically
and asserts the durability contract after each recovery:

* ``recovered_seq`` lands on a group-commit boundary -- an acked batch is
  wholly present or wholly absent, never half-applied;
* every write at or below the recovered cut reads back exactly per a pure
  in-memory model; nothing newer leaks through;
* the engine's structural invariants (and, when enabled, the full
  :mod:`repro.check` sanitizer walk) hold immediately after recovery *and*
  after the workload keeps running on the recovered tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, InvariantViolation

#: Every instrumented site in the write pipeline, in pipeline order.
CRASH_SITES: Tuple[str, ...] = (
    "post-wal-append",    # record durable in WAL, not yet in the memtable
    "post-rotate",        # memtable rotated, flush queued but not started
    "mid-flush",          # flush applied structurally, I/O debt unpaid
    "post-compact",       # compaction applied structurally, debt unpaid
    "mid-compact",        # leveled: inputs removed, outputs not yet linked
    "mid-split",          # lsa: node removed from level, pieces not linked
    "mid-combine",        # lsa: victim merged down, not yet removed above
    "pre-checkpoint",     # flush durable, manifest not yet checkpointed
    "post-checkpoint",    # manifest checkpointed, WAL not yet truncated
    "pre-objstore-log",     # objects uploaded, manifest-log cut not appended
    "post-objstore-log",    # manifest-log cut appended, cleanup not yet run
    "mid-objstore-cleanup",  # dead segments picked, deletes not yet issued
)


class SimulatedCrash(Exception):
    """A crash point fired: the process dies here.

    Deliberately *not* a :class:`~repro.common.errors.ReproError` -- generic
    error handling must never swallow a simulated power cut.
    """

    def __init__(self, site: str, occurrence: int) -> None:
        super().__init__(f"simulated crash at {site} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence


@dataclass(frozen=True)
class CrashSpec:
    """What the crash destroys beyond volatile state.

    ``torn_tail_records``: up to this many trailing WAL records were still in
    the device write buffer and are lost (``WriteAheadLog.tear`` snaps the
    keep-point down to a group-commit boundary).
    """

    torn_tail_records: int = 0


@dataclass
class RecoveryReport:
    """What one recovery pass did (returned by ``crash_and_recover``)."""

    durable_seq: int          #: last manifest-checkpointed sequence
    recovered_seq: int        #: sequence the DB resumed from
    replayed_records: int     #: WAL records replayed into the memtable
    torn_records: int         #: WAL tail records lost to the crash
    orphan_files: int         #: crash-orphaned files swept during recovery
    abandoned_jobs: int       #: in-flight/queued background jobs dropped

    def as_dict(self) -> Dict[str, int]:
        return {
            "durable_seq": self.durable_seq,
            "recovered_seq": self.recovered_seq,
            "replayed_records": self.replayed_records,
            "torn_records": self.torn_records,
            "orphan_files": self.orphan_files,
            "abandoned_jobs": self.abandoned_jobs,
        }


class CrashPoints:
    """Deterministic crash-site scheduler.

    Counts every site visit; when armed with ``site`` and ``occurrence`` it
    raises :class:`SimulatedCrash` at exactly that visit, once.  A disarmed
    instance (``site=None``) is a pure profiler: run the workload under it
    first to learn which sites are reachable and how often.
    """

    def __init__(self, site: Optional[str] = None, occurrence: int = 1) -> None:
        if site is not None and site not in CRASH_SITES:
            raise ConfigError(f"unknown crash site {site!r}")
        if occurrence < 1:
            raise ConfigError("occurrence must be >= 1")
        self.site = site
        self.occurrence = occurrence
        self.counts: Dict[str, int] = {}
        self.fired = False

    def reached(self, site: str) -> None:
        """Pipeline hook: note a visit; crash if this is the armed one."""
        self.counts[site] = self.counts.get(site, 0) + 1
        if (not self.fired and site == self.site
                and self.counts[site] == self.occurrence):
            self.fired = True
            raise SimulatedCrash(site, self.occurrence)


# --------------------------------------------------------------------------
# Deterministic workload for the matrix (tiny trees, like tests/conftest.py).
# --------------------------------------------------------------------------

#: ``CrashSpec.torn_tail_records`` of each crash case: an intact WAL tail,
#: and one that loses up to four trailing records.
TORN_VARIANTS: Tuple[int, ...] = (0, 4)

#: Wide enough that the tiny trees split (mid-split coverage), small enough
#: that keys are overwritten and combined (mid-combine coverage).
_KEYSPACE = 2000


def tiny_store(engine: str) -> Dict[str, Any]:
    """``engine_options`` and ``storage_options`` (keywords of both ``IamDB``
    and ``ClusterOptions``) of a tiny store of ``engine``: its own options
    type with thresholds small enough that a few hundred ops build deep
    trees, split and combine."""
    from repro.common.options import IamOptions, LsmOptions, SSD, StorageOptions
    from repro.db.iamdb import ENGINE_TABLE

    _, options_type, default = ENGINE_TABLE[engine]
    opts: Any
    if options_type is LsmOptions:
        opts = default(memtable_bytes=2048, file_bytes=1024, level1_bytes=3072,
                       level_size_multiplier=4, max_levels=5, key_size=8)
    else:  # IamOptions is also the LSM-trie's (an LsaOptions subclass)
        opts = IamOptions(node_capacity=2048, fanout=3, key_size=8,
                          bloom_bits_per_key=14, retune_interval=2)
    return {"engine_options": opts,
            "storage_options": StorageOptions(device=SSD, page_cache_bytes=16 * 1024,
                                              block_size=256)}


def _tiny_db(engine: str, *, sanitize: bool = True) -> Any:
    from repro.db.iamdb import IamDB

    sanitizer_options = None
    if sanitize:
        from repro.check.sanitizer import SanitizerOptions
        sanitizer_options = SanitizerOptions(halt_on_violation=True)
    return IamDB(engine, sanitizer_options=sanitizer_options, **tiny_store(engine))


#: One op: ("put", key, value) | ("del", key, None) | ("batch", sub_ops, None)
Op = Tuple[str, Any, Any]


def _make_ops(seed: int, n_ops: int) -> List[Op]:
    """A seeded put/delete/batch mix over a small keyspace."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.60:
            ops.append(("put", rng.randrange(_KEYSPACE),
                        rng.randrange(16, 96)))
        elif roll < 0.80:
            ops.append(("del", rng.randrange(_KEYSPACE), None))
        else:
            sub: List[Tuple[str, int, Optional[int]]] = []
            for _ in range(rng.randrange(2, 6)):
                if rng.random() < 0.8:
                    sub.append(("put", rng.randrange(_KEYSPACE),
                                rng.randrange(16, 96)))
                else:
                    sub.append(("del", rng.randrange(_KEYSPACE), None))
            ops.append(("batch", sub, None))
    return ops


def _op_records(op: Op) -> int:
    return len(op[1]) if op[0] == "batch" else 1


def _end_seqs(ops: Sequence[Op]) -> List[int]:
    """Sequence number at which each op's commit completes (cumulative)."""
    out: List[int] = []
    seq = 0
    for op in ops:
        seq += _op_records(op)
        out.append(seq)
    return out


def _apply_op(db: Any, op: Op) -> None:
    kind, payload, value = op
    if kind == "put":
        db.put(payload, value)
    elif kind == "del":
        db.delete(payload)
    else:
        batch = db.write_batch()
        for skind, key, sval in payload:
            if skind == "put":
                batch.put(key, sval)
            else:
                batch.delete(key)
        batch.commit()


def _apply_to_model(model: Dict[Any, Any], op: Op) -> None:
    kind, payload, value = op
    if kind == "put":
        model[payload] = value
    elif kind == "del":
        model.pop(payload, None)
    else:
        for skind, key, sval in payload:
            if skind == "put":
                model[key] = sval
            else:
                model.pop(key, None)


def _model_at(ops: Sequence[Op], n_applied: int) -> Dict[Any, Any]:
    model: Dict[Any, Any] = {}
    for op in ops[:n_applied]:
        _apply_to_model(model, op)
    return model


def _touched_keys(ops: Sequence[Op]) -> List[Any]:
    keys = set()
    for kind, payload, _ in ops:
        if kind == "batch":
            keys.update(k for _, k, _ in payload)
        else:
            keys.add(payload)
    return sorted(keys)


def _spread(count: int, per_site: int) -> List[int]:
    """Up to ``per_site`` occurrence indices spread evenly over 1..count."""
    if count <= 0:
        return []
    if per_site >= count:
        return list(range(1, count + 1))
    if per_site == 1:
        return [1]
    picks = {1 + ((count - 1) * i) // (per_site - 1)
             for i in range(per_site)}
    return sorted(picks)


# --------------------------------------------------------------------------
# The matrix driver.
# --------------------------------------------------------------------------

def _profile_sites(engine: str, ops: Sequence[Op], *,
                   sanitize: bool) -> Dict[str, int]:
    """Run the workload crash-free; returns per-site visit counts."""
    db = _tiny_db(engine, sanitize=sanitize)
    cp = CrashPoints()  # disarmed: pure counter
    db.runtime.arm_crash_points(cp)
    for op in ops:
        _apply_op(db, op)
    db.quiesce()
    # Baseline sanity: the clean run must match the model exactly.
    model = _model_at(ops, len(ops))
    for key in _touched_keys(ops):
        got = db.get(key)
        want = model.get(key)
        if got != want:
            raise InvariantViolation(
                f"baseline workload mismatch on {engine}: "
                f"key {key!r} -> {got!r}, want {want!r}")
    db.check_invariants()
    return dict(cp.counts)


def _run_case(engine: str, ops: Sequence[Op], site: str, occurrence: int,
              torn: int, *, sanitize: bool) -> Dict[str, Any]:
    """One matrix cell: crash at (site, occurrence), recover, validate."""
    db = _tiny_db(engine, sanitize=sanitize)
    cp = CrashPoints(site, occurrence)
    db.runtime.arm_crash_points(cp)
    end_seqs = _end_seqs(ops)
    case: Dict[str, Any] = {
        "engine": engine, "site": site, "occurrence": occurrence,
        "torn": torn, "crashed": False, "ok": False,
    }

    def recover_and_validate(crash_op_index: int) -> int:
        """Recover; check the durability contract; return the resume index."""
        report = db.crash_and_recover(CrashSpec(torn_tail_records=torn))
        case["report"] = report.as_dict()
        recovered = report.recovered_seq
        # Contract 1: the recovered cut is a group-commit boundary no newer
        # than the op that was in flight when the crash hit.
        valid_cuts = {0}
        valid_cuts.update(end_seqs[:crash_op_index + 1])
        if recovered not in valid_cuts:
            raise InvariantViolation(
                f"recovered_seq {recovered} is not a commit boundary "
                f"(crash during op {crash_op_index})")
        if torn == 0 and crash_op_index > 0 and \
                recovered < end_seqs[crash_op_index - 1]:
            raise InvariantViolation(
                f"untorn recovery lost acked writes: recovered_seq "
                f"{recovered} < acked {end_seqs[crash_op_index - 1]}")
        # Contract 2: reads match the model replayed to that cut exactly.
        n_applied = 0
        while n_applied < len(end_seqs) and end_seqs[n_applied] <= recovered:
            n_applied += 1
        model = _model_at(ops, n_applied)
        for key in _touched_keys(ops[:crash_op_index + 1]):
            got = db.get(key)
            want = model.get(key)
            if got != want:
                raise InvariantViolation(
                    f"post-recovery mismatch: key {key!r} -> {got!r}, "
                    f"want {want!r} at seq {recovered}")
        # Contract 3: the recovered structure is internally consistent.
        db.check_invariants()
        return n_applied

    try:
        i = 0
        while True:
            try:
                while i < len(ops):
                    _apply_op(db, ops[i])
                    i += 1
                db.quiesce()
                break
            except SimulatedCrash:
                # The armed visit may live in the final drain (e.g. a
                # provider compaction that only runs at quiesce): a torn
                # tail then loses acked ops, which are re-applied too.
                case["crashed"] = True
                i = recover_and_validate(min(i, len(ops) - 1))
        # The workload keeps running after recovery: the final state must
        # match the full model (crashed ops were re-applied above).
        model = _model_at(ops, len(ops))
        for key in _touched_keys(ops):
            got = db.get(key)
            want = model.get(key)
            if got != want:
                raise InvariantViolation(
                    f"final mismatch: key {key!r} -> {got!r}, want {want!r}")
        db.check_invariants()
        case["ok"] = True
    except Exception as exc:  # noqa: BLE001 - every failure becomes a report row
        case["error"] = f"{type(exc).__name__}: {exc}"
    if db.sanitizer is not None:
        case["sanitizer_violations"] = db.sanitizer.violation_count
        if case["ok"] and db.sanitizer.violation_count:
            case["ok"] = False
            case["error"] = "sanitizer recorded violations"
    return case


def run_crash_matrix(engines: Sequence[str] = ("iam", "leveldb"), *,
                     n_ops: int = 400, per_site: int = 2, seed: int = 1,
                     sanitize: bool = True) -> Dict[str, Any]:
    """Enumerate crash points across the pipeline; assert the contract.

    For each engine: profile which sites the seeded workload reaches, then
    for every reachable site crash at up to ``per_site`` evenly-spread
    occurrences, for each torn-tail variant, recover, and validate.  Returns
    a JSON-able report; ``report["failures"]`` is empty iff the durability
    contract held everywhere.
    """
    ops = _make_ops(seed, n_ops)
    report: Dict[str, Any] = {
        "params": {"engines": list(engines), "n_ops": n_ops,
                   "per_site": per_site, "seed": seed,
                   "torn_variants": list(TORN_VARIANTS)},
        "sites": {}, "cases": [], "failures": [],
    }
    for engine in engines:
        counts = _profile_sites(engine, ops, sanitize=sanitize)
        report["sites"][engine] = counts
        for site in CRASH_SITES:
            for occurrence in _spread(counts.get(site, 0), per_site):
                for torn in TORN_VARIANTS:
                    case = _run_case(engine, ops, site, occurrence, torn,
                                     sanitize=sanitize)
                    report["cases"].append(case)
                    if not case["ok"]:
                        report["failures"].append(case)
    report["n_cases"] = len(report["cases"])
    report["n_failures"] = len(report["failures"])
    return report
