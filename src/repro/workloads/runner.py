"""Workload reports and the YCSB operation runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.db.iamdb import IamDB

if TYPE_CHECKING:  # cycle-free: ycsb imports this module's report types
    from repro.workloads.ycsb import YcsbSpec


@dataclass
class WorkloadReport:
    """Outcome of one workload phase against one DB instance."""

    name: str
    engine: str
    ops: int
    sim_seconds: float
    #: Operations per simulated second (the paper's IOPS/throughput axis).
    throughput: float
    write_amplification: float
    per_level_write_amplification: Dict[int, float]
    space_used_bytes: int
    #: Per-op-type tail digests: {"insert": {"p50":..,"p99":..,"max":..}, ...}
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def p99(self, op: str) -> float:
        return self.latency.get(op, {}).get("p99", 0.0)

    def max_latency(self, op: str) -> float:
        return self.latency.get(op, {}).get("max", 0.0)

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "workload": self.name,
            "engine": self.engine,
            "ops": self.ops,
            "sim_s": round(self.sim_seconds, 4),
            "ops_per_s": round(self.throughput, 1),
            "WA": round(self.write_amplification, 3),
            "space_MB": round(self.space_used_bytes / 1e6, 3),
        }


def latency_marks(db: IamDB) -> Dict[str, int]:
    """Per-op sample counts, for windowed latency reporting."""
    return {op: rec.count for op, rec in db.metrics.latency.items()}


def finish_report(db: IamDB, name: str, ops: int, t0: float,
                  marks: Optional[Dict[str, int]] = None) -> WorkloadReport:
    """Build a report for the window since simulated time ``t0``.

    ``marks`` (from :func:`latency_marks`) restricts latency digests to the
    samples recorded during this window.
    """
    sim = db.runtime.clock.now - t0
    marks = marks or {}
    latency = {}
    for op, rec in db.metrics.latency.items():
        summary = rec.window_summary(marks.get(op, 0))
        if summary["count"]:
            latency[op] = summary
    return WorkloadReport(
        name=name,
        engine=db.engine.name,
        ops=ops,
        sim_seconds=sim,
        throughput=(ops / sim) if sim > 0 else 0.0,
        write_amplification=db.write_amplification(),
        per_level_write_amplification=db.per_level_write_amplification(),
        space_used_bytes=db.space_used_bytes(),
        latency=latency,
        extra={"stats": db.stats()},
    )


def run_ycsb(db: IamDB, spec: "YcsbSpec", n_ops: int, n_records: int, *, seed: int = 11,
             value_size: int = 256, clients: int = 1) -> WorkloadReport:
    """Run ``n_ops`` operations of a YCSB workload spec (see ycsb.py).

    ``n_records`` is the loaded record count; keys are ``permute64(item)``
    as produced by :func:`repro.workloads.dbbench.hash_load`.

    ``clients > 1`` models concurrent front-end clients deterministically:
    each client gets its own seeded op stream with a rotated key-space
    offset (client c starts at item ``c * n_records // clients``) and the
    requests interleave round-robin, one op per client per turn.  The total
    op count stays ``n_ops``; ``clients=1`` is byte-identical to the
    original single-stream runner.
    """
    from repro.workloads.ycsb import build_op_stream  # cycle-free local import

    if clients < 1:
        raise ValueError("clients must be >= 1")
    t0 = db.runtime.clock.now
    marks = latency_marks(db)
    ops = 0
    if clients == 1:
        stream = build_op_stream(db, spec, n_ops, n_records, seed=seed,
                                 value_size=value_size)
        for op in stream:
            op()
            ops += 1
        return finish_report(db, spec.name, ops, t0, marks)
    # Shared insert counter: concurrent clients never collide on a new key.
    insert_state = {"inserted": n_records}
    streams = []
    for c in range(clients):
        client_ops = (n_ops - c + clients - 1) // clients
        streams.append(build_op_stream(
            db, spec, client_ops, n_records, seed=seed,
            value_size=value_size, client=c,
            key_offset=(c * n_records) // clients,
            insert_state=insert_state))
    live = list(streams)
    while live:
        finished = []
        for stream in live:
            op = next(stream, None)
            if op is None:
                finished.append(stream)
                continue
            op()
            ops += 1
        for stream in finished:
            live.remove(stream)
    return finish_report(db, spec.name, ops, t0, marks)
