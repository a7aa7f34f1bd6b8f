"""Tracing is deterministic and observation-only.

Two properties, mirroring the sanitizer-equivalence suite:

* **byte-identical traces** -- two runs with the same seed and options emit
  the exact same JSONL bytes (events and sampler rows), including across a
  crash/recovery cycle;
* **observation-only** -- a traced run's write amplification, tree shape,
  space and simulated clock are byte-identical to an untraced run.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tests.conftest import tiny_iam_options, tiny_storage_options
from repro.db.iamdb import IamDB
from repro.obs import TraceConfig, attach_trace, validate_chrome_trace

# One mixed-workload step: (op, key, extra).
OPS = st.sampled_from(["put", "delete", "get", "scan"])
STEP = st.tuples(OPS, st.integers(min_value=0, max_value=255),
                 st.integers(min_value=16, max_value=96))

TRACE_CONFIG = TraceConfig(sample_interval_s=0.00002)


def run_workload(engine: str, steps, *, trace: bool, crash_at=None):
    db = IamDB(engine, engine_options=tiny_iam_options(),
               storage_options=tiny_storage_options())
    session = attach_trace(db, TRACE_CONFIG) if trace else None
    reads = []
    for i, (op, key, extra) in enumerate(steps):
        if op == "put":
            db.put(key, extra)
        elif op == "delete":
            db.delete(key)
        elif op == "get":
            reads.append((key, db.get(key)))
        else:
            reads.append(tuple(db.scan(key, key + 16, limit=4)))
        if crash_at is not None and i == crash_at:
            db.flush()
            db.crash_and_recover()
    db.flush()
    db.quiesce()
    digest = {
        "wa": db.write_amplification(),
        "shape": db.engine.describe(),
        "space": db.space_used_bytes(),
        "clock": db.clock_now,
        "reads": reads,
    }
    jsonl = None
    if session is not None:
        session.finish()
        jsonl = session.to_jsonl()
        assert validate_chrome_trace(session.to_chrome()) == []
    db.close()
    return digest, jsonl


@settings(max_examples=10, deadline=None)
@given(steps=st.lists(STEP, min_size=40, max_size=160),
       engine=st.sampled_from(["iam", "lsa"]))
def test_same_seed_yields_byte_identical_jsonl(steps, engine):
    crash_at = len(steps) // 2
    digest_a, jsonl_a = run_workload(engine, steps, trace=True,
                                     crash_at=crash_at)
    digest_b, jsonl_b = run_workload(engine, steps, trace=True,
                                     crash_at=crash_at)
    assert jsonl_a is not None and jsonl_a == jsonl_b
    assert digest_a == digest_b


@settings(max_examples=10, deadline=None)
@given(steps=st.lists(STEP, min_size=40, max_size=160),
       engine=st.sampled_from(["iam", "lsa"]))
def test_traced_run_is_observation_only(steps, engine):
    crash_at = len(steps) // 2
    plain, _ = run_workload(engine, steps, trace=False, crash_at=crash_at)
    traced, jsonl = run_workload(engine, steps, trace=True, crash_at=crash_at)
    assert jsonl  # the traced run actually recorded something
    assert traced == plain


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(STEP, min_size=30, max_size=120))
def test_span_balance_property(steps):
    """Every job begin has exactly one end after the pool fully drains."""
    db = IamDB("iam", engine_options=tiny_iam_options(),
               storage_options=tiny_storage_options())
    session = attach_trace(db, TRACE_CONFIG)
    for op, key, extra in steps:
        if op == "put":
            db.put(key, extra)
        elif op == "delete":
            db.delete(key)
        elif op == "get":
            db.get(key)
        else:
            list(db.scan(key, key + 16, limit=4))
    db.flush()
    db.quiesce()
    tracer = session.tracer
    assert tracer.spans_opened == tracer.spans_closed
    assert tracer.open_spans == {}
    db.close()
