"""The sanitizer is observation-only: a sanitized run must be byte-identical
to an unsanitized one -- same write amplification, same final tree shape, same
simulated clock -- and a well-formed workload must produce zero violations."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.check.sanitizer import SanitizerOptions
from repro.db.iamdb import ENGINE_TABLE, IamDB
from repro.faults.crash import tiny_store

# One mixed-workload step: (op, key, extra).
OPS = st.sampled_from(["put", "delete", "get", "scan"])
STEP = st.tuples(OPS, st.integers(min_value=0, max_value=255),
                 st.integers(min_value=16, max_value=96))


def run_workload(engine: str, steps, *, sanitize: bool, crash_at=None):
    options = SanitizerOptions() if sanitize else None
    db = IamDB(engine, sanitizer_options=options, **tiny_store(engine))
    reads = []
    for i, (op, key, extra) in enumerate(steps):
        if op == "put":
            db.put(key, extra)
        elif op == "delete":
            db.delete(key)
        elif op == "get" or engine == "lsmtrie":  # LSM-trie refuses scans
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
    violations = None if db.sanitizer is None else list(db.sanitizer.violations)
    db.close()
    return digest, violations


@settings(max_examples=18, deadline=None)
@given(steps=st.lists(STEP, min_size=40, max_size=160),
       engine=st.sampled_from(list(ENGINE_TABLE)))
def test_sanitized_run_is_byte_identical(steps, engine):
    crash_at = len(steps) // 2
    plain, _ = run_workload(engine, steps, sanitize=False, crash_at=crash_at)
    checked, violations = run_workload(engine, steps, sanitize=True,
                                       crash_at=crash_at)
    assert violations == []
    assert checked == plain


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(STEP, min_size=30, max_size=100))
def test_ycsb_style_mix_has_no_violations(steps):
    _, violations = run_workload("iam", steps, sanitize=True)
    assert violations == []
