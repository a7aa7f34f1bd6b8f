"""Tracer, sampler and exporter unit tests, plus the metrics satellites."""

from __future__ import annotations

import json

import pytest

from tests.conftest import ALL_ENGINES, make_tiny_db
from repro.metrics import MetricsRegistry, StallStat
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    TraceConfig,
    Tracer,
    attach_trace,
    chrome_trace,
    jsonl_lines,
    merge_chrome_traces,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.tracer import ClockLike, PH_BEGIN, PH_END, PH_INSTANT, RING_CAPACITY


def make_tracer():
    clock = ClockLike()
    return clock, Tracer(clock)


# ------------------------------------------------------------------- tracer
def test_null_tracer_is_disabled_noop():
    assert NULL_TRACER.enabled is False
    assert NullTracer.enabled is False
    NULL_TRACER.instant("cat", "x", foo=1)
    NULL_TRACER.begin("cat", "x", 1)
    NULL_TRACER.end("cat", "x", 1)
    assert not hasattr(NULL_TRACER, "events")


def test_tracer_records_sim_time_events():
    clock, tracer = make_tracer()
    assert tracer.enabled is True
    clock.now = 0.25
    tracer.instant("compaction", "flush", records=3)
    clock.now = 0.5
    tracer.begin("job", "merge", 7, debt_s=0.1)
    clock.now = 0.75
    tracer.end("job", "merge", 7, debt_s=0.1)
    assert len(tracer) == 3
    (ts0, ph0, cat0, name0, sid0, args0) = tracer.events[0]
    assert (ts0, ph0, cat0, name0, sid0) == (0.25, PH_INSTANT, "compaction",
                                             "flush", None)
    assert args0 == {"records": 3}
    assert tracer.events[1][1] == PH_BEGIN
    assert tracer.events[2][1] == PH_END
    assert tracer.counts == {"flush": 1, "merge": 1}
    assert tracer.spans_opened == tracer.spans_closed == 1
    assert tracer.open_spans == {}


def test_tracer_ring_drops_oldest_and_counts():
    clock, tracer = make_tracer()
    total = RING_CAPACITY + 6
    for i in range(total):
        clock.now = float(i)
        tracer.instant("c", f"e{i % 8}")
    assert len(tracer) == RING_CAPACITY
    assert tracer.dropped == 6
    assert tracer.event_count() == total
    # The ring keeps the most recent window; per-name counts survive eviction.
    assert tracer.events[0][0] == 6.0 and tracer.events[-1][0] == total - 1
    assert sum(tracer.counts.values()) == total


def test_open_span_tracking():
    _, tracer = make_tracer()
    tracer.begin("job", "flush", 1)
    tracer.begin("job", "compact", 2)
    assert tracer.open_spans == {1: ("job", "flush"), 2: ("job", "compact")}
    tracer.end("job", "flush", 1)
    assert tracer.open_spans == {2: ("job", "compact")}


# ---------------------------------------------------------------- exporters
def test_jsonl_lines_are_compact_sorted_json():
    clock, tracer = make_tracer()
    clock.now = 0.001
    tracer.instant("db", "memtable-rotation", records=5, nbytes=100)
    lines = jsonl_lines(tracer)
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj == {"ts": 0.001, "ph": "i", "cat": "db",
                   "name": "memtable-rotation",
                   "args": {"records": 5, "nbytes": 100}}
    # Deterministic rendering: keys sorted, no whitespace.
    assert lines[0] == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert to_jsonl(tracer).endswith("\n")


def test_chrome_trace_shape_and_validation():
    clock, tracer = make_tracer()
    clock.now = 0.002
    tracer.instant("structure", "split", level=1)
    tracer.begin("job", "merge", 3)
    clock.now = 0.004
    tracer.end("job", "merge", 3)
    trace = chrome_trace(tracer, process_name="unit")
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    phases = [ev["ph"] for ev in events]
    assert phases.count("M") == 2 and "i" in phases
    instant = next(ev for ev in events if ev["ph"] == "i")
    assert instant["s"] == "t"
    assert instant["ts"] == pytest.approx(2000.0)  # microseconds


def test_chrome_trace_closes_inflight_spans():
    clock, tracer = make_tracer()
    tracer.begin("job", "compact", 9)
    clock.now = 0.01
    trace = chrome_trace(tracer)
    assert validate_chrome_trace(trace) == []
    end = [ev for ev in trace["traceEvents"] if ev["ph"] == PH_END]
    assert len(end) == 1
    assert end[0]["args"] == {"inflight": 1}


def test_validator_catches_bad_traces():
    assert validate_chrome_trace([]) == ["trace is not a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    unbalanced = {"traceEvents": [
        {"ph": "b", "pid": 1, "ts": 0, "cat": "job", "name": "x", "id": 1}]}
    assert any("unbalanced" in p for p in validate_chrome_trace(unbalanced))
    bad_ph = {"traceEvents": [{"ph": "Z", "pid": 1, "ts": 0, "name": "x"}]}
    assert any("invalid ph" in p for p in validate_chrome_trace(bad_ph))
    bad_counter = {"traceEvents": [
        {"ph": "C", "pid": 1, "ts": 0, "name": "c", "args": {"v": "nan?"}}]}
    assert any("not numeric" in p for p in validate_chrome_trace(bad_counter))


def test_merge_chrome_traces_concatenates_events():
    _, t1 = make_tracer()
    _, t2 = make_tracer()
    t1.instant("a", "one")
    t2.instant("b", "two")
    merged = merge_chrome_traces([chrome_trace(t1, pid=1),
                                  chrome_trace(t2, pid=2)])
    assert validate_chrome_trace(merged) == []
    pids = {ev["pid"] for ev in merged["traceEvents"]}
    assert pids == {1, 2}


# ------------------------------------------------------- metrics satellites
def test_cache_hit_rate_zero_division_guard():
    m = MetricsRegistry()
    assert m.cache_hit_rate() == 0.0
    assert m.summary()["cache_hit_rate"] == 0.0
    m.query_seeks, m.cache_hits, m.cache_misses = 1, 3, 1
    assert m.cache_hit_rate() == pytest.approx(0.75)


def test_stall_stat_and_longest_stall():
    m = MetricsRegistry()
    assert m.total_stall_s == 0.0
    assert m.longest_stall() is None
    m.add_stall("l0-stop", 0.2)
    m.add_stall("l0-stop", 0.5)
    m.add_stall("memtable-rotation", 0.3)
    st = m.stalls["l0-stop"]
    assert isinstance(st, StallStat)
    assert st.count == 2
    assert st.total_s == pytest.approx(0.7)
    assert st.max_s == pytest.approx(0.5)
    assert m.total_stall_s == pytest.approx(1.0)
    assert m.longest_stall() == ("l0-stop", pytest.approx(0.5))


def test_metrics_snapshot_is_a_copy():
    m = MetricsRegistry()
    m.add_user_bytes(100)
    m.level_write_bytes[1] += 50
    m.bump("split")
    m.record_latency("read", 0.001)
    m.add_stall("x", 0.1)
    snap = m.snapshot()
    assert snap["user_bytes"] == 100
    assert snap["level_write_bytes"] == {1: 50}
    assert snap["events"] == {"split": 1}
    assert snap["op_counts"] == {"read": 1}
    assert snap["stalls"]["x"][0] == 1
    # Mutating the snapshot must not touch the registry.
    snap["level_write_bytes"][2] = 999
    snap["events"]["bogus"] = 7
    assert 2 not in m.level_write_bytes
    assert "bogus" not in m.events


def test_metrics_reset_zeroes_everything():
    m = MetricsRegistry()
    m.add_user_bytes(10)
    m.add_wal_bytes(5)
    m.level_write_bytes[0] += 20
    m.add_compaction_read(3)
    m.query_seeks, m.cache_hits, m.cache_misses = 1, 1, 1
    m.bump("merge")
    m.record_latency("insert", 0.01)
    m.add_stall("y", 0.2)
    m.reset()
    assert m.snapshot() == MetricsRegistry().snapshot()
    assert m.total_stall_s == 0.0
    assert m.write_amplification() == 0.0


def test_db_stats_expose_stall_and_cache_fields():
    db = make_tiny_db("iam")
    try:
        for i in range(300):
            db.put(i, 64)
        for i in range(50):
            db.get(i)
        db.flush()
        db.quiesce()
        stats = db.stats()
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["total_stall_s"] >= 0.0
        assert stats["longest_stall_s"] >= 0.0
        if stats["longest_stall_s"] > 0.0:
            assert isinstance(stats["longest_stall_reason"], str)
    finally:
        db.close()


# ---------------------------------------------------------- live DB tracing
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_span_balance_after_quiesce(engine):
    """Every job begin has exactly one matching end once the pool drains."""
    db = make_tiny_db(engine)
    session = attach_trace(db, TraceConfig(sample_interval_s=0.001))
    try:
        for i in range(400):
            db.put(i, 64)
        for i in range(0, 400, 7):
            db.get(i)
        db.flush()
        db.quiesce()
        session.finish()
        assert session.tracer.spans_opened > 0
        assert session.tracer.spans_opened == session.tracer.spans_closed
        assert session.tracer.open_spans == {}
        trace = session.to_chrome()
        assert validate_chrome_trace(trace) == []
        assert len(session.sampler.rows) >= 1
        summary = session.summary()
        assert "busiest background jobs" in summary
    finally:
        db.close()


def test_sampler_rows_carry_fig8_columns():
    db = make_tiny_db("iam")
    session = attach_trace(db, TraceConfig(sample_interval_s=0.00001))
    try:
        for i in range(600):
            db.put(i, 64)
        db.flush()
        db.quiesce()
        session.finish()
        rows = session.sampler.rows
        assert len(rows) >= 2
        for key in ("ts", "level_data_bytes", "level_write_bytes",
                    "write_amplification", "read_amplification",
                    "space_amplification", "cache_hit_rate", "pending_debt_s",
                    "total_stall_s", "throughput_ops_s"):
            assert key in rows[0], key
        ts = [row["ts"] for row in rows]
        assert ts == sorted(ts)  # non-decreasing sample grid
        assert rows[-1]["ts"] <= db.clock_now
    finally:
        db.close()


def test_tracing_is_pay_for_what_you_use_by_default():
    """An untraced DB keeps the shared no-op sink and records nothing."""
    db = make_tiny_db("leveldb")
    try:
        assert db.runtime.tracer is NULL_TRACER
        assert db.runtime.pool.tracer is NULL_TRACER
        for i in range(200):
            db.put(i, 64)
        db.flush()
        db.quiesce()
        assert not hasattr(db.runtime.tracer, "events")
    finally:
        db.close()
