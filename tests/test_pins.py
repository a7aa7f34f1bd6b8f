"""The pinned e2e facts: the table's shape, and ``check``'s verdicts on
canned ``run.py`` output (no e2e run; ``python -m tests.pins`` makes them)."""

import json
from pathlib import Path

import pytest

from tests.pins import check, load_pins

PINS = load_pins()
FACTS = {"workload", "seed", "trace", "why", "sim_digest", "host_calls_per_op",
         "latency_us", "above_zero"}


def _pin(workload, seed, trace):
    return next(p for p in PINS if (p["workload"], p["seed"], p["trace"]) == (workload, seed, trace))


def _stdout(entry, digest=None, calls=None, latency=(), zero=None):
    """What ``run.py`` prints for ``entry``: every fact held unless moved."""
    detail = {"sim_digest": digest or entry.get("sim_digest", "0" * 16),
              "latency_us": {**entry.get("latency_us", {}), **dict(latency)}}
    metrics = {} if entry["trace"] else {  # a traced run reports no call count
        "host_calls_per_op": {"value": calls or entry.get("host_calls_per_op", 99) - 1}}
    metrics.update({m: {"value": 0.0 if m == zero else 3.0} for m in entry.get("above_zero", ())})
    return "\n".join([f"# {entry['workload']}  seed={entry['seed']}", "metric  value",
                      "detail: " + json.dumps(detail),
                      json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})])


def test_one_entry_per_run_and_every_workload_pinned_at_seed_11():
    runs = [(p["workload"], p["seed"], p["trace"]) for p in PINS]
    assert len(runs) == len(set(runs)) == 18
    bench = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    workloads = {w["name"] for w in json.loads(bench.read_text())["workloads"]}
    assert {w for w, _, _ in runs} == workloads and len(workloads) == 7
    for p in PINS:
        assert set(p) <= FACTS and p["why"], p
    for w in workloads:
        base = _pin(w, 11, 0)
        assert len(base["sim_digest"]) == 16 and base["host_calls_per_op"] > 0


def test_a_run_that_holds_every_fact_passes():
    for p in PINS:
        assert check(p, 0, _stdout(p)) == []


LOAD, LEDGER = _pin("load_iam", 11, 0), _pin("load_leveldb", 11, 1)


@pytest.mark.parametrize("entry, rc, moved, fact", [
    (LOAD, 0, dict(digest="f" * 16), f"sim_digest {LOAD['sim_digest']} -> ffff"),
    (LOAD, 0, dict(calls=LOAD["host_calls_per_op"] + 0.01), "host_calls_per_op <= "),
    (LOAD, 0, dict(latency={"sim_write_p999_us": 0.5}), "latency_us.sim_write_p999_us "),
    (LEDGER, 0, dict(zero="engine.flushes"), "engine.flushes > 0 -> 0.0"),
    (LOAD, 1, {}, "exit 0 -> 1"),
], ids=["digest", "ceiling", "latency", "ledger", "exit"])
def test_a_moved_fact_is_one_line_naming_the_run(entry, rc, moved, fact):
    [line] = check(entry, rc, _stdout(entry, **moved))
    assert line.startswith(f"{entry['workload']} seed 11 trace {entry['trace']}: {fact}")
