"""Stability observatory: probes, digests, the gated BENCH_stability report.

Four properties:

* **digest identities** -- windowed-throughput math telescopes exactly
  (duration-weighted mean == global rate; no ops lost to zero-duration
  window edges), and the sampler's run-end ``finalize`` flushes the final
  partial window (the tail of every timeline);
* **pay-for-what-you-use** -- a probed run's simulated results are
  byte-identical to an unprobed run (hypothesis, digest style of
  ``test_obs_determinism``), and probed runs are deterministic per seed;
* **report gating** -- ``check_stability`` passes only on the identical
  bytes: a one-ulp move, a config change or a missing key fails and names
  its JSON path, a re-indented file is not canonical, and a missing
  baseline fails;
* **prom exposition** -- deterministic bytes, cumulative buckets, ``+Inf``
  equals the count.
"""

from __future__ import annotations

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tests.conftest import make_tiny_db, tiny_iam_options, tiny_storage_options
from repro.db.iamdb import IamDB
from repro.obs.sampler import TimeseriesSampler
from repro.obs.stability import (
    StabilityProbe,
    downsample,
    percentile_timeline,
    stall_window,
    throughput_stats,
)

OPS = st.sampled_from(["put", "delete", "get", "scan"])
STEP = st.tuples(OPS, st.integers(min_value=0, max_value=255),
                 st.integers(min_value=16, max_value=96))


# ------------------------------------------------------------------- digests
def test_throughput_stats_mean_is_the_global_rate():
    rows = [{"ts": 0.0, "ops": 0}, {"ts": 1.0, "ops": 100},
            {"ts": 3.0, "ops": 150}, {"ts": 3.5, "ops": 400}]
    tp = throughput_stats(rows)
    assert tp["ops"] == 400.0
    assert tp["duration_s"] == 3.5
    assert tp["mean_ops_s"] == pytest.approx(400.0 / 3.5)
    assert tp["n_windows"] == 3.0
    assert tp["min_window_ops_s"] == pytest.approx(25.0)
    assert tp["max_window_ops_s"] == pytest.approx(500.0)
    assert tp["cv"] == pytest.approx(tp["std"] / tp["mean_ops_s"])


def test_throughput_stats_zero_duration_rows_keep_their_ops():
    """Run-end flush rows can share the last grid instant; ops must not
    fall on the floor (the bug this digest originally shipped with)."""
    rows = [{"ts": 0.0, "ops": 0}, {"ts": 1.0, "ops": 100},
            {"ts": 1.0, "ops": 101}]
    tp = throughput_stats(rows)
    assert tp["ops"] == 101.0
    assert tp["mean_ops_s"] == pytest.approx(101.0)
    # Leading zero-duration pair: ops carry forward into the next window.
    rows = [{"ts": 2.0, "ops": 10}, {"ts": 2.0, "ops": 12},
            {"ts": 4.0, "ops": 20}]
    tp = throughput_stats(rows)
    assert tp["ops"] == 10.0
    assert tp["mean_ops_s"] == pytest.approx(5.0)


def test_throughput_stats_degenerate_rows():
    assert throughput_stats([])["mean_ops_s"] == 0.0
    assert throughput_stats([{"ts": 1.0, "ops": 5}])["n_windows"] == 0.0
    same = [{"ts": 1.0, "ops": 5}, {"ts": 1.0, "ops": 9}]
    assert throughput_stats(same)["mean_ops_s"] == 0.0


def test_stall_window_diffs_cumulative_class_seconds():
    rows = [
        {"ts": 0.0, "stall_s_by_class": {"l0-stop": 0.1, "write-gate": 0.0}},
        {"ts": 2.0, "stall_s_by_class": {"l0-stop": 0.5, "write-gate": 0.3}},
    ]
    win = stall_window(rows)
    assert win["by_class"]["l0-stop"] == pytest.approx(0.4)
    assert win["by_class"]["write-gate"] == pytest.approx(0.3)
    assert win["total_s"] == pytest.approx(0.7)
    assert win["stall_fraction"] == pytest.approx(0.35)
    assert stall_window(rows[:1])["total_s"] == 0.0


def test_percentile_timeline_and_downsample():
    rows = [{"ts": float(i),
             "latency_window": {"get": {"p50": 1.0, "p99": 2.0,
                                        "p999": 3.0, "count": 10.0}}}
            for i in range(10)]
    rows.insert(3, {"ts": 2.5})  # histogram-less row: skipped
    points = percentile_timeline(rows, "get")
    assert len(points) == 10
    assert points[0] == {"ts": 0.0, "p50": 1.0, "p99": 2.0,
                         "p999": 3.0, "count": 10.0}
    assert percentile_timeline(rows, "scan") == []
    down = downsample(points, 4)
    assert len(down) == 4
    assert down[0] is points[0] and down[-1] is points[-1]
    assert downsample(points, 100) == points
    assert downsample(points, 1) == [points[-1]]


# ----------------------------------------------------------- sampler edges
def test_finalize_flushes_the_final_partial_window():
    db = make_tiny_db("iam")
    # Interval far beyond the run's sim time: without finalize the entire
    # run is one unflushed partial window and the timeline is empty.
    sampler = TimeseriesSampler(db, 1e6)
    db.runtime.attach_sampler(sampler)
    for i in range(300):
        db.put(i % 64, b"v" * 40)
    db.quiesce()
    assert sampler.rows == []          # never crossed a grid point
    sampler.finalize()
    assert len(sampler.rows) == 1
    total = sampler.rows[-1]["ops"]
    assert total >= 300
    # Idempotent: nothing advanced, so repeated finalize adds no row.
    sampler.finalize()
    assert len(sampler.rows) == 1
    # More ops then finalize again: one more row, cumulative ops grow.
    db.put(1, b"v" * 40)
    sampler.finalize()
    assert len(sampler.rows) == 2
    assert sampler.rows[-1]["ops"] > total
    db.close()


def test_finalize_row_completes_the_ops_timeline():
    db = make_tiny_db("iam")
    sampler = TimeseriesSampler(db, 0.0002)
    db.runtime.attach_sampler(sampler)
    for i in range(500):
        db.put(i % 100, b"v" * 48)
    db.quiesce()
    snap_total = sum(db.metrics.snapshot()["op_counts"].values())
    assert sampler.rows, "interval small enough to cross grid points"
    sampler.finalize()
    assert sampler.rows[-1]["ops"] == snap_total
    tp = throughput_stats([{"ts": 0.0, "ops": 0}] + list(sampler.rows))
    assert tp["ops"] == pytest.approx(snap_total, rel=1e-12)
    db.close()


# ------------------------------------------------------------------ probes
def _probe_run(n_ops: int = 400):
    db = make_tiny_db("iam")
    probe = StabilityProbe(db, interval_s=0.0005)
    mark = probe.mark()
    for i in range(n_ops):
        db.put(i % 128, b"v" * 40)
        if i % 7 == 0:
            db.get(i % 128)
    db.quiesce()
    report = probe.window_report(mark)
    db.close()
    return report


def test_probe_window_report_shape_and_identities():
    report = _probe_run()
    assert json.dumps(report)  # JSON-able end to end
    tp = report["throughput"]
    assert tp["mean_ops_s"] * tp["duration_s"] == pytest.approx(tp["ops"])
    assert tp["min_window_ops_s"] <= tp["mean_ops_s"] <= tp["max_window_ops_s"]
    assert 0.0 <= report["stalls"]["stall_fraction"] <= 1.0
    assert "put" in report["latency"]
    put = report["latency"]["put"]
    assert put["p50"] <= put["p99"] <= put["p999"] <= put["max"]
    assert report["timeline"]["throughput"]
    assert set(report["timeline"]["latency"]) == set(report["latency"])


def test_probe_reports_are_deterministic_per_seed():
    a, b = _probe_run(), _probe_run()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _digest_run(steps, *, probe: bool):
    db = IamDB("iam", engine_options=tiny_iam_options(),
               storage_options=tiny_storage_options())
    p = StabilityProbe(db, interval_s=0.00002) if probe else None
    mark = p.mark() if p else None
    reads = []
    for op, key, extra in steps:
        if op == "put":
            db.put(key, extra)
        elif op == "delete":
            db.delete(key)
        elif op == "get":
            reads.append((key, db.get(key)))
        else:
            reads.append(tuple(db.scan(key, key + 16, limit=4)))
    db.flush()
    db.quiesce()
    digest = {
        "wa": db.write_amplification(),
        "shape": db.engine.describe(),
        "space": db.space_used_bytes(),
        "clock": db.clock_now,
        "reads": reads,
    }
    report = p.window_report(mark) if p else None
    db.close()
    return digest, report


@settings(max_examples=10, deadline=None)
@given(steps=st.lists(STEP, min_size=40, max_size=160))
def test_probe_is_observation_only(steps):
    """Histograms + sampler enabled vs disabled: same simulated results."""
    plain, _ = _digest_run(steps, probe=False)
    probed, report = _digest_run(steps, probe=True)
    assert probed == plain
    assert report is not None and report["throughput"]["ops"] > 0


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(STEP, min_size=40, max_size=160))
def test_probed_runs_are_identical_per_seed(steps):
    _, report_a = _digest_run(steps, probe=True)
    _, report_b = _digest_run(steps, probe=True)
    assert (json.dumps(report_a, sort_keys=True)
            == json.dumps(report_b, sort_keys=True))


# ----------------------------------------------------------- report gating
def _tiny_report():
    from repro.bench.stability import run_suite

    return run_suite(["iam"], records=1500, ops=400, interval_s=0.001)


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """The tiny report and its baseline file, written by ``write_report``."""
    from repro.bench.stability import write_report

    report = _tiny_report()
    baseline = tmp_path_factory.mktemp("stability") / "BENCH_stability.json"
    write_report(report, baseline)
    return report, baseline


def test_a_rerun_passes_and_a_missing_baseline_fails(gated, tmp_path):
    from repro.bench.stability import check_stability

    report, baseline = gated
    assert check_stability(report, baseline) == []
    assert check_stability(_tiny_report(), baseline) == []  # deterministic
    missing = tmp_path / "BENCH_stability.json"
    assert check_stability(report, missing) == [f"no baseline at {missing}"]


def test_one_ulp_names_its_full_path(gated):
    from repro.bench.stability import check_stability

    report, baseline = gated
    moved = json.loads(json.dumps(report))
    put = moved["engines"]["iam"]["load"]["latency"]["put"]
    old = put["p999"]
    put["p999"] = math.nextafter(old, math.inf)
    assert check_stability(moved, baseline) == [
        f"engines/iam/load/latency/put/p999: {old!r} -> {put['p999']!r}"]


def test_config_and_list_changes_name_their_path(gated):
    from repro.bench.stability import check_stability

    report, baseline = gated
    moved = json.loads(json.dumps(report))
    moved["config"]["records"] += 1
    n = report["config"]["records"]
    assert check_stability(moved, baseline) == [f"config/records: {n} -> {n + 1}"]
    moved = json.loads(json.dumps(report))
    moved["config"]["engines"].append("lsa")
    assert check_stability(moved, baseline) == [
        "config/engines/1: missing from the baseline"]
    del moved["engines"]["iam"]["ycsb_a"]
    moved["config"] = report["config"]
    assert check_stability(moved, baseline) == [
        "engines/iam/ycsb_a: missing from the report"]


def test_an_equal_but_reindented_file_is_not_canonical(gated, tmp_path):
    from repro.bench.stability import check_stability

    report, _ = gated
    loose = tmp_path / "BENCH_stability.json"
    loose.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    failures = check_stability(report, loose)
    assert len(failures) == 1 and "not in canonical form" in failures[0]
    assert "--update" in failures[0]


def test_bench_main_flags(tmp_path):
    from repro.bench.stability import main

    out = tmp_path / "BENCH_stability.json"
    argv = ["--engine", "iam", "--records", "1500", "--ops", "400",
            "--out", str(out)]
    # --check without a baseline fails; --update then writes one.
    assert main(argv + ["--check"]) == 1
    assert main(argv + ["--update"]) == 0
    assert out.exists()
    assert main(argv + ["--check"]) == 0
    # Refuses to overwrite the baseline from a --quick run.
    assert main(argv + ["--quick", "--update"]) == 2


# -------------------------------------------------------------------- prom
def test_render_prom_deterministic_and_cumulative():
    db = make_tiny_db("iam")
    db.metrics.enable_histograms()
    for i in range(200):
        db.put(i % 50, b"v" * 40)
        if i % 3 == 0:
            db.get(i % 50)
    db.quiesce()
    text = db.metrics.render_prom(extra_gauges={
        "sim_time_seconds": db.runtime.clock.now})
    assert text == db.metrics.render_prom(extra_gauges={
        "sim_time_seconds": db.runtime.clock.now})
    assert "repro_user_bytes_total" in text
    assert "repro_sim_time_seconds" in text

    # Histogram buckets are cumulative and end at +Inf == count.
    put_buckets = []
    put_count = None
    for line in text.splitlines():
        if line.startswith("repro_op_latency_seconds_bucket{op=\"put\""):
            put_buckets.append(int(line.rsplit(" ", 1)[1]))
        if line.startswith("repro_op_latency_seconds_count{op=\"put\""):
            put_count = int(line.rsplit(" ", 1)[1])
    assert put_buckets == sorted(put_buckets)
    assert put_count is not None and put_buckets[-1] == put_count
    assert put_count == db.metrics.op_hist["put"].count
    db.close()


def test_trace_cli_prom_flag(tmp_path, capsys):
    from repro.cli import main as cli_main

    prom_path = tmp_path / "metrics.prom"
    rc = cli_main(["trace", "load", "--engine", "iam",
                   "--records", "2000", "--prom", str(prom_path)])
    assert rc == 0
    text = prom_path.read_text()
    assert "repro_op_latency_seconds_bucket" in text
    assert "repro_sim_time_seconds" in text
    out = capsys.readouterr().out
    assert "Prometheus text exposition" in out
