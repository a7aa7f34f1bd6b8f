"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e/tests``).

Runs every workload at ``--quick`` sizes in its own process, as the driver
does.  Not part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: int, seed: int = spec.DEFAULT_SEED, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def results():
    return {(name, trace): parse(run(name, trace))
            for name in spec.WORKLOAD_NAMES for trace in (0, 1)}


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_declared_names_units_and_counts():
    assert len(spec.WORKLOADS) == 7
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    names = ([w.name for w in spec.WORKLOADS] + spec.END_TO_END_NAMES
             + spec.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_every_metric_reported(results, name):
    result, detail = results[(name, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == spec.END_TO_END_NAMES
    for metric in spec.END_TO_END:
        got = result["metrics"][metric.name]
        assert got["unit"] == metric.unit
        assert isinstance(got["value"], (int, float)) and got["value"] > 0, metric.name
    assert detail["failed_ops_share"] == 0 and not detail["problems"]
    assert detail["host_ops_per_s"] > 0

    traced, traced_detail = results[(name, 1)]
    assert traced["correct"]
    assert list(traced["metrics"]) == spec.PER_LAYER_NAMES
    for metric in spec.PER_LAYER:
        got = traced["metrics"][metric.name]
        assert got["unit"] == metric.unit
        assert isinstance(got["value"], (int, float)), metric.name
    # wrappers and histograms are inert: both traces saw the same simulation
    assert traced_detail["sim_digest"] == detail["sim_digest"]


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_ledger_accounting_closes(results, name):
    values = {k: v["value"] for k, v in results[(name, 1)][0]["metrics"].items()}
    wall = values["observed_wall_s"]
    accounted = (sum(values[n] for n in spec.SELF_TIME_NAMES)
                 + values["unattributed_host_s"])
    assert accounted == pytest.approx(wall, rel=0.01)
    assert abs(values["unattributed_host_s"]) < 0.05 * wall


def test_layers_light_up_only_where_they_should(results):
    def layer(name):
        return {k: v["value"] for k, v in results[(name, 1)][0]["metrics"].items()}

    single = [n for n in spec.WORKLOAD_NAMES if n.endswith("_iam") or n == "load_leveldb"]
    for name in single:
        values = layer(name)
        assert all(values[k] == 0 for k in values
                   if k.startswith(("cluster.", "objstore."))), name
        scans = values["table.scan_host_s"]
        assert (scans > 0) == (name == "ycsb_e_iam"), name
    assert layer("cluster_a_4x2")["cluster.network.messages"] > 0
    assert layer("cluster_a_4x2")["objstore.store.requests"] == 0
    assert layer("objstore_load_4x2")["objstore.manifestlog.cuts"] > 0
    assert layer("load_leveldb")["engine.compactions"] > 0
    assert layer("load_iam")["filters.bloom.probe_host_s"] == 0
    assert layer("ycsb_c_iam")["engine.write_gate_calls"] == 0


def test_seed_decides_the_simulation(results):
    _, base = results[("ycsb_a_iam", 0)]
    _, again = parse(run("ycsb_a_iam", 0))
    _, other = parse(run("ycsb_a_iam", 0, seed=spec.DEFAULT_SEED + 1))
    assert again["sim_digest"] == base["sim_digest"]
    assert again["sim"] == base["sim"]
    assert other["sim_digest"] != base["sim_digest"]
    # the YCSB op stream itself differs, not only its outcome
    assert other["sim"]["latency"] != base["sim"]["latency"]


def test_wrappers_restore_exact_originals():
    import repro.core.lsa
    import repro.lsm.leveled
    import repro.table.merge
    from repro.filters.bloom import BloomFilter
    from repro.storage.background import BackgroundPool

    watched = {
        "bloom.build": lambda: BloomFilter.__dict__["build"],
        "pool.submit": lambda: BackgroundPool.__dict__["submit"],
        "merge@merge": lambda: repro.table.merge.merge_runs,
        "merge@lsa": lambda: repro.core.lsa.merge_runs,
        "merge@leveled": lambda: repro.lsm.leveled.merge_runs,
    }
    before = {key: get() for key, get in watched.items()}
    assert isinstance(before["bloom.build"], staticmethod)
    handle = ledger_mod.install(ledger_mod.Ledger())
    try:
        during = {key: get() for key, get in watched.items()}
        assert all(during[key] is not before[key] for key in watched)
        assert isinstance(during["bloom.build"], staticmethod)
        assert repro.core.lsa.merge_runs is repro.lsm.leveled.merge_runs
    finally:
        handle.uninstall()
    assert all(get() is before[key] for key, get in watched.items())


def test_ledger_self_times():
    led = ledger_mod.Ledger()

    def leaf():
        return sum(range(2000))

    inner = led.wrap(leaf, "inner")

    def parent():
        return inner() + inner()

    outer = led.wrap(parent, "outer")

    def numbers():
        for _ in range(3):
            yield inner()

    gen = led.wrap(numbers, "gen")
    outer()
    assert len(list(gen())) == 3
    totals = led.totals()
    assert totals.calls("inner") == 5 and totals.calls("outer") == 1
    assert totals.calls("gen") == 1
    assert all(totals.host_s(b) >= 0 for b in ("inner", "outer", "gen"))
    led.reset()
    assert led.totals().total_self_s() == 0 and led.totals().calls("inner") == 0


def test_compare_verdicts():
    host = spec.HOST_OPS
    sim = next(m for m in spec.END_TO_END if m.name == "write_amp")
    step = 100.0 * host.bound
    assert compare.verdict(host, [100.0], [100.0 + step / 2]) == "same"
    assert compare.verdict(host, [100.0], [100.0 + 2 * step]) == "better"
    assert compare.verdict(host, [100.0], [100.0 - 2 * step]) == "worse"
    assert compare.verdict(host, [100.0, 100.0 - step, 100.0 + step],
                           [100.0 + 2 * step]) == "unresolved"
    assert compare.verdict(sim, [4.5], [4.5]) == "same"
    assert compare.verdict(sim, [4.5], [4.5000001]) == "worse"
    assert compare.verdict(sim, [4.5], [4.4]) == "better"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run("load_iam", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
