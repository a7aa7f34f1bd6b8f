"""Fixture tests for the whole-program effects gate (REP100...REP105).

Each rule gets a positive fixture (minimal code that fires), a negative
fixture (the equivalent clean code), and a noqa round-trip.  Fixtures are
written as real mini-package trees named ``repro/...`` under ``tmp_path``
and pushed through the full pipeline -- call-graph build, fixpoint
inference, contract checks, suppression and baseline layers -- exactly as
``python -m repro check --gate effects`` would, just over a smaller root.

The second half covers the machinery around the analysis: the baseline
file (matching, --strict, stale entries), the JSON report, the identity
guarantee of the ``@effects`` / ``@observation_only`` decorators (they
must not change runtime behavior -- proven on a live smoke workload), and
the runner's gate aggregation (a raising gate reports ERROR and the
remaining gates still run).
"""

from __future__ import annotations

import json
import random
import types
from pathlib import Path

import pytest

from repro.check.effects.callgraph import CallGraph
from repro.check.effects.contracts import EFFECT_RULES, check_contracts
from repro.check.effects.gate import (
    BaselineEntry,
    load_baseline,
    run_effects_gate,
    write_report,
)
from repro.check.effects.infer import infer_effects
from repro.check.effects.registry import (
    ALL_EFFECTS,
    OBSERVATION_FORBIDDEN,
    effects,
    observation_only,
)
from repro.common.errors import ConfigError


def build_tree(tmp_path: Path, files: "dict[str, str]") -> Path:
    """Materialize ``{relpath: source}`` under ``tmp_path/repro``."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        for parent in path.parents:
            if parent == root.parent:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


def analyze(tmp_path: Path, files: "dict[str, str]"):
    """(findings, effect table) of a fixture tree, pre-suppression."""
    root = build_tree(tmp_path, files)
    graph = CallGraph.build(root)
    table = infer_effects(graph)
    return check_contracts(graph, table), table


def gate(tmp_path: Path, files: "dict[str, str]", **kwargs):
    """Full gate run (noqa + baseline layers) over a fixture tree."""
    root = build_tree(tmp_path, files)
    kwargs.setdefault("baseline", tmp_path / "absent-baseline.json")
    return run_effects_gate(root, **kwargs)


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------- REP100
class TestRep100DeclarationExceeded:
    def test_fires_when_inference_exceeds_declaration(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            '@effects("STATE_MUTATE")\n'
            "def f(self, clock):\n"
            "    clock.now = 5.0\n"
            "    self.x = 1\n")})
        assert rules_of(findings) == ["REP100"]
        assert "CLOCK_ADVANCE" in findings[0].message

    def test_quiet_when_declaration_covers_inference(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            '@effects("CLOCK_ADVANCE", "STATE_MUTATE")\n'
            "def f(self, clock):\n"
            "    clock.now = 5.0\n"
            "    self.x = 1\n")})
        assert rules_of(findings) == []

    def test_effect_flows_through_a_callee(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "def helper(clock):\n"
            "    clock.advance(1.0)\n"
            "\n"
            '@effects("STATE_MUTATE")\n'
            "def f(self, clock):\n"
            "    self.x = 1\n"
            "    helper(clock)\n")})
        assert rules_of(findings) == ["REP100"]
        assert "helper" in findings[0].message  # witness chain names it

    def test_noqa_on_decorator_line_suppresses(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            '@effects("STATE_MUTATE")  # repro: noqa-REP100\n'
            "def f(self, clock):\n"
            "    clock.now = 5.0\n"
            "    self.x = 1\n")})
        assert result.findings == []
        assert result.n_suppressed == 1


# ----------------------------------------------------------------- REP101
class TestRep101ObservationPurity:
    def test_fires_on_clock_advance_in_observer(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "@observation_only\n"
            "def stats(self):\n"
            "    self.clock.advance(1.0)\n"
            "    return {}\n")})
        assert rules_of(findings) == ["REP101"]

    def test_fires_through_a_call_chain(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import time\n"
            "def helper():\n"
            "    return time.time()\n"
            "\n"
            "@observation_only\n"
            "def stats(self):\n"
            "    return helper()\n")})
        # helper itself also draws REP105 (undeclared host time).
        assert "REP101" in rules_of(findings)

    def test_state_mutation_is_allowed_in_observers(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "@observation_only\n"
            "def stats(self):\n"
            "    self.rows.append(1)\n"
            "    self.cached = len(self.rows)\n"
            "    return self.cached\n")})
        assert rules_of(findings) == []

    def test_noqa_round_trip(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            "@observation_only  # repro: noqa-REP101\n"
            "def stats(self):\n"
            "    self.clock.advance(1.0)\n")})
        assert result.findings == []


# ----------------------------------------------------------------- REP102
class TestRep102RawDeviceCalls:
    def test_fires_outside_repro_storage(self, tmp_path):
        findings, _ = analyze(tmp_path, {"engine/m.py": (
            "def read(self, disk):\n"
            "    return disk.fg_io(4096)\n")})
        assert "REP102" in rules_of(findings)

    def test_quiet_inside_repro_storage(self, tmp_path):
        findings, _ = analyze(tmp_path, {"storage/m.py": (
            "def read(self, disk):\n"
            "    return disk.fg_io(4096)\n")})
        assert "REP102" not in rules_of(findings)

    def test_file_level_noqa(self, tmp_path):
        result = gate(tmp_path, {"engine/m.py": (
            "# repro: noqa-file-REP102\n"
            "def read(self, disk):\n"
            "    return disk.fg_io(4096)\n"
            "def drain(self, disk):\n"
            "    return disk.sync_drain(1.0)\n")})
        assert "REP102" not in rules_of(result.findings)


# ----------------------------------------------------------------- REP103
class TestRep103SeededRng:
    def test_fires_on_module_global_draw(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import random\n"
            "def sample():\n"
            "    return random.random()\n")})
        assert "REP103" in rules_of(findings)

    def test_fires_on_unseeded_constructor(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import random\n"
            "def make():\n"
            "    return random.Random()\n")})
        assert "REP103" in rules_of(findings)

    def test_quiet_on_seeded_instance_draw(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import random\n"
            "def sample(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n")})
        assert "REP103" not in rules_of(findings)

    def test_noqa_round_trip(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            "import random\n"
            "def sample():\n"
            "    return random.random()  # repro: noqa-REP103\n")})
        assert "REP103" not in rules_of(result.findings)


# ----------------------------------------------------------------- REP104
class TestRep104SpanBalance:
    def test_fires_on_unmatched_begin(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "def f(tracer):\n"
            '    tracer.begin("cat", "name", 1)\n')})
        assert rules_of(findings) == ["REP104"]

    def test_fires_on_early_return_leak(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "def f(tracer, cond):\n"
            '    tracer.begin("cat", "name", 1)\n'
            "    if cond:\n"
            "        return None\n"
            '    tracer.end("cat", "name", 1)\n')})
        assert rules_of(findings) == ["REP104"]

    def test_quiet_on_balanced_paths(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "def f(tracer, cond):\n"
            '    tracer.begin("cat", "name", 1)\n'
            "    if cond:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            '    tracer.end("cat", "name", 1)\n'
            "    return x\n")})
        assert rules_of(findings) == []

    def test_quiet_on_try_finally(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "def f(tracer, body):\n"
            '    tracer.begin("cat", "name", 1)\n'
            "    try:\n"
            "        body()\n"
            "    finally:\n"
            '        tracer.end("cat", "name", 1)\n')})
        assert rules_of(findings) == []

    def test_declared_half_span_is_exempt(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            '@effects("SPAN_BEGIN", "STATE_MUTATE")\n'
            "def activate(self, tracer, job):\n"
            '    tracer.begin("job", job, 1)\n'
            "    self.active = job\n")})
        assert rules_of(findings) == []

    def test_noqa_round_trip(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            "def f(tracer):  # repro: noqa-REP104\n"
            '    tracer.begin("cat", "name", 1)\n')})
        assert result.findings == []


# ----------------------------------------------------------------- REP105
class TestRep105DeclaredHostTime:
    def test_fires_on_undeclared_read(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n")})
        assert rules_of(findings) == ["REP105"]

    def test_quiet_when_declared(self, tmp_path):
        findings, _ = analyze(tmp_path, {"m.py": (
            "import time\n"
            '@effects("HOST_TIME")\n'
            "def f():\n"
            "    return time.perf_counter()\n")})
        assert rules_of(findings) == []

    def test_caller_of_declared_reader_is_not_flagged(self, tmp_path):
        # HOST_TIME propagates for REP100/REP101 purposes, but REP105
        # anchors on the *direct* leaf only -- no cascade up the stack.
        findings, _ = analyze(tmp_path, {"m.py": (
            "import time\n"
            '@effects("HOST_TIME")\n'
            "def timer():\n"
            "    return time.perf_counter()\n"
            "\n"
            "def caller():\n"
            "    return timer()\n")})
        assert rules_of(findings) == []

    def test_noqa_round_trip(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()  # repro: noqa-REP105\n")})
        assert result.findings == []


# ------------------------------------------------- analyzer registries
class TestRegistryEntriesMustResolve:
    """SEED_EFFECTS / SERVER_OWNERS are looked up by name.  PR 22's first
    draft renamed both seeded ``_enqueue``s away: NET_CHARGE and
    OBJSTORE_CHARGE lost their only origin and the gate still passed."""

    def test_entry_naming_deleted_code_fails_the_gate(self, tmp_path):
        with pytest.raises(ConfigError, match=r"iterator\.merge_visible, "
                           r"repro\.db\.iterator\.DbIterator\.__next__"):
            gate(tmp_path, {"db/iterator.py": "def merge_visible2(): pass\n"})
        with pytest.raises(ConfigError, match="network.SimNetwork"):
            gate(tmp_path, {"cluster/network.py": "class Fabric: pass\n"})

    def test_live_entries_seed_their_effects(self, tmp_path):
        result = gate(tmp_path, {"db/iterator.py": (
            "def merge_visible(streams):\n"
            "    return list(streams)\n"
            "class DbIterator:\n"
            "    def __next__(self):\n"
            "        return 1\n")})
        assert result.findings == []
        assert result.table["repro.db.iterator.merge_visible"].inferred == {
            "CLOCK_ADVANCE", "DISK_CHARGE"}


# ----------------------------------------------------- inference mechanics
class TestInference:
    def test_fixpoint_closes_over_cycles(self, tmp_path):
        _, table = analyze(tmp_path, {"m.py": (
            "def a(clock, n):\n"
            "    clock.advance(1.0)\n"
            "    return b(clock, n - 1) if n else 0\n"
            "def b(clock, n):\n"
            "    return a(clock, n)\n")})
        assert "CLOCK_ADVANCE" in table["repro.m.a"].inferred
        assert "CLOCK_ADVANCE" in table["repro.m.b"].inferred

    def test_nested_def_charged_to_definer(self, tmp_path):
        _, table = analyze(tmp_path, {"m.py": (
            "def submit(pool, clock):\n"
            "    def job():\n"
            "        clock.advance(1.0)\n"
            "    pool.append(job)\n")})
        assert "CLOCK_ADVANCE" in table["repro.m.submit"].inferred

    def test_constructor_stores_are_not_effects(self, tmp_path):
        _, table = analyze(tmp_path, {"m.py": (
            "class SimClock:\n"
            "    def __init__(self):\n"
            "        self.now = 0.0\n"
            "    def advance(self, dt):\n"
            "        self.now = self.now + dt\n")})
        init = table["repro.m.SimClock.__init__"].inferred
        assert "CLOCK_ADVANCE" not in init
        assert "CLOCK_ADVANCE" in table["repro.m.SimClock.advance"].inferred

    def test_local_stores_are_not_state_mutation(self, tmp_path):
        _, table = analyze(tmp_path, {"m.py": (
            "def f():\n"
            "    acc = []\n"
            "    acc.append(1)\n"
            "    d = {}\n"
            "    d['k'] = 2\n"
            "    return d\n")})
        assert table["repro.m.f"].inferred == frozenset()


    def test_a_queued_request_is_its_owners_charge(self, tmp_path):
        _, table = analyze(tmp_path, {"storage/simdisk.py": (
            "class SimResource:\n"
            "    def fg(self, service_s):\n"
            "        self.clock.now = self.busy_until + service_s\n"
            "    def reserve(self, service_s):\n"
            "        self.busy_until = self.busy_until + service_s\n"
            "class SimDisk(SimResource):\n"
            "    def sync_drain(self, service_s):\n"
            "        return self.fg(service_s)\n"),
            "cluster/network.py": (
            "class SimNetwork:\n"
            "    def send(self, src, dst):\n"
            "        return self._links[src, dst].fg(1.0)\n"
            "    def reserve(self, src, dst):\n"
            "        link = self._links[src, dst]\n"
            "        return link.reserve(1.0)\n")})
        net = "repro.cluster.network.SimNetwork."
        assert table[net + "send"].inferred >= {"NET_CHARGE", "CLOCK_ADVANCE"}
        assert "NET_CHARGE" in table[net + "reserve"].inferred
        assert "CLOCK_ADVANCE" not in table[net + "reserve"].inferred
        disk = "repro.storage.simdisk."
        assert "DISK_CHARGE" in table[disk + "SimDisk.sync_drain"].inferred
        # The server itself charges nothing: the kind comes from the owner.
        assert table[disk + "SimResource.fg"].inferred == {
            "CLOCK_ADVANCE", "STATE_MUTATE"}


# ------------------------------------------------------------ baseline
class TestBaseline:
    FILES = {"m.py": ("import time\n"
                      "def f():\n"
                      "    return time.perf_counter()\n")}

    def write_baseline(self, tmp_path, entries):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return path

    def test_matching_entry_moves_finding_to_baselined(self, tmp_path):
        path = self.write_baseline(tmp_path, [
            {"rule": "REP105", "function": "repro.m.f",
             "reason": "legacy host timer"}])
        result = gate(tmp_path, self.FILES, baseline=path)
        assert result.findings == []
        assert result.ok
        assert [e.reason for _, e in result.baselined] == ["legacy host timer"]

    def test_strict_fails_on_baselined_findings(self, tmp_path):
        path = self.write_baseline(tmp_path, [
            {"rule": "REP105", "function": "repro.m.f", "reason": "legacy"}])
        result = gate(tmp_path, self.FILES, baseline=path, strict=True)
        assert result.findings == []
        assert not result.ok

    def test_stale_entries_are_reported(self, tmp_path):
        path = self.write_baseline(tmp_path, [
            {"rule": "REP104", "function": "repro.m.gone", "reason": "old"}])
        result = gate(tmp_path, self.FILES, baseline=path)
        assert [e.function for e in result.stale_baseline] == ["repro.m.gone"]
        assert not result.ok  # the REP105 finding is not baselined

    def test_entry_matches_rule_and_function_exactly(self, tmp_path):
        path = self.write_baseline(tmp_path, [
            {"rule": "REP104", "function": "repro.m.f", "reason": "wrong"}])
        result = gate(tmp_path, self.FILES, baseline=path)
        assert rules_of(result.findings) == ["REP105"]

    def test_load_baseline_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_committed_baseline_is_small_and_justified(self):
        entries = load_baseline()
        assert len(entries) <= 10
        for entry in entries:
            assert isinstance(entry, BaselineEntry)
            assert entry.reason.strip(), f"{entry.function} lacks a reason"


# ------------------------------------------------------------ JSON report
class TestReport:
    def test_report_round_trips_through_json(self, tmp_path):
        result = gate(tmp_path, {"m.py": (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
            '@effects("CLOCK_ADVANCE")\n'
            "def g(clock):\n"
            "    clock.advance(1.0)\n")})
        out = tmp_path / "report.json"
        write_report(result, str(out), root=tmp_path)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["summary"]["violations"] == 1
        assert data["summary"]["ok"] is False
        assert data["findings"][0]["rule"] == "REP105"
        assert data["findings"][0]["path"] == str(Path("repro") / "m.py")
        assert data["declared_contracts"]["repro.m.g"]["declared"] == \
            ["CLOCK_ADVANCE"]
        assert data["effects"]["repro.m.g"] == ["CLOCK_ADVANCE"]

    def test_report_is_deterministic(self, tmp_path):
        files = {"m.py": "import time\ndef f():\n    return time.time()\n"}
        r1 = gate(tmp_path, files)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(r1, str(out1), root=tmp_path)
        write_report(r1, str(out2), root=tmp_path)
        assert out1.read_bytes() == out2.read_bytes()


# ----------------------------------------------- decorators are identity
class TestDecoratorIdentity:
    def test_effects_returns_the_same_function_object(self):
        def fn():
            return 42
        marked = effects("CLOCK_ADVANCE")(fn)
        assert marked is fn
        assert fn.__effect_contract__ == frozenset({"CLOCK_ADVANCE"})
        assert fn() == 42

    def test_observation_only_returns_the_same_function_object(self):
        def fn():
            return "ok"
        assert observation_only(fn) is fn
        assert fn.__observation_only__ is True

    def test_unknown_effect_name_is_rejected(self):
        with pytest.raises(ValueError):
            effects("TIME_TRAVEL")

    def test_annotated_engine_methods_are_plain_functions(self):
        # No wrappers anywhere: the annotated methods must still be the
        # plain functions Python compiled, so dispatch cost and behavior
        # are untouched.
        from repro.db.iamdb import IamDB
        from repro.storage.runtime import Runtime

        assert isinstance(IamDB.stats, types.FunctionType)
        assert IamDB.stats.__observation_only__ is True
        assert isinstance(Runtime.fg_read_blocks, types.FunctionType)
        assert "DISK_CHARGE" in Runtime.fg_read_blocks.__effect_contract__

    def test_annotations_do_not_perturb_a_smoke_workload(self):
        # Two identically-seeded runs over the annotated engine must agree
        # byte-for-byte on every observable: records read, final stats and
        # the simulated clock.  Since @effects/@observation_only are
        # identity functions this also proves the annotated build equals
        # the unannotated one.
        from repro.common.options import IamOptions, SSD, StorageOptions
        from repro.db.iamdb import IamDB

        def run():
            opts = IamOptions(node_capacity=1024, fanout=3, key_size=8)
            storage = StorageOptions(device=SSD, page_cache_bytes=8 * 1024,
                                     block_size=256)
            db = IamDB("iam", engine_options=opts, storage_options=storage)
            rng = random.Random(7)
            reads = []
            for i in range(300):
                key = rng.randrange(128)
                if rng.random() < 0.6:
                    db.put(key, 48)
                else:
                    reads.append((key, db.get(key)))
            db.flush()
            db.quiesce()
            clock = db.engine.runtime.clock.now
            stats = repr(sorted(db.stats().items()))
            db.close()
            return reads, clock, stats

        assert run() == run()


# ------------------------------------------------- runner gate aggregation
class TestRunnerAggregation:
    def test_raising_gate_reports_error_and_others_still_run(
            self, monkeypatch, capsys):
        from repro.check import runner

        def boom(args):
            raise RuntimeError("gate exploded")

        def ok(args):
            return runner.GateOutcome("types", "PASS", detail="stubbed")

        monkeypatch.setitem(runner._GATE_RUNNERS, "lint", boom)
        monkeypatch.setitem(runner._GATE_RUNNERS, "types", ok)
        code = runner.main(["--gate", "lint", "--gate", "types"])
        out = capsys.readouterr().out
        assert code == 1
        assert "lint       ERROR" in out
        assert "RuntimeError: gate exploded" in out
        assert "types      PASS (stubbed)" in out
        assert "1/2 gates passed, 1 failed (lint)" in out

    def test_all_pass_summary_and_exit_zero(self, monkeypatch, capsys):
        from repro.check import runner

        monkeypatch.setitem(
            runner._GATE_RUNNERS, "lint",
            lambda args: runner.GateOutcome("lint", "PASS", detail="0 findings"))
        monkeypatch.setitem(
            runner._GATE_RUNNERS, "types",
            lambda args: runner.GateOutcome("types", "PASS"))
        code = runner.main(["--gate", "lint", "--gate", "types"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint       PASS (0 findings)" in out
        assert "2/2 gates passed" in out

    def test_skip_flags_do_not_fail_the_run(self, monkeypatch, capsys):
        from repro.check import runner

        monkeypatch.setitem(
            runner._GATE_RUNNERS, "lint",
            lambda args: runner.GateOutcome("lint", "PASS"))
        code = runner.main(["--gate", "lint", "--gate", "types",
                            "--skip-types"])
        out = capsys.readouterr().out
        assert code == 0
        assert "types      SKIP (--skip-types)" in out
        assert "1 skipped" in out

    def test_failing_gate_does_not_short_circuit(self, monkeypatch, capsys):
        from repro.check import runner

        calls = []

        def fail(args):
            calls.append("lint")
            return runner.GateOutcome("lint", "FAIL", body="1 finding(s)")

        def ok(args):
            calls.append("types")
            return runner.GateOutcome("types", "PASS")

        monkeypatch.setitem(runner._GATE_RUNNERS, "lint", fail)
        monkeypatch.setitem(runner._GATE_RUNNERS, "types", ok)
        code = runner.main(["--gate", "lint", "--gate", "types"])
        assert code == 1
        assert calls == ["lint", "types"]  # second gate still ran


# ---------------------------------------------------------------- catalog
class TestCatalog:
    def test_effect_rule_catalog_is_complete(self):
        assert sorted(EFFECT_RULES) == [f"REP10{i}" for i in range(6)]

    def test_every_rule_has_an_explanation(self):
        from repro.check.effects.gate import EXPLANATIONS

        assert sorted(EXPLANATIONS) == sorted(EFFECT_RULES)

    def test_observation_forbidden_excludes_state_mutation(self):
        assert "STATE_MUTATE" in ALL_EFFECTS
        assert "STATE_MUTATE" not in OBSERVATION_FORBIDDEN

    def test_repo_corpus_is_clean(self):
        result = run_effects_gate()
        assert result.findings == [], \
            "\n".join(f.format() for f in result.findings)
        assert result.stale_baseline == []
        assert result.n_contracts >= 40
        # The registry check only sees entries whose module is analysed;
        # here all of them are.
        from repro.check.effects.infer import SEED_EFFECTS, SERVER_OWNERS
        assert all(f"{m}.{fn}" in result.table for m, fn in SEED_EFFECTS)
        assert all(f"{m}.{cls}.__init__" in result.table
                   for m, cls in SERVER_OWNERS)
