"""The ``python -m repro check`` driver and the ``--sanitize`` CLI flag."""

from __future__ import annotations

import re

import pytest

from repro.check import runner
from repro.check.sanitizer import default_options, set_default_options
from repro.cli import main as cli_main
from repro.db.iamdb import ENGINE_TABLE


@pytest.fixture(autouse=True)
def reset_sanitizer_defaults():
    yield
    set_default_options(None)


def test_list_rules(capsys):
    assert runner.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == \
        [f"REP00{i}" for i in range(1, 10)]


def test_unknown_rule_rejected(capsys):
    assert runner.main(["--rule", "REP999", "--gate", "lint"]) == 2


def test_full_check_passes_on_this_repo(capsys):
    # The acceptance gate: every gate runs and passes, sanitizer clean.
    assert runner.main([]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()
            if re.match(r"\w+ +PASS\b", line)] == list(runner.GATE_NAMES)
    assert runner.GATE_NAMES == ("lint", "sanitizer", "cluster", "objstore")
    assert "4/4 gates passed" in out
    assert "lint       PASS" in out
    assert "sanitizer  PASS" in out
    # The sanitizer gate runs on every engine, each seeing structural events.
    events = dict(pair.rsplit(" ", 1) for pair in
                  re.search(r"sanitizer  PASS \(events: ([^;]*);", out)[1].split(", "))
    assert set(events) == set(ENGINE_TABLE)
    assert all(int(n) > 0 for n in events.values()), events


def test_lint_failure_sets_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    rc = runner.main([str(bad), "--gate", "lint"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REP001" in out


def test_cli_check_subcommand(capsys):
    assert cli_main(["check", "--list-rules"]) == 0
    assert "REP001" in capsys.readouterr().out


def test_cli_sanitize_flag_installs_defaults(capsys):
    assert default_options() is None
    rc = cli_main(["load", "--engine", "iam", "--records", "300", "--sanitize"])
    assert rc == 0
    assert default_options() is not None


def test_cli_load_without_flag_leaves_defaults(capsys):
    rc = cli_main(["load", "--engine", "iam", "--records", "300"])
    assert rc == 0
    assert default_options() is None


class TestRunnerAggregation:
    def test_raising_gate_reports_error_and_others_still_run(
            self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("gate exploded")

        def ok(args):
            return runner.GateOutcome("cluster", "PASS", detail="stubbed")

        monkeypatch.setitem(runner._GATE_RUNNERS, "lint", boom)
        monkeypatch.setitem(runner._GATE_RUNNERS, "cluster", ok)
        code = runner.main(["--gate", "lint", "--gate", "cluster"])
        out = capsys.readouterr().out
        assert code == 1
        assert "lint       ERROR" in out
        assert "RuntimeError: gate exploded" in out
        assert "cluster    PASS (stubbed)" in out
        assert "1/2 gates passed, 1 failed (lint)" in out

    def test_all_pass_summary_and_exit_zero(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner._GATE_RUNNERS, "lint",
            lambda args: runner.GateOutcome("lint", "PASS", detail="0 findings"))
        monkeypatch.setitem(
            runner._GATE_RUNNERS, "cluster",
            lambda args: runner.GateOutcome("cluster", "PASS"))
        code = runner.main(["--gate", "lint", "--gate", "cluster"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint       PASS (0 findings)" in out
        assert "2/2 gates passed" in out

    def test_failing_gate_does_not_short_circuit(self, monkeypatch, capsys):
        calls = []

        def fail(args):
            calls.append("lint")
            return runner.GateOutcome("lint", "FAIL", body="1 finding(s)")

        def ok(args):
            calls.append("cluster")
            return runner.GateOutcome("cluster", "PASS")

        monkeypatch.setitem(runner._GATE_RUNNERS, "lint", fail)
        monkeypatch.setitem(runner._GATE_RUNNERS, "cluster", ok)
        code = runner.main(["--gate", "lint", "--gate", "cluster"])
        assert code == 1
        assert calls == ["lint", "cluster"]  # second gate still ran
