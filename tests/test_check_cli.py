"""The ``python -m repro check`` driver and the ``--sanitize`` CLI flag."""

from __future__ import annotations

import re

import pytest

from repro.check import runner
from repro.check.sanitizer import default_options, set_default_options
from repro.check.typing_gate import GateResult
from repro.cli import main as cli_main
from repro.db.iamdb import ENGINE_TABLE


@pytest.fixture(autouse=True)
def reset_sanitizer_defaults():
    yield
    set_default_options(None)


def test_list_rules(capsys):
    assert runner.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP001", "REP008"):
        assert rule_id in out


def test_unknown_rule_rejected(capsys):
    assert runner.main(["--rule", "REP999", "--gate", "lint"]) == 2


def test_full_check_passes_on_this_repo(capsys):
    # The acceptance gate: lint clean, types PASS-or-SKIP, sanitizer clean.
    assert runner.main([]) == 0
    out = capsys.readouterr().out
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


def test_gate_result_status():
    assert GateResult(ok=True, skipped=True, output="").status == "SKIP"
    assert GateResult(ok=True, skipped=False, output="").status == "PASS"
    assert GateResult(ok=False, skipped=False, output="").status == "FAIL"


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
