"""Direct coverage for :mod:`repro.check.diagnostics`.

The invariant-violation side (Diagnostic, invariant_error) and the shared
static-check plumbing (noqa parsing, path relativization, deterministic
finding order) are exercised here without going through the lint or the
effects gate, so a regression in the shared layer is pinned to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.check.diagnostics import (
    Diagnostic,
    NoqaIndex,
    finding_sort_key,
    invariant_error,
    parse_noqa,
    relativize_path,
    sort_findings,
)
from repro.common.errors import InvariantViolation
from tests.conftest import diagnostic_of


@dataclass(frozen=True)
class FakeFinding:
    rule: str
    path: str
    line: int
    col: int


class TestDiagnostic:
    def test_format_without_context(self):
        d = Diagnostic(check="clock-monotonic", message="went backwards")
        assert d.format() == "[clock-monotonic] went backwards"

    def test_format_with_context_preserves_key_order(self):
        d = Diagnostic(check="k-bound", message="too many levels",
                       context={"k": 5, "limit": 3})
        assert d.format() == "[k-bound] too many levels | k=5 limit=3"

    def test_invariant_error_round_trip(self):
        exc = invariant_error("cache-pins", "pin leaked", file_id=7)
        assert isinstance(exc, InvariantViolation)
        assert diagnostic_of(exc).check == "cache-pins"
        assert diagnostic_of(exc).context == {"file_id": 7}
        assert "[cache-pins]" in str(exc)

    def test_diagnostic_of_foreign_exception(self):
        d = diagnostic_of(ValueError("boom"))
        assert d.check == "unstructured"
        assert d.message == "boom"


class TestNoqaParsing:
    def test_line_markers_indexed_by_line(self):
        index = parse_noqa("x = 1\ny = 2  # repro: noqa-REP001\n")
        assert index.is_suppressed("REP001", 2)
        assert not index.is_suppressed("REP001", 1)
        assert not index.is_suppressed("REP002", 2)

    def test_multiple_markers_on_one_line(self):
        src = "z = 3  # repro: noqa-REP001  # repro: noqa-REP104\n"
        index = parse_noqa(src)
        assert index.is_suppressed("REP001", 1)
        assert index.is_suppressed("REP104", 1)

    def test_file_marker_suppresses_every_line(self):
        index = parse_noqa("# repro: noqa-file-REP104\nx = 1\ny = 2\n")
        assert index.is_suppressed("REP104", 1)
        assert index.is_suppressed("REP104", 999)
        assert not index.is_suppressed("REP105", 1)

    def test_file_marker_not_double_counted_as_line_marker(self):
        index = parse_noqa("# repro: noqa-file-REP104\n")
        assert index.lines == {}
        assert index.file_rules == {"REP104"}

    def test_extra_lines_widen_the_match_window(self):
        # The effects gate anchors a finding at the def but accepts a
        # marker anywhere in the decorator block via extra_lines.
        index = parse_noqa("# repro: noqa-REP104\nx = 1\n")
        assert not index.is_suppressed("REP104", 2)
        assert index.is_suppressed("REP104", 2, extra_lines=(1,))

    def test_round_trip_through_index_type(self):
        index = parse_noqa("a  # repro: noqa-REP001\n")
        assert isinstance(index, NoqaIndex)
        rebuilt = NoqaIndex(lines=dict(index.lines),
                            file_rules=set(index.file_rules))
        assert rebuilt.is_suppressed("REP001", 1)


class TestPathsAndOrdering:
    def test_relativize_under_root(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir()
        target.write_text("")
        assert relativize_path(str(target), tmp_path) == \
            str(Path("pkg") / "mod.py")

    def test_relativize_outside_root_is_identity(self, tmp_path):
        assert relativize_path("/nonexistent/elsewhere.py", tmp_path) == \
            "/nonexistent/elsewhere.py"

    def test_sort_is_path_line_col_rule(self):
        findings = [
            FakeFinding("REP105", "b.py", 1, 0),
            FakeFinding("REP100", "a.py", 9, 4),
            FakeFinding("REP104", "a.py", 9, 2),
            FakeFinding("REP101", "a.py", 2, 0),
        ]
        ordered = sort_findings(findings)
        assert [(f.path, f.line, f.col, f.rule) for f in ordered] == [
            ("a.py", 2, 0, "REP101"),
            ("a.py", 9, 2, "REP104"),
            ("a.py", 9, 4, "REP100"),
            ("b.py", 1, 0, "REP105"),
        ]

    def test_rule_breaks_full_ties(self):
        a = FakeFinding("REP101", "a.py", 1, 1)
        b = FakeFinding("REP100", "a.py", 1, 1)
        assert sort_findings([a, b])[0].rule == "REP100"

    def test_sort_key_shape(self):
        key = finding_sort_key(FakeFinding("REP100", "p.py", 3, 7))
        assert key == ("p.py", 3, 7, "REP100")
