"""Direct coverage for :mod:`repro.check.diagnostics`.

The invariant-violation side (Diagnostic, invariant_error) and the lint's
noqa parsing are exercised here without going through the lint, so a
regression in the shared layer is pinned to this file.
"""

from __future__ import annotations

from repro.check.diagnostics import (
    Diagnostic,
    NoqaIndex,
    invariant_error,
    parse_noqa,
)
from repro.common.errors import InvariantViolation
from tests.conftest import diagnostic_of


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
        src = "z = 3  # repro: noqa-REP001  # repro: noqa-REP009\n"
        index = parse_noqa(src)
        assert index.is_suppressed("REP001", 1)
        assert index.is_suppressed("REP009", 1)

    def test_file_marker_suppresses_every_line(self):
        index = parse_noqa("# repro: noqa-file-REP009\nx = 1\ny = 2\n")
        assert index.is_suppressed("REP009", 1)
        assert index.is_suppressed("REP009", 999)
        assert not index.is_suppressed("REP008", 1)

    def test_file_marker_not_double_counted_as_line_marker(self):
        index = parse_noqa("# repro: noqa-file-REP009\n")
        assert index.lines == {}
        assert index.file_rules == {"REP009"}

    def test_round_trip_through_index_type(self):
        index = parse_noqa("a  # repro: noqa-REP001\n")
        assert isinstance(index, NoqaIndex)
        rebuilt = NoqaIndex(lines=dict(index.lines),
                            file_rules=set(index.file_rules))
        assert rebuilt.is_suppressed("REP001", 1)

