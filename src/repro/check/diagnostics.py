"""Structured diagnostics for invariant violations.

Every structural check in the engine -- the ad-hoc guards in
:mod:`repro.memtable.memtable` and :mod:`repro.storage.simdisk` as well as the
sanitizer's full catalog -- raises through :func:`invariant_error`, so all
violation messages share one format::

    [check-id] human message | key1=value1 key2=value2

The attached :class:`Diagnostic` keeps the pieces machine-readable: the check
id names the invariant (stable, greppable), the context dict carries the
offending values.  This module must stay dependency-light (engine modules
import it), so it only imports :mod:`repro.common.errors`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Set

from repro.common.errors import InvariantViolation


@dataclass(frozen=True)
class Diagnostic:
    """One structural-invariant violation, machine-readable."""

    #: Stable id of the violated invariant, e.g. ``"level-disjoint"``.
    check: str
    #: Human-readable description of what went wrong.
    message: str
    #: Offending values (node ranges, sequence counts, clock readings...).
    context: Mapping[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        text = f"[{self.check}] {self.message}"
        if self.context:
            pairs = " ".join(f"{k}={v!r}" for k, v in self.context.items())
            text = f"{text} | {pairs}"
        return text


def invariant_error(check: str, message: str, **context: Any) -> InvariantViolation:
    """Build an :class:`InvariantViolation` carrying a :class:`Diagnostic`.

    The exception's string form is the formatted diagnostic; the structured
    form is available as ``exc.diagnostic``.  Usage::

        raise invariant_error("clock-monotonic", "clock cannot go backwards",
                              dt=dt)
    """
    diag = Diagnostic(check=check, message=message, context=dict(context))
    exc = InvariantViolation(diag.format())
    exc.diagnostic = diag
    return exc


# --------------------------------------------------------------------------
# Suppression comments of the determinism lint (REP0xx).
# --------------------------------------------------------------------------

#: Per-line suppression: ``# repro: noqa-REPxxx`` (one rule per marker;
#: repeat the marker to suppress several rules on one line).
NOQA_LINE_RE = re.compile(r"#\s*repro:\s*noqa-(REP\d{3})")
#: File-level suppression: ``# repro: noqa-file-REPxxx`` anywhere in the
#: file (conventionally in the module docstring header) silences the rule
#: for the whole file.
NOQA_FILE_RE = re.compile(r"#\s*repro:\s*noqa-file-(REP\d{3})")


@dataclass(frozen=True)
class NoqaIndex:
    """Parsed suppression markers of one source file."""

    #: line number -> rule ids suppressed on that line.
    lines: Mapping[int, Set[str]]
    #: Rule ids suppressed for the entire file.
    file_rules: Set[str]

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed at ``line``."""
        return rule in self.file_rules or rule in self.lines.get(line, ())


def parse_noqa(source: str) -> NoqaIndex:
    """Parse all suppression markers out of one module's source text."""
    lines: Dict[int, Set[str]] = {}
    file_rules: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in NOQA_FILE_RE.finditer(text):
            file_rules.add(match.group(1))
        # Strip file-level markers before per-line matching so the
        # narrower regex cannot double-count them.
        stripped = NOQA_FILE_RE.sub("", text)
        for match in NOQA_LINE_RE.finditer(stripped):
            lines.setdefault(lineno, set()).add(match.group(1))
    return NoqaIndex(lines=lines, file_rules=file_rules)
