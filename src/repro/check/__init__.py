"""Correctness tooling for the LSA/IAM engine (``python -m repro check``).

Two independent tools share this package (see DESIGN.md, "Correctness
tooling"); :mod:`repro.check.runner` runs them, with a cluster and an
objstore smoke run, as the four gates of ``python -m repro check``:

* :mod:`repro.check.lint` -- an AST-based determinism lint with repo-specific
  rules (REP001...); the simulated clock must be the only time source, RNGs
  must be seeded, structural checks must raise :class:`InvariantViolation`.
* :mod:`repro.check.sanitizer` -- an opt-in runtime sanitizer that, after
  every structural operation of any engine, runs that engine's own
  ``check_invariants`` (range disjointness, sortedness, table/file
  agreement) plus the checks that need the sanitizer's memory or timing
  (the mixed-level ``k`` bound, WAL/memtable agreement, cache pin balance,
  clock monotonicity).

Only :mod:`repro.check.diagnostics` is imported eagerly: engine modules import
it for the shared violation-message code path, so this ``__init__`` must stay
import-light to avoid cycles.
"""

from __future__ import annotations

from repro.check.diagnostics import Diagnostic, invariant_error

__all__ = ["Diagnostic", "invariant_error"]
