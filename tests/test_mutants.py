"""The mutant kill table's snippets still match the code they mutate.

``benchmarks/mutants/kill_table.py`` applies each mutant by replacing an
exact snippet of a file under ``src/repro``, and refuses a snippet that does
not occur exactly once -- but only when the table is regenerated, which
takes the better part of an hour.  This holds the same rule on every run, so
a change that rewrites a mutated line retargets its mutant in the same
change.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _kill_table():
    spec = importlib.util.spec_from_file_location(
        "kill_table", ROOT / "benchmarks" / "mutants" / "kill_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _kill_table().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_every_mutant_snippet_occurs_once_in_its_file(mutant):
    mid, _, _, path, edits = mutant
    text = (ROOT / "src" / "repro" / path).read_text()
    for old, new in edits:
        assert text.count(old) == 1, f"{mid}: {old!r} occurs {text.count(old)} times in {path}"
        assert new != old
        text = text.replace(old, new)  # later edits see the earlier ones, as applied


def test_mutant_ids_are_unique():
    ids = [m[0] for m in MUTANTS]
    assert len(ids) == len(set(ids))
