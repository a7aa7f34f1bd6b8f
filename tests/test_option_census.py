"""Option census: every option field and CLI flag has a caller outside
``tests/`` (code, docs, CI) or a reason in ``KEPT``; a setting only tests
set is dead configuration, and its default becomes a module constant."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PY = [p for d in ("src", "benchmarks", "examples") for p in sorted((ROOT / d).rglob("*.py"))]
KEPT = {**dict.fromkeys(["backoff_base_s", "backoff_max_s", "giveup_backoff_s",
                         "l0_compaction_trigger"], "the write-path golden sets it"),
        **dict.fromkeys(["--memory-mb", "--threads", "--setup"], "a paper axis (§6)"),
        "network": "NetworkOptions.zero() is the 1-shard equivalence reference"}


def _option_fields():
    """Each field once, in the class that first declares it."""
    out = []
    for name in ("common.options", "cluster.cluster", "cluster.network",
                 "cluster.rebalance", "objstore.store", "check.sanitizer",
                 "obs.session", "obs.tracer"):
        for cls in vars(importlib.import_module(f"repro.{name}")).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == f"repro.{name}"
                    and cls.__name__.endswith(("Options", "Config", "Profile"))):
                inherited = {f.name for base in cls.__mro__[1:]
                             if dataclasses.is_dataclass(base)
                             for f in dataclasses.fields(base)}
                out += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                        if f.name not in inherited]
    return out


def _add_argument_names(path):
    return [node.args[0].value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"]


def test_every_option_field_has_a_caller_outside_tests():
    setters = set(KEPT)
    for node in (n for p in PY for n in ast.walk(ast.parse(p.read_text()))):
        if isinstance(node, ast.Call):
            setters.update(k.arg for k in node.keywords)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.slice, ast.Constant):
            setters.add(node.slice.value)
    fields = _option_fields()
    assert [f for f in fields if f.split(".")[1] not in setters] == [], \
        "only tests set these; make them constants"
    assert len(fields) <= 53


def test_every_cli_flag_has_a_caller_outside_tests():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", *(ROOT / ".github").rglob("*.yml"),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    for path, budget in ((SRC / "cli.py", 58), (SRC / "check" / "runner.py", 8)):
        text = "\n".join(p.read_text() for p in docs + PY if p != path)
        names = _add_argument_names(path)
        assert [f for f in names if f.startswith("--") and f not in KEPT
                and not re.search(rf"(?<![\w-]){f}(?![\w-])", text)] == [], \
            f"{path.name}: only tests pass these flags"
        assert len(names) <= budget
    live = {f.split(".")[1] for f in _option_fields()}
    assert set(KEPT) <= live | set(_add_argument_names(SRC / "cli.py"))
