"""Option and name census: every option field, CLI flag, function, method
and keyword-only parameter has a caller outside ``tests/`` (code, docs, CI)
or a reason in ``KEPT`` / ``KEPT_NAMES``; a setting only tests set is dead
configuration, and its default becomes a module constant."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PY = [p for d in ("src", "benchmarks", "examples") for p in sorted((ROOT / d).rglob("*.py"))]
#: The e2e ledger's probe strings name what it wraps when it exists (a missing
#: target is skipped silently), so they keep no def alive.
LEDGER = ROOT / "benchmarks" / "e2e" / "ledger.py"
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
    for path, budget in ((SRC / "cli.py", 42), (SRC / "check" / "runner.py", 5)):
        text = "\n".join(p.read_text() for p in docs + PY if p != path)
        names = _add_argument_names(path)
        assert [f for f in names if f.startswith("--") and f not in KEPT
                and not re.search(rf"(?<![\w-]){f}(?![\w-])", text)] == [], \
            f"{path.name}: only tests pass these flags"
        assert len(names) <= budget
    live = {f.split(".")[1] for f in _option_fields()}
    assert set(KEPT) <= live | set(_add_argument_names(SRC / "cli.py"))


# ----------------------------------------------------------------- functions
#: A function, method or keyword-only parameter nothing outside ``tests/``
#: names, kept on purpose.
KEPT_NAMES = {"n_keys": "Memtable's key count, which the equivalence test compares with "
                        "the frozen ReferenceMemtable's (kept unchanged by REP006)",
              **dict.fromkeys(["reference_merge_runs", "reference_scan", "insert_range"],
                              "frozen seed oracle that the tests compare against, "
                              "kept unchanged by REP006"),
              "merge_scan": "a module-global the e2e ledger resolves with getattr: "
                            "deleting it fails every --trace 1 run"}


def _defs():
    """``(path, def)`` for every def in ``src/repro``."""
    return [(path, node) for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _named_outside_tests():
    """Identifiers code outside ``tests/`` names -- loads, attributes,
    imports, words of string literals (``getattr`` probes) -- but not
    docstrings, and not a name inside a def of that name (a delegating
    wrapper does not make its target live)."""
    names = set()

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, inside | {child.name})
                continue
            found = []
            if isinstance(child, ast.Name):
                found = [child.id]
            elif isinstance(child, ast.Attribute):
                found = [child.attr]
            elif isinstance(child, ast.alias):
                found = [child.name.rsplit(".", 1)[-1]]
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                found = re.findall(r"[A-Za-z_]\w*", child.value)
            names.update(n for n in found if n not in inside)
            walk(child, inside)
    for path in PY:
        if path != LEDGER:
            walk(ast.parse(path.read_text()), frozenset())
    return names


def test_every_function_has_a_caller_outside_tests():
    # By name: an override of a base method shares the name its callers use;
    # dunders and the lint's ``visit_*`` hooks are called by the machinery.
    defs = _defs()
    named = _named_outside_tests() | set(KEPT_NAMES)
    dead = [f"{path.relative_to(SRC)}:{fn.lineno} {fn.name}" for path, fn in defs
            if fn.name not in named and not re.fullmatch(r"__\w+__|visit_\w+", fn.name)]
    assert dead == [], "only tests call these; delete them or say why in KEPT_NAMES"
    assert len(defs) <= 863


def test_every_keyword_only_parameter_has_a_caller_outside_tests():
    passed = set(KEPT_NAMES)
    for node in (n for p in PY for n in ast.walk(ast.parse(p.read_text()))):
        if isinstance(node, ast.Call):
            passed.update(k.arg for k in node.keywords)
    params = [(path, fn, a.arg) for path, fn in _defs() for a in fn.args.kwonlyargs]
    assert [f"{path.relative_to(SRC)}:{fn.lineno} {fn.name}({arg}=)"
            for path, fn, arg in params if arg not in passed] == [], \
        "only tests pass these; make them constants"
    assert len(params) <= 140
