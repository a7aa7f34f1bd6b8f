"""AST-based determinism lint for the simulation (``repro check --lint``).

The paper's results are deterministic byte counts on a simulated clock
(:mod:`repro.storage.simdisk`); any stray wall-clock read, unseeded RNG or
nondeterministic iteration silently breaks reproducibility without failing a
single test.  This lint encodes the repo's determinism contract as mechanical
rules over ``src/repro``:

========  ==============================================================
REP001    no wall-clock time sources (``time.time``, ``datetime.now``...)
REP002    no unseeded/global/host RNG (``random.*``, ``Random()``, ``secrets``)
REP003    no direct iteration over set displays/constructors
REP004    no float equality against simulated-time attributes
REP005    no mutable default arguments
REP006    no mutation of the frozen seed kernels (``repro.bench.reference``)
REP007    no bare ``except:``
REP008    no ``assert`` for structural checks (raise InvariantViolation)
REP009    no raw device call (``fg_io``, ``bg_grant``...) outside storage
========  ==============================================================

A module imported under another name (``import time as t``, ``from
datetime import datetime as dt``) is resolved first, so ``t.perf_counter()``
is REP001 like ``time.perf_counter()``.

A finding on a line carrying ``# repro: noqa-REPxxx`` is suppressed; the
suppression is per-rule and per-line (see DESIGN.md for when to suppress vs
fix).  ``# repro: noqa-file-REPxxx`` anywhere in a file silences the rule
for the whole file -- reserved for modules whose *purpose* violates a rule
(``src/repro`` has none).
Each rule has a fixture test in ``tests/test_check_lint.py`` proving it
fires on minimal bad code and stays quiet on the equivalent good code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from repro.check.diagnostics import parse_noqa

#: Rule catalog: id -> one-line description (shown by ``repro check --list-rules``).
RULES: Dict[str, str] = {
    "REP001": "wall-clock time source; the simulated clock (SimClock) must be "
              "the only time source in src/repro",
    "REP002": "unseeded, process-global or host-entropy RNG; use "
              "random.Random(seed) / numpy default_rng(seed) instances",
    "REP003": "iteration over a set display/constructor; set order is "
              "nondeterministic across processes (sort first)",
    "REP004": "float equality (==/!=) against a simulated-time value; "
              "compare with <=/>= or an epsilon",
    "REP005": "mutable default argument (list/dict/set); defaults are shared "
              "across calls",
    "REP006": "mutation of the frozen seed kernels in repro.bench.reference; "
              "the reference copies must stay byte-identical to the seed",
    "REP007": "bare 'except:'; catch a concrete exception type",
    "REP008": "'assert' used for a structural check in non-test code; raise "
              "InvariantViolation so checks survive python -O",
    "REP009": "raw device costing call outside repro/storage; charge through "
              "the Runtime wrappers so every byte lands on the simulated clock",
}

#: Dotted call/attribute paths that read the wall clock (REP001).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
}
#: Names importable ``from time import ...`` that read the wall clock.
_WALL_CLOCK_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns",
             "localtime", "gmtime"},
}

#: Module-level ``random`` functions drawing from the shared global RNG.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "seed",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
}

#: Host entropy sources: they cannot be seeded at all (REP002).
_HOST_ENTROPY = {"random.SystemRandom", "os.urandom", "os.getrandom"}

#: Modules whose local alias is resolved before a rule matches a name.
_RESOLVED_MODULES = {"time", "random", "datetime", "os", "secrets"}

#: ``SimDisk`` costing calls that only ``repro/storage`` may make (REP009);
#: everything else charges through the ``Runtime`` wrappers.
_RAW_DEVICE_CALLS = {"fg_io", "fg_stream", "bg_grant", "bg_count", "bg_append",
                     "sync_drain"}

#: Attribute names treated as simulated-time values (REP004).
_SIM_TIME_ATTRS = {
    "now", "busy_until", "not_before", "debt_s", "sim_time_s", "sim_seconds",
    "clock_now", "seek_time_s", "bulk_seek_time_s", "lookahead_s",
}

@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every REP rule to one module."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        #: Local name -> the dotted module path it was imported as.
        self._aliases: Dict[str, str] = {}
        #: Local names bound to the frozen reference module or its members.
        self._reference_names: Set[str] = set()
        posix = path.replace("\\", "/")
        self._is_reference_module = posix.endswith("bench/reference.py")
        self._in_storage = "repro/storage/" in posix

    def _resolved(self, node: ast.AST) -> Optional[str]:
        """``_dotted_name`` with an import alias at its head expanded."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        return self._aliases.get(head, head) + dot + rest

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path,
            line=getattr(node, "lineno", 1), col=getattr(node, "col_offset", 0),
            message=message))

    # ------------------------------------------------------------ REP001/006
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro.bench.reference":
                self._reference_names.add(alias.asname or "repro")
            if alias.asname and alias.name in _RESOLVED_MODULES:
                self._aliases[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        banned = _WALL_CLOCK_IMPORTS.get(module, set())
        for alias in node.names:
            if alias.name in banned:
                self._emit("REP001", node,
                           f"import of wall-clock source {module}.{alias.name}")
            if module == "random" and alias.name in _GLOBAL_RANDOM_FNS:
                self._emit("REP002", node,
                           f"import of global-RNG function random.{alias.name}")
            if module == "secrets" or f"{module}.{alias.name}" in _HOST_ENTROPY:
                self._emit("REP002", node,
                           f"import of host entropy {module}.{alias.name}")
            if module in _RESOLVED_MODULES:
                self._aliases[alias.asname or alias.name] = \
                    f"{module}.{alias.name}"
        if module == "repro.bench.reference" or module == "repro.bench" and any(
                a.name == "reference" for a in node.names):
            for alias in node.names:
                if module == "repro.bench" and alias.name != "reference":
                    continue
                self._reference_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ----------------------------------------------------------- REP001/002
    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = self._resolved(node)
        if dotted in _WALL_CLOCK:
            self._emit("REP001", node, f"wall-clock read via {dotted}")
        elif dotted in _HOST_ENTROPY or (
                dotted is not None and dotted.startswith("secrets.")):
            self._emit("REP002", node, f"host entropy via {dotted}")
        self.generic_visit(node)

    # ----------------------------------------------------------- REP002/009
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and not self._in_storage \
                and func.attr in _RAW_DEVICE_CALLS:
            self._emit("REP009", node,
                       f"raw device call .{func.attr}() outside repro/storage")
        dotted = self._resolved(func)
        if dotted is not None:
            head, _, tail = dotted.rpartition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                self._emit("REP002", node,
                           f"call to global-RNG function random.{tail}")
            elif dotted in ("random.Random", "Random") and not node.args:
                self._emit("REP002", node,
                           "Random() constructed without a seed")
            elif tail == "default_rng" and not node.args:
                self._emit("REP002", node,
                           "default_rng() constructed without a seed")
            elif head.endswith("random") and head != "random" and \
                    tail in _GLOBAL_RANDOM_FNS | {"rand", "randn"}:
                # numpy.random.<fn> / np.random.<fn>: the global numpy RNG.
                self._emit("REP002", node,
                           f"call to global numpy RNG function {dotted}")
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP003
    def _check_iter(self, iter_node: ast.AST) -> None:
        if isinstance(iter_node, ast.Set):
            self._emit("REP003", iter_node, "iteration over a set display")
        elif isinstance(iter_node, ast.Call):
            dotted = _dotted_name(iter_node.func)
            if dotted in ("set", "frozenset"):
                self._emit("REP003", iter_node,
                           f"iteration over {dotted}(...); wrap in sorted()")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP004
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, (left, right) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Attribute) and \
                        side.attr in _SIM_TIME_ATTRS:
                    other = right if side is left else left
                    # `x.now is None`-style checks use `is`; equality against
                    # None is not a float comparison either.
                    if isinstance(other, ast.Constant) and other.value is None:
                        continue
                    self._emit("REP004", node,
                               f"float equality against simulated-time "
                               f"attribute .{side.attr}")
                    break
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP005
    def _check_defaults(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._emit("REP005", default, "mutable default argument")
            elif isinstance(default, ast.Call):
                dotted = _dotted_name(default.func)
                if dotted in ("list", "dict", "set", "bytearray",
                              "collections.defaultdict", "defaultdict",
                              "OrderedDict", "collections.OrderedDict"):
                    self._emit("REP005", default,
                               f"mutable default argument ({dotted}())")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP006
    def _is_reference_target(self, target: ast.AST) -> bool:
        """Attribute assignment whose base resolves to the frozen module or a
        class/function imported from it (monkeypatching); instance attributes
        are fine -- instances are how the reference kernels are *used*."""
        if not isinstance(target, ast.Attribute):
            return False
        dotted = _dotted_name(target.value)
        if dotted is None:
            return False
        if dotted in ("repro.bench.reference",):
            return True
        root = dotted.split(".", 1)[0]
        return dotted in self._reference_names or (
            root in self._reference_names and "." in dotted)

    def _check_mutation_targets(self, node: ast.stmt,
                                targets: Iterable[ast.AST]) -> None:
        if self._is_reference_module:
            return
        for target in targets:
            if self._is_reference_target(target):
                self._emit("REP006", node,
                           "mutation of the frozen repro.bench.reference "
                           "seed kernels")

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_mutation_targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_targets(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_mutation_targets(node, node.targets)
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP007
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit("REP007", node, "bare 'except:'")
        self.generic_visit(node)

    # ---------------------------------------------------------------- REP008
    def visit_Assert(self, node: ast.Assert) -> None:
        self._emit("REP008", node,
                   "'assert' in engine code; raise InvariantViolation "
                   "(asserts vanish under python -O)")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>", *,
                rules: Optional[Set[str]] = None) -> List[Finding]:
    """Lint one module's source; returns surviving findings, ordered."""
    tree = ast.parse(source, filename=path)
    visitor = _RuleVisitor(path)
    visitor.visit(tree)
    noqa = parse_noqa(source)
    out = [f for f in visitor.findings
           if (rules is None or f.rule in rules)
           and not noqa.is_suppressed(f.rule, f.line)]
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def default_lint_root() -> Path:
    """The ``src/repro`` tree of the installed/checked-out package."""
    import repro
    return Path(repro.__file__).resolve().parent


def iter_python_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def lint_paths(paths: Iterable[Path], *,
               rules: Optional[Set[str]] = None) -> List[Finding]:
    """Lint files and directories; directories are walked recursively."""
    findings: List[Finding] = []
    for path in paths:
        path = Path(path)
        files = iter_python_files(path) if path.is_dir() else [path]
        for file in files:
            rel = str(file)
            findings.extend(lint_source(file.read_text(encoding="utf-8"),
                                        rel, rules=rules))
    return findings


def lint_repo(*, rules: Optional[Set[str]] = None) -> List[Finding]:
    """Lint the whole ``src/repro`` package (the repo's determinism gate)."""
    return lint_paths([default_lint_root()], rules=rules)
