"""Leaf-effect extraction and bottom-up fixpoint propagation.

Effects originate at a handful of *intrinsic* shapes -- the places where
simulated time, charged bytes, randomness, host time or tracer spans enter
the program:

===============  ====================================================
CLOCK_ADVANCE    store to ``<clock>.now``; call to ``<clock>.advance``
DISK_CHARGE      store to ``<disk>.busy_until``; call to a raw
                 ``SimDisk`` costing method (``fg_io``, ``fg_stream``,
                 ``bg_grant``, ``bg_count``, ``sync_drain``, ``_count``);
                 ``fg`` / ``reserve`` on a server, from a ``SimDisk`` method
NET_CHARGE       ``fg`` / ``reserve`` from a ``SimNetwork`` method
OBJSTORE_CHARGE  ``fg`` / ``reserve`` from a ``SimObjectStore`` method
RNG_DRAW         method call on a ``random.Random`` / numpy Generator
                 receiver; module-global ``random.*`` / ``np.random.*``;
                 unseeded ``Random()`` / ``default_rng()``
HOST_TIME        ``time.time`` / ``perf_counter`` / ``datetime.now``...
SPAN_BEGIN/END   ``<tracer>.begin`` / ``<tracer>.end``
STATE_MUTATE     attribute/subscript store whose base escapes the local
                 frame (``self``, a parameter, a global)
===============  ====================================================

Receivers are typed via the call graph's attribute/annotation tables; when
a receiver cannot be typed, name heuristics (a chain ending in ``clock``,
``tracer``, ``rng``) catch the intrinsics -- an unknown receiver can hide
a *call* but not a repo-defined effect, because the effect's definition
site is itself analyzed.

Propagation is a plain worklist fixpoint over the call edges:
``effects(f) = leaves(f) | union(effects(g) for g called by f)``.
Nested functions (closures handed to the background pool) are charged to
their *defining* function, which matches the runtime: whoever submits the
job owns its debt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.effects.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    RNG_TYPES,
    _dotted,
)
from repro.check.effects.registry import (
    CLOCK_ADVANCE,
    DISK_CHARGE,
    HOST_TIME,
    NET_CHARGE,
    OBJSTORE_CHARGE,
    RNG_DRAW,
    SPAN_BEGIN,
    SPAN_END,
    STATE_MUTATE,
)
from repro.check.lint import _GLOBAL_RANDOM_FNS, _WALL_CLOCK
from repro.common.errors import ConfigError

#: Raw SimDisk costing methods: calling one *is* touching the device.
RAW_DEVICE_METHODS: FrozenSet[str] = frozenset({
    "fg_io", "fg_stream", "bg_grant", "bg_count", "sync_drain", "_count",
})
#: Raw device methods that also advance the shared clock.
_RAW_DEVICE_CLOCK: FrozenSet[str] = frozenset({
    "fg_io", "fg_stream", "sync_drain",
})

#: The simulated hardware, as (module, class): each is (or holds)
#: ``SimResource`` servers, and a request (``fg`` / ``reserve``) one of its
#: methods queues on a server is that kind of charge.
SERVER_OWNERS: Dict[Tuple[str, str], str] = {
    ("repro.storage.simdisk", "SimDisk"): DISK_CHARGE,
    ("repro.cluster.network", "SimNetwork"): NET_CHARGE,
    ("repro.objstore.store", "SimObjectStore"): OBJSTORE_CHARGE,
}

#: Seeded effects, by (module, function), for functions whose intrinsic
#: nature is not pattern-recognizable (pulling a row out of the scan merge
#: runs the sequence cursors underneath, and iteration leaves no call edge
#: to follow).
SEED_EFFECTS: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("repro.db.iterator", "merge_visible"):
        frozenset({CLOCK_ADVANCE, DISK_CHARGE}),
    ("repro.db.iterator", "DbIterator.__next__"):
        frozenset({CLOCK_ADVANCE, DISK_CHARGE}),
}

_SIMDISK = "repro.storage.simdisk.SimDisk"
_SIMCLOCK = "repro.storage.simdisk.SimClock"
_SIMRESOURCE = "repro.storage.simdisk.SimResource"


@dataclass(frozen=True)
class LeafSite:
    """One intrinsic effect occurrence inside a function body."""

    effect: str
    #: Site category: "clock-store", "clock-advance", "raw-device",
    #: "server-request", "rng-draw", "rng-unseeded", "rng-global",
    #: "host-time", "span-begin", "span-end", "state-store", "seed".
    kind: str
    lineno: int
    col: int
    detail: str


@dataclass
class EffectInfo:
    """Per-function analysis result."""

    fn: FunctionInfo
    leaves: List[LeafSite] = field(default_factory=list)
    callees: Set[str] = field(default_factory=set)
    #: Fixpoint result: every effect reachable from this function.
    inferred: FrozenSet[str] = frozenset()

    @property
    def leaf_effects(self) -> FrozenSet[str]:
        return frozenset(site.effect for site in self.leaves)


class _FunctionScanner:
    """One pass over a single function body (nested defs excluded)."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.mod: ModuleInfo = graph.modules[info.module]
        self.out = EffectInfo(fn=info)
        self.env: Dict[str, str] = {}
        #: Parameter names (stores through these are shared-state mutation).
        self.params: Set[str] = set()
        #: Names bound by assignment inside the frame (stores through these
        #: stay local).
        self.frame_locals: Set[str] = set()
        if info.cls is not None and not info.name.startswith("__new__"):
            self.env["self"] = info.cls.qualname
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.params.add(arg.arg)
            t = graph.resolve_annotation(self.mod, arg.annotation)
            if t is not None:
                self.env[arg.arg] = t
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)

    # ------------------------------------------------------------------ drive
    def scan(self) -> EffectInfo:
        self._collect_locals(self.info.node.body)
        for stmt in self.info.node.body:
            self._walk(stmt)
        info = self.info
        seeded = SEED_EFFECTS.get(
            (info.module, info.qualname[len(info.module) + 1:]))
        if seeded:
            for effect in sorted(seeded):
                self._leaf(effect, "seed", self.info.node,
                           "registry-seeded intrinsic")
        return self.out

    def _iter_nodes(self, node: ast.AST) -> "List[ast.AST]":
        """ast.walk that does not descend into nested function defs.

        Nested defs are analyzed as their own ``<locals>`` functions and
        charged to the definer via a synthetic call edge, so scanning
        their bodies here would double-count every leaf.
        """
        out: List[ast.AST] = []
        stack: List[ast.AST] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append(cur)
            for child in ast.iter_child_nodes(cur):
                stack.append(child)
        return out

    def _collect_locals(self, body: List[ast.stmt]) -> None:
        """Names assigned in this frame, and their types when inferable."""
        for stmt in body:
            for node in self._iter_nodes(stmt):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    targets, value = [node.target], node.value
                    t = self.graph.resolve_annotation(self.mod,
                                                      node.annotation)
                    if t is not None:
                        self.env.setdefault(node.target.id, t)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    targets = [node.target]
                elif isinstance(node, ast.withitem) and \
                        node.optional_vars is not None:
                    targets = [node.optional_vars]
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self.frame_locals.add(name_node.id)
                if value is not None and len(targets) == 1 and \
                        isinstance(targets[0], ast.Name):
                    t = self._expr_type(value)
                    if t is not None:
                        self.env.setdefault(targets[0].id, t)

    # -------------------------------------------------------------- type eval
    def _expr_type(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.IfExp):
            return self._expr_type(expr.body) or self._expr_type(expr.orelse)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value)
            if base is not None:
                return self.graph.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted is None:
                return None
            cls = self.graph.resolve_class(self.mod, dotted)
            if cls is not None:
                return cls
            resolved = self.graph.resolve_name(self.mod, dotted)
            if resolved is not None and resolved in self.graph.functions:
                target = self.graph.functions[resolved]
                target_mod = self.graph.modules[target.module]
                return self.graph.resolve_annotation(target_mod,
                                                     target.node.returns)
            return None
        return None

    # ---------------------------------------------------------------- leaves
    def _leaf(self, effect: str, kind: str, node: ast.AST,
              detail: str) -> None:
        self.out.leaves.append(LeafSite(
            effect=effect, kind=kind,
            lineno=getattr(node, "lineno", self.info.lineno),
            col=getattr(node, "col_offset", 0), detail=detail))

    def _root_name(self, expr: ast.expr) -> Optional[str]:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    def _check_store(self, target: ast.expr, node: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, node)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        if isinstance(target, ast.Attribute):
            base_t = self._expr_type(target.value)
            base_dotted = _dotted(target.value) or ""
            base_tail = base_dotted.rpartition(".")[2]
            # Object birth is not time passing: ``self.now = 0`` inside the
            # clock's own __init__ (or ``self.busy_until = 0`` in the
            # disk's) would otherwise leak CLOCK_ADVANCE / DISK_CHARGE
            # into every factory that constructs a simulation.
            if base_dotted == "self" and \
                    self.info.name in ("__init__", "__post_init__"):
                pass
            elif target.attr == "now" and (
                    base_t == _SIMCLOCK or base_tail == "clock" or
                    base_tail.endswith("clock") or
                    (base_dotted == "self" and self.info.cls is not None and
                     self.info.cls.name.endswith("Clock"))):
                self._leaf(CLOCK_ADVANCE, "clock-store", node,
                           f"store to {base_dotted or '<expr>'}.now")
            elif target.attr == "busy_until" and (
                    base_t == _SIMDISK or
                    base_tail.endswith("disk") or
                    (base_dotted == "self" and self.info.cls is not None and
                     self.info.cls.name.endswith("Disk"))):
                self._leaf(DISK_CHARGE, "device-store", node,
                           f"store to {base_dotted or '<expr>'}.busy_until")
        # Store escapes the local frame: self.x, param.x, global.x, or an
        # unresolvable chain -- all count as shared-state mutation.
        root = self._root_name(target)
        if root is None or root in self.params or \
                root not in self.frame_locals:
            self._leaf(STATE_MUTATE, "state-store", node,
                       f"store through non-local base {root or '<expr>'}")

    # ----------------------------------------------------------------- calls
    def _edge(self, target: FunctionInfo) -> None:
        self.out.callees.add(target.qualname)

    def _resolve_call(self, call: ast.Call) -> Tuple[List[FunctionInfo], str]:
        """(resolved targets, receiver-description) of one call."""
        func = call.func
        # super().method()
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Call) and \
                _dotted(func.value.func) == "super" and \
                self.info.cls is not None and self.info.cls.bases:
            return (self.graph.resolve_method(self.info.cls.bases[0],
                                              func.attr), "super()")
        dotted = _dotted(func)
        if isinstance(func, ast.Name):
            resolved = self.graph.resolve_name(self.mod, func.id)
            if resolved is not None:
                if resolved in self.graph.functions:
                    return [self.graph.functions[resolved]], func.id
                if resolved in self.graph.classes:
                    targets = []
                    for ctor in ("__init__", "__post_init__"):
                        targets.extend(
                            self.graph.resolve_method(resolved, ctor))
                    return targets, func.id
            return [], func.id
        if isinstance(func, ast.Attribute):
            receiver = func.value
            recv_t = self._expr_type(receiver)
            if recv_t is not None:
                if recv_t in self.graph.classes:
                    return (self.graph.resolve_method(recv_t, func.attr),
                            recv_t)
                return [], recv_t
            # Module-level function via dotted path.
            if dotted is not None:
                resolved = self.graph.resolve_name(self.mod, dotted)
                if resolved is not None:
                    if resolved in self.graph.functions:
                        return [self.graph.functions[resolved]], dotted
                    if resolved in self.graph.classes:
                        targets = []
                        for ctor in ("__init__", "__post_init__"):
                            targets.extend(
                                self.graph.resolve_method(resolved, ctor))
                        return targets, dotted
            return [], _dotted(receiver) or "<expr>"
        return [], "<expr>"

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        dotted = _dotted(func) or ""
        targets, recv = self._resolve_call(call)
        for target in targets:
            self._edge(target)

        # --- HOST_TIME: wall-clock reads, by dotted path or import alias.
        resolved_dotted = dotted
        if isinstance(func, ast.Name):
            imported = self.mod.imports.get(func.id)
            if imported is not None:
                resolved_dotted = imported
        if dotted in _WALL_CLOCK or resolved_dotted in _WALL_CLOCK:
            self._leaf(HOST_TIME, "host-time", call,
                       f"wall-clock read via {dotted or resolved_dotted}")

        # --- RNG: global module draws, unseeded constructors, typed draws.
        head, _, tail = dotted.rpartition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_FNS:
            self._leaf(RNG_DRAW, "rng-global", call,
                       f"module-global random.{tail}")
        elif head.endswith("random") and head not in ("random", "") and \
                tail in _GLOBAL_RANDOM_FNS | {"rand", "randn"}:
            self._leaf(RNG_DRAW, "rng-global", call,
                       f"global numpy RNG {dotted}")
        if dotted in ("random.Random", "Random") or tail == "default_rng" \
                or dotted == "default_rng":
            if not call.args and not call.keywords:
                self._leaf(RNG_DRAW, "rng-unseeded", call,
                           f"{dotted}() constructed without a seed")
        if isinstance(func, ast.Attribute):
            recv_t = self._expr_type(func.value)
            recv_dotted = _dotted(func.value) or ""
            recv_tail = recv_dotted.rpartition(".")[2]
            if recv_t in RNG_TYPES:
                self._leaf(RNG_DRAW, "rng-draw", call,
                           f"draw {func.attr} on {recv_t} receiver")
            elif recv_t is None and (recv_tail == "rng" or
                                     recv_tail.endswith("_rng")):
                self._leaf(RNG_DRAW, "rng-draw", call,
                           f"draw {func.attr} on rng-named receiver "
                           f"{recv_dotted}")

            # --- CLOCK_ADVANCE via <clock>.advance(...)
            if func.attr == "advance" and (
                    recv_t == _SIMCLOCK or recv_tail == "clock"):
                self._leaf(CLOCK_ADVANCE, "clock-advance", call,
                           f"clock advance via {recv_dotted or recv_t}")

            # --- raw device calls (REP102 sites + fallback effects)
            if func.attr in RAW_DEVICE_METHODS and (
                    recv_t == _SIMDISK or
                    (recv_t is None and (recv_tail in ("disk", "_disk") or
                                         recv_tail.endswith("disk")))):
                self._leaf(DISK_CHARGE, "raw-device", call,
                           f"raw SimDisk.{func.attr} via "
                           f"{recv_dotted or recv_t}")
                if func.attr in _RAW_DEVICE_CLOCK and recv_t != _SIMDISK:
                    # Resolved SimDisk calls get CLOCK_ADVANCE through the
                    # call edge; unresolved receivers need the fallback.
                    self._leaf(CLOCK_ADVANCE, "raw-device", call,
                               f"clock moves inside SimDisk.{func.attr}")

            # --- a request a hardware class queues on one of its servers
            if func.attr in ("fg", "reserve") and self.info.cls is not None:
                owner = self.info.cls
                charge = SERVER_OWNERS.get((owner.module, owner.name))
                if charge is not None:
                    self._leaf(charge, "server-request", call,
                               f"{owner.name} queues a request ({func.attr})")
                    # A link comes out of a dict untyped: a server all the same.
                    for target in self.graph.resolve_method(_SIMRESOURCE,
                                                            func.attr):
                        self._edge(target)

            # --- tracer spans
            tracer_recv = (recv_t is not None and
                           self.graph.classes.get(recv_t) is not None and
                           "Tracer" in self.graph.classes[recv_t].name) or \
                          "tracer" in recv_dotted.split(".")
            if tracer_recv and func.attr == "begin":
                self._leaf(SPAN_BEGIN, "span-begin", call,
                           f"span begin on {recv_dotted or recv_t}")
            elif tracer_recv and func.attr == "end":
                self._leaf(SPAN_END, "span-end", call,
                           f"span end on {recv_dotted or recv_t}")

    # ----------------------------------------------------------------- walk
    def _walk(self, stmt: ast.stmt) -> None:
        nodes = self._iter_nodes(stmt)
        # An ``Attribute`` that is the ``.func`` of a call is already
        # handled by ``_check_call``; only *bare* references (a wall-clock
        # function passed around as a value) go through the Load branch.
        call_funcs = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._check_store(target, node)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._check_store(node.target, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._check_store(target, node)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load) and \
                    id(node) not in call_funcs:
                dotted = _dotted(node)
                if dotted in _WALL_CLOCK:
                    self._leaf(HOST_TIME, "host-time", node,
                               f"wall-clock reference {dotted}")


def analyze_function(graph: CallGraph, info: FunctionInfo) -> EffectInfo:
    """Leaf effects and call edges of one function."""
    out = _FunctionScanner(graph, info).scan()
    # A nested def is charged to its definer (closure submitted as a job).
    prefix = f"{info.qualname}.<locals>."
    for qual in graph.functions:
        if qual.startswith(prefix) and \
                "<locals>" not in qual[len(prefix):]:
            out.callees.add(qual)
    return out


def infer_effects(graph: CallGraph) -> Dict[str, EffectInfo]:
    """Whole-program fixpoint: qualname -> :class:`EffectInfo`."""
    # The registries are looked up by name: after a rename an entry matches
    # nothing and its effect silently leaves every caller's inferred set.
    known = graph.functions.keys() | graph.classes.keys()
    gone = [f"{module}.{member}"
            for module, member in [*SEED_EFFECTS, *SERVER_OWNERS]
            if module in graph.modules and f"{module}.{member}" not in known]
    if gone:
        raise ConfigError("SEED_EFFECTS / SERVER_OWNERS name code that is "
                          "gone (re-home or delete): " + ", ".join(gone))
    table: Dict[str, EffectInfo] = {}
    for qual, info in graph.functions.items():
        table[qual] = analyze_function(graph, info)
    # Reverse edges for the worklist.
    callers: Dict[str, Set[str]] = {}
    for qual, eff in table.items():
        for callee in eff.callees:
            if callee in table:
                callers.setdefault(callee, set()).add(qual)
    # Initialize with leaves, then propagate to fixpoint.
    current: Dict[str, Set[str]] = {
        qual: set(eff.leaf_effects) for qual, eff in table.items()}
    worklist = list(table)
    in_list = set(worklist)
    while worklist:
        qual = worklist.pop()
        in_list.discard(qual)
        eff = table[qual]
        combined = set(eff.leaf_effects)
        for callee in eff.callees:
            if callee in current:
                combined |= current[callee]
        if combined != current[qual]:
            current[qual] = combined
            for caller in callers.get(qual, ()):
                if caller not in in_list:
                    worklist.append(caller)
                    in_list.add(caller)
    for qual, eff in table.items():
        eff.inferred = frozenset(current[qual])
    return table
