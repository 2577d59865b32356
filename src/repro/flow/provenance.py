"""FLOW601–603: interprocedural RNG provenance.

Every random draw that can run on behalf of an entry point (a
``repro.cli`` ``cmd_*`` experiment or a tool's ``repro.<tool>.cli``
``main``) must trace back to a deterministic source: a
``derived_stream(...)`` / ``RandomStreams.get(...)`` with a replayable
key, or a seeded ``np.random.default_rng(seed)``.  The analysis:

* classifies, per function, the *origin* of every generator a draw
  method (``integers``/``random``/``choice``/...) is invoked on —
  local ``derived_stream`` calls, the ``rng if rng is not None else
  derived_stream(K)`` fallback idiom (on ``self`` attributes or
  locals), or an injected parameter;
* propagates origins along call edges, tracking *per call site*
  whether the rng argument was actually supplied — an omitted
  optional ``rng`` selects the fallback branch, a supplied one
  selects the caller's origins;
* constant-folds stream keys (f-strings fold around their holes) so
  two distinct call sites that collapse to the same fully-constant
  ``(key, seed)`` are reported as a collision — two components
  sharing a stream draw *correlated* values, a failure no output
  comparison shows.

Rules:

* **FLOW601 untraced-rng-draw** — a draw reachable from an entry
  point whose generator cannot be traced to any deterministic source.
* **FLOW602 stream-key-collision** — two distinct call sites fold to
  the same fully-constant stream key (and seed).
* **FLOW603 tainted-stream-key** — a stream key built from
  non-spec-pure values (wall clock, PIDs, environment, ``id()``,
  ``hash()``): replayable neither across runs nor across hosts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.flow.graph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    dotted,
    function_scope,
)
from repro.lint.engine import Finding

#: np.random.Generator methods that consume randomness.
DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation",
    "permuted", "normal", "standard_normal", "exponential", "uniform",
    "poisson", "binomial", "geometric", "gamma", "beta", "bytes",
    "lognormal", "triangular", "laplace", "multinomial", "standard_t",
    "chisquare", "dirichlet", "multivariate_normal",
})

#: Receiver names that look generator-shaped even when untyped.
_RNG_NAME_HINTS = ("rng", "stream", "random", "gen")

#: Dotted call prefixes whose values are not pure functions of the
#: spec: folding them into a stream key breaks replayability.
_TAINT_CALLS = (
    "time.", "datetime.", "os.getpid", "os.urandom", "os.environ",
    "uuid.", "random.", "secrets.", "socket.gethostname",
    "platform.",
)
_TAINT_BUILTINS = frozenset({"id", "hash"})


@dataclass(frozen=True)
class Origin:
    """Where a generator's entropy comes from.

    kind: "derived" (keyed stream), "seeded" (default_rng(seed)),
    "param" (injected, resolved at call edges), "fallback" (the ``x if
    x is not None else derived_stream(K)`` idiom — param plus a
    derived fallback), or "unknown".
    """

    kind: str
    key: str = ""
    path: str = ""
    line: int = 0
    #: for "param"/"fallback": the owning function + parameter name.
    func: str = ""
    param: str = ""
    #: for "derived": whether the folded key has no holes.
    constant: bool = False
    tainted: bool = False
    seed_repr: str = ""


@dataclass
class DrawSite:
    """One generator-method call and the receiver's local origins."""

    func: str
    path: str
    line: int
    col: int
    method: str
    origins: Tuple[Origin, ...]


@dataclass
class ProvenanceResult:
    findings: List[Finding]
    draw_sites: List[DrawSite] = field(default_factory=list)
    derived_sites: List[Origin] = field(default_factory=list)


def _fold_key(node: ast.expr) -> Tuple[str, List[ast.expr], bool]:
    """Constant-fold a stream-key expression.

    Returns (pattern, hole expressions, fully_constant).  Holes are
    rendered as ``{}`` in the pattern, so two sites only collide when
    their constant parts agree *and* neither has holes.
    """
    if isinstance(node, ast.Constant):
        return str(node.value), [], True
    if isinstance(node, ast.JoinedStr):
        pattern = ""
        holes: List[ast.expr] = []
        constant = True
        for value in node.values:
            if isinstance(value, ast.Constant):
                pattern += str(value.value)
            elif isinstance(value, ast.FormattedValue):
                pattern += "{}"
                holes.append(value.value)
                constant = False
            else:
                pattern += "{}"
                constant = False
        return pattern, holes, constant
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _fold_key(node.left)
        right = _fold_key(node.right)
        return (left[0] + right[0], left[1] + right[1],
                left[2] and right[2])
    if isinstance(node, ast.Call):
        func_text = dotted(node.func) or ""
        if func_text.endswith(".format"):
            base = _fold_key(node.func.value) if isinstance(
                node.func, ast.Attribute) else ("{}", [node], False)
            return base[0], base[1] + list(node.args), False
    return "{}", [node], False


def _is_tainted(holes: Sequence[ast.expr],
                imports: Dict[str, str]) -> bool:
    for hole in holes:
        for node in ast.walk(hole):
            if not isinstance(node, ast.Call):
                continue
            text = dotted(node.func)
            if text is None:
                continue
            head = text.split(".")[0]
            resolved = imports.get(head, head)
            full = resolved + text[len(head):]
            if text in _TAINT_BUILTINS:
                return True
            if any(full.startswith(prefix) or full == prefix.rstrip(
                    ".") for prefix in _TAINT_CALLS):
                return True
    return False


def _seed_repr(node: ast.Call) -> str:
    for index, arg in enumerate(node.args):
        if index == 1:
            return ast.unparse(arg)
    for keyword in node.keywords:
        if keyword.arg == "seed":
            return ast.unparse(keyword.value)
    return "0"


class _FunctionFacts:
    """Local rng dataflow for one function."""

    def __init__(self, graph: CallGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.module = graph.modules.get(func.module)
        self.locals: Dict[str, Tuple[Origin, ...]] = {}
        self.draws: List[DrawSite] = []
        self.derived: List[Origin] = []
        self._collect()

    # -- classification ------------------------------------------------
    def _classify_call(self, node: ast.Call) -> Optional[Origin]:
        """Origin when ``node`` creates a generator, else None."""
        text = dotted(node.func) or ""
        imports = self.module.imports if self.module else {}
        head = text.split(".")[0]
        resolved = imports.get(head, head) + text[len(head):] \
            if head else text
        terminal = text.split(".")[-1]
        if terminal == "derived_stream" and (
                resolved.endswith("rng.derived_stream")
                or text == "derived_stream"):
            return self._derived_origin(node, ambient=True)
        if resolved.endswith("random.default_rng") \
                or text.endswith("default_rng"):
            if node.args or node.keywords:
                return Origin(kind="seeded", path=self.func.path,
                              line=node.lineno,
                              key=ast.unparse(node.args[0])
                              if node.args else "<kw>")
            return Origin(kind="unknown", path=self.func.path,
                          line=node.lineno)
        if terminal == "get" and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            recv_text = dotted(recv) or ""
            if self._is_streams(recv_text) and node.args:
                return self._derived_origin(node, key_arg=node.args[0])
        return None

    def _fallback_origin(self, primary: ast.expr,
                         alternate: ast.expr) -> Optional[Origin]:
        """The ``rng if rng is not None else derived_stream(K)``
        idiom (or ``rng or derived_stream(K)``): a parameter with a
        keyed-stream fallback, resolved per call edge."""
        if not isinstance(primary, ast.Name):
            return None
        if primary.id not in self.func.params:
            return None
        other = self._classify_expr(alternate)
        if len(other) != 1 or other[0].kind != "derived":
            return None
        return Origin(
            kind="fallback", key=other[0].key, path=other[0].path,
            line=other[0].line, func=self.func.qualname,
            param=primary.id, constant=other[0].constant,
            tainted=other[0].tainted, seed_repr=other[0].seed_repr,
        )

    def _is_streams(self, recv_text: str) -> bool:
        if not recv_text:
            return False
        scope = function_scope(self.graph, self.func)
        parts = recv_text.split(".")
        if parts[0] == "self" and self.func.class_qualname:
            info = self.graph.classes.get(self.func.class_qualname)
            if info and len(parts) == 2:
                typed = info.attr_types.get(parts[1], "")
                if typed.endswith("RandomStreams"):
                    return True
                # fall through to the name heuristic: the attr type
                # is often unknown (e.g. bound by a fallback IfExp)
        typed = scope.var_types.get(recv_text, "")
        if typed.endswith("RandomStreams"):
            return True
        annotation = self.func.annotations.get(recv_text, "")
        return annotation.endswith("RandomStreams") \
            or "streams" in recv_text.lower()

    def _derived_origin(self, node: ast.Call,
                        key_arg: Optional[ast.expr] = None,
                        ambient: bool = False) -> Origin:
        """``ambient`` marks the module-level ``derived_stream``
        helper, whose seed argument is part of the key; a
        ``RandomStreams.get`` key is scoped to its instance's seed."""
        key_arg = key_arg if key_arg is not None else (
            node.args[0] if node.args else None)
        if key_arg is None:
            return Origin(kind="unknown", path=self.func.path,
                          line=node.lineno)
        pattern, holes, constant = _fold_key(key_arg)
        imports = self.module.imports if self.module else {}
        origin = Origin(
            kind="derived", key=pattern, path=self.func.path,
            line=node.lineno, constant=constant,
            tainted=_is_tainted(holes, imports),
            seed_repr=_seed_repr(node) if ambient else "<instance>",
        )
        self.derived.append(origin)
        return origin

    def _classify_expr(self, node: ast.expr) -> Tuple[Origin, ...]:
        """Origins of a generator-valued expression, locally."""
        if isinstance(node, ast.Call):
            origin = self._classify_call(node)
            if origin is not None:
                return (origin,)
            return ()
        if isinstance(node, ast.IfExp):
            # rng if rng is not None else derived_stream(K)
            fallback = self._fallback_origin(node.body, node.orelse)
            if fallback is not None:
                return (fallback,)
            return (self._classify_expr(node.body)
                    + self._classify_expr(node.orelse))
        if isinstance(node, ast.BoolOp) and isinstance(node.op,
                                                       ast.Or):
            if len(node.values) == 2:
                fallback = self._fallback_origin(node.values[0],
                                                 node.values[1])
                if fallback is not None:
                    return (fallback,)
            out: Tuple[Origin, ...] = ()
            for value in node.values:
                out += self._classify_expr(value)
            return out
        text = dotted(node)
        if text is None:
            return ()
        if text in self.locals:
            return self.locals[text]
        parts = text.split(".")
        if parts[0] == "self" and self.func.class_qualname \
                and len(parts) == 2:
            attr_origins = _class_rng_attrs(
                self.graph, self.func.class_qualname).get(parts[1])
            if attr_origins:
                return attr_origins
            return ()
        if text in self.func.params:
            return (Origin(kind="param", func=self.func.qualname,
                           param=text, path=self.func.path,
                           line=self.func.line),)
        return ()

    # -- collection ----------------------------------------------------
    def _collect(self) -> None:
        from repro.flow.graph import _walk_own_body

        for node in _walk_own_body(self.func):
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if targets:
                    origins = self._classify_expr(node.value)
                    if origins:
                        for name in targets:
                            self.locals[name] = origins
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in DRAW_METHODS:
                recv = node.func.value
                origins = self._classify_expr(recv)
                recv_text = dotted(recv) or ""
                terminal = recv_text.split(".")[-1].lower()
                looks_rng = any(hint in terminal
                                for hint in _RNG_NAME_HINTS)
                annotation = self.func.annotations.get(recv_text, "")
                if "Generator" in annotation:
                    looks_rng = True
                if not origins and not looks_rng:
                    continue  # `.choice` on something non-random
                self.draws.append(DrawSite(
                    func=self.func.qualname, path=self.func.path,
                    line=node.lineno, col=node.col_offset,
                    method=node.func.attr, origins=origins or (
                        Origin(kind="param", func=self.func.qualname,
                               param=recv_text, path=self.func.path,
                               line=node.lineno)
                        if recv_text in self.func.params else
                        Origin(kind="unknown", path=self.func.path,
                               line=node.lineno),
                    ),
                ))


_ATTR_CACHE: Dict[int, Dict[str, Dict[str, Tuple[Origin, ...]]]] = {}


def _class_rng_attrs(graph: CallGraph, class_qualname: str
                     ) -> Dict[str, Tuple[Origin, ...]]:
    """``self.<attr>`` rng origins, from ``__init__`` assignments.

    Walks base classes first so an attribute set by
    ``super().__init__`` (the ``Allocator`` fallback idiom) is seen by
    subclasses that define their own ``__init__``; derived-class
    assignments overlay inherited ones.
    """
    cache = _ATTR_CACHE.setdefault(id(graph), {})
    if class_qualname in cache:
        return cache[class_qualname]
    cache[class_qualname] = {}  # break recursion
    out: Dict[str, Tuple[Origin, ...]] = {}
    info = graph.classes.get(class_qualname)
    if info is not None:
        for base in info.bases:
            bare = base.split(".")[-1]
            for candidate in graph.class_by_name.get(bare, []):
                out.update(_class_rng_attrs(graph, candidate))
    init = graph.functions.get(class_qualname + ".__init__")
    if init is not None:
        facts = _FunctionFacts.__new__(_FunctionFacts)
        facts.graph = graph
        facts.func = init
        facts.module = graph.modules.get(init.module)
        facts.locals = {}
        facts.derived = []
        facts.draws = []
        from repro.flow.graph import _walk_own_body

        for node in _walk_own_body(init):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    origins = facts._classify_expr(node.value)
                    if origins:
                        out[target.attr] = origins
    cache[class_qualname] = out
    return out


def entry_points(graph: CallGraph) -> Dict[str, str]:
    """qualname -> label ("experiment:<name>")."""
    entries: Dict[str, str] = {}
    for qualname, func in graph.functions.items():
        if func.module == "repro.cli" and func.name.startswith("cmd_"):
            entries[qualname] = f"experiment:{func.name[4:]}"
        # A tool's own command line, which ``repro <tool>`` also runs.
        parts = func.module.split(".")
        if len(parts) == 3 and parts[2] == "cli" and func.name == "main":
            entries[qualname] = f"experiment:{parts[1]}"
    return entries


def _rng_params(func: FunctionInfo) -> List[str]:
    out = []
    for param in func.params:
        annotation = func.annotations.get(param, "")
        if param in ("rng", "generator") or "Generator" in annotation:
            out.append(param)
    return out


def _bind_edge_args(graph: CallGraph, caller: FunctionInfo,
                    site: CallSite, callee: FunctionInfo,
                    node: ast.Call,
                    facts: "_FunctionFacts"
                    ) -> Dict[str, Tuple[Origin, ...]]:
    """Origins flowing into the callee's rng params at this site.

    A param bound to the sentinel ``("omitted",)`` origin means the
    caller did not supply it, so the callee's fallback (if any)
    applies.
    """
    params = callee.params
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    supplied: Dict[str, Tuple[Origin, ...]] = {}
    for index, arg in enumerate(node.args):
        if index < len(params):
            supplied[params[index]] = facts._classify_expr(arg)
    for keyword in node.keywords:
        if keyword.arg:
            supplied[keyword.arg] = facts._classify_expr(keyword.value)
    out: Dict[str, Tuple[Origin, ...]] = {}
    for param in _rng_params(callee):
        if param in supplied:
            out[param] = supplied[param] or (
                Origin(kind="unknown", func=caller.qualname,
                       path=caller.path, line=site.line),)
        elif param in callee.none_default_params:
            # Record *which* caller omitted the rng: the fallback only
            # matters if that construction site is itself on the
            # relevant paths.
            out[param] = (Origin(kind="omitted", func=caller.qualname,
                                 path=caller.path, line=site.line),)
        else:
            out[param] = (Origin(kind="unknown", func=caller.qualname,
                                 path=caller.path, line=site.line),)
    return out


def analyze_provenance(graph: CallGraph) -> ProvenanceResult:
    """Run FLOW601–603 over the whole graph."""
    entries = entry_points(graph)
    facts_by_func: Dict[str, _FunctionFacts] = {}

    def facts_of(qualname: str) -> Optional[_FunctionFacts]:
        if qualname not in facts_by_func:
            func = graph.functions.get(qualname)
            if func is None:
                return None
            facts_by_func[qualname] = _FunctionFacts(graph, func)
        return facts_by_func[qualname]

    # ------------------------------------------------------------------
    # Interprocedural propagation: param -> origins, per function.
    # ------------------------------------------------------------------
    param_origins: Dict[str, Dict[str, Set[Origin]]] = {}
    reachable_from: Dict[str, Set[str]] = {}

    worklist: List[str] = []
    for qualname, label in entries.items():
        func = graph.functions.get(qualname)
        if func is None:
            continue
        store = param_origins.setdefault(qualname, {})
        for param in _rng_params(func):
            store.setdefault(param, set()).add(
                Origin(kind="seeded", key="<cli-seed>"))
        reachable_from.setdefault(qualname, set()).add(label)
        worklist.append(qualname)

    ast_cache: Dict[Tuple[str, int, int], ast.Call] = {}
    for qualname in graph.functions:
        func = graph.functions[qualname]
        from repro.flow.graph import _walk_own_body

        for node in _walk_own_body(func):
            if isinstance(node, ast.Call):
                ast_cache[(qualname, node.lineno,
                           node.col_offset)] = node

    seen_edges: Set[Tuple[str, str, int, int]] = set()
    iterations = 0
    while worklist and iterations < 200_000:
        iterations += 1
        current = worklist.pop(0)
        caller = graph.functions.get(current)
        caller_facts = facts_of(current)
        if caller is None or caller_facts is None:
            continue
        labels = reachable_from.get(current, set())
        for site in graph.callees(current):
            node = ast_cache.get((current, site.line, site.col))
            for target in site.targets:
                callee = graph.functions.get(target)
                if callee is None:
                    continue
                changed = False
                store = param_origins.setdefault(target, {})
                if node is not None and site.kind in ("direct",
                                                      "constructor",
                                                      "registry"):
                    # Store raw origins; they are resolved
                    # transitively once propagation has finished, so
                    # ordering cannot bake in a stale upstream store.
                    bound = _bind_edge_args(
                        graph, caller, site, callee, node,
                        caller_facts)
                    for param, origins in bound.items():
                        bucket = store.setdefault(param, set())
                        before = len(bucket)
                        bucket.update(origins)
                        changed |= len(bucket) != before
                targets_labels = reachable_from.setdefault(
                    target, set())
                before_labels = len(targets_labels)
                targets_labels.update(labels)
                changed |= len(targets_labels) != before_labels
                edge = (current, target, site.line, site.col)
                if changed or edge not in seen_edges:
                    seen_edges.add(edge)
                    if changed or target not in param_origins:
                        worklist.append(target)

    # ------------------------------------------------------------------
    # Findings.
    # ------------------------------------------------------------------
    findings: List[Finding] = []
    all_draws: List[DrawSite] = []
    all_derived: List[Origin] = []
    for qualname in graph.functions:
        facts = facts_of(qualname)
        if facts is None:
            continue
        all_draws.extend(facts.draws)
        all_derived.extend(facts.derived)

    for draw in all_draws:
        labels = reachable_from.get(draw.func, set())
        if not labels:
            continue
        resolved = _resolve_origins(draw.origins, param_origins)
        untraced = [
            o for o in resolved
            if o.kind == "unknown"
            and (not o.func or o.func in reachable_from)
        ]
        if not resolved or untraced:
            findings.append(Finding(
                path=draw.path, line=draw.line, col=draw.col,
                code="FLOW601", rule="untraced-rng-draw",
                message=(
                    f"rng.{draw.method}() in {draw.func} (reached "
                    f"from {_label_text(labels)}) does not trace to "
                    f"derived_stream/seeded generator"
                ),
            ))

    # FLOW602: fully-constant keys shared by distinct call sites.
    by_key: Dict[Tuple[str, str], List[Origin]] = {}
    for origin in all_derived:
        if origin.constant:
            by_key.setdefault((origin.key, origin.seed_repr),
                              []).append(origin)
    for (key, seed), origins in sorted(by_key.items()):
        sites = sorted({(o.path, o.line) for o in origins})
        if len(sites) < 2:
            continue
        for path, line in sites:
            others = ", ".join(f"{p}:{n}" for p, n in sites
                               if (p, n) != (path, line))
            findings.append(Finding(
                path=path, line=line, col=0, code="FLOW602",
                rule="stream-key-collision",
                message=(
                    f"stream key {key!r} (seed={seed}) is also "
                    f"derived at {others}; distinct components "
                    f"sharing a stream draw correlated values"
                ),
            ))

    # FLOW603: keys folded from non-spec-pure expressions.
    for origin in all_derived:
        if origin.tainted:
            findings.append(Finding(
                path=origin.path, line=origin.line, col=0,
                code="FLOW603", rule="tainted-stream-key",
                message=(
                    f"stream key {origin.key!r} folds in a "
                    f"non-spec-pure value (wall clock, pid, "
                    f"environment, id() or hash()); the stream is "
                    f"not replayable"
                ),
            ))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return ProvenanceResult(findings=findings, draw_sites=all_draws,
                            derived_sites=all_derived)


def _resolve_origins(origins: Sequence[Origin],
                     param_origins: Dict[str, Dict[str, Set[Origin]]],
                     _seen: Optional[Set[Tuple[str, str, str]]] = None
                     ) -> Tuple[Origin, ...]:
    """Flatten param/fallback origins through the caller bindings.

    Each param/fallback origin names its *owning* function (for a
    ``self.rng`` fallback that is ``__init__``, not the method doing
    the draw), so the lookup goes through the owner's binding store —
    recursively, since a caller may itself have received the rng as a
    parameter.  ``_seen`` guards recursion through mutually-passing
    functions.
    """
    seen = _seen if _seen is not None else set()
    out: List[Origin] = []
    for origin in origins:
        if origin.kind not in ("param", "fallback"):
            out.append(origin)
            continue
        key = (origin.kind, origin.func, origin.param)
        if key in seen:
            continue
        seen.add(key)
        incoming = param_origins.get(origin.func, {}).get(
            origin.param)
        if origin.kind == "param":
            if not incoming:
                out.append(origin)
                continue
            for o in incoming:
                if o.kind == "omitted":
                    out.append(Origin(kind="unknown", func=o.func,
                                      path=origin.path,
                                      line=origin.line))
                else:
                    out.extend(_resolve_origins(
                        (o,), param_origins, seen))
        else:  # fallback
            if not incoming:
                # Nothing entry-reachable bound the param; neither
                # branch is provable, so stay quiet (soundness gap,
                # documented).
                out.append(origin)
                continue
            for o in incoming:
                if o.kind == "omitted":
                    out.append(origin)  # the keyed fallback stream
                else:
                    out.extend(_resolve_origins(
                        (o,), param_origins, seen))
    return tuple(out)


def _label_text(labels: Set[str]) -> str:
    return ", ".join(sorted(labels)[:3])
