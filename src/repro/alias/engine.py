"""The ALIAS801–814 escape/aliasing engine over the flow call graph.

Two passes over the whole program:

* **Pass A** walks every function's own body once: leak checks on
  ``return`` statements (801/802), aliased stores (803), iterator
  invalidation (804), mutation-after-publish (805), identity reliance
  (806–808), unresolved calls inside migrating classes (813), and
  defensive copies on hot paths (814).  Along the way it records,
  per resolved call target, every site where a *caller* binds the
  call's result and then mutates it (the :class:`CallIndex` from
  :mod:`repro.flow.interproc`).
* **Pass B** joins the two: for every method pass A proved leaks a
  live internal container, every recorded caller-side mutation of
  its result becomes an interprocedural ALIAS803 finding tagged with
  the shared ``[reached via ...]`` label pointing at the leak.

Leak findings are tempered interprocedurally in the other direction
too: a leading-underscore helper that returns ``self._x`` only fires
when the graph shows a caller *outside* the class (internal plumbing
between methods of one object aliases nothing externally).

Escape classification (local / module / global per class) lives in
:mod:`repro.alias.escape`; this module feeds it the publish sites it
sees and emits ALIAS811 from its verdicts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.alias.classinfo import (
    AliasFacts,
    COPY_CALLS,
    MUTATOR_METHODS,
    SIZE_CHANGING_METHODS,
    collect_alias_facts,
    container_kind,
)
from repro.alias.escape import classify_escapes
from repro.flow.graph import (
    BENIGN_BUILTINS,
    CallGraph,
    FunctionInfo,
    _walk_own_body,
    dotted,
    function_scope,
)
from repro.flow.hotpath import hot_roots
from repro.flow.interproc import CallIndex, via_label
from repro.lint.engine import Finding

#: Packages whose classes are migrating to the struct-of-arrays core.
MIGRATING_PREFIXES = ("repro.core.", "repro.sim.", "repro.sap.",
                      "repro.routing.")

#: Dict methods that hand back a live view of the mapping.
_VIEW_METHODS = frozenset({"values", "keys", "items"})

#: Method names whose unresolved calls are *not* a soundness gap:
#: container/str/stdlib vocabulary the rules model directly or that
#: cannot alias internal state.
_BENIGN_METHODS = MUTATOR_METHODS | _VIEW_METHODS | frozenset({
    "get", "copy", "count", "index", "join", "split", "strip",
    "format", "startswith", "endswith", "encode", "decode", "lower",
    "upper", "replace", "rsplit", "rstrip", "lstrip", "popleft",
    "most_common", "bit_length", "to_bytes", "from_bytes", "isdigit",
    "splitlines", "partition", "rpartition",
    # ndarray/scalar vocabulary: value producers, never alias
    # container state the rules track
    "astype", "tolist", "item", "sum", "mean", "std", "argmax",
    "argmin", "nonzero", "searchsorted", "clip", "cumsum",
    # numpy.random.Generator draws (provenance is FLOW61x's beat)
    "integers", "uniform", "random", "normal", "choice", "shuffle",
    "permutation", "exponential",
    # struct.Struct codecs
    "pack", "unpack", "unpack_from", "pack_into",
})


def is_migrating(qualname: str) -> bool:
    return qualname.startswith(MIGRATING_PREFIXES)


@dataclass
class AliasResult:
    """Raw engine output (suppressions/ledger applied by analysis)."""

    findings: List[Finding] = field(default_factory=list)
    advisory: List[Finding] = field(default_factory=list)
    #: class qualname -> ALIAS8xx codes attributed to it (SoA blockers)
    class_rules: Dict[str, Set[str]] = field(default_factory=dict)
    #: class qualname -> ("local"|"module"|"global", detail)
    escape: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    facts: Optional[AliasFacts] = None
    #: function qualname -> hot-root label (flow hot reachability)
    hot_of: Dict[str, str] = field(default_factory=dict)


class _AliasEngine:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.facts = collect_alias_facts(graph)
        self.result = AliasResult(facts=self.facts)
        self.callinfo = CallIndex()
        #: leaking method qualname -> (attr, path, line)
        self.leaks: Dict[str, Tuple[str, int, str]] = {}
        #: class qualname -> publish detail (instances stored into
        #: module/class-level containers)
        self.published_classes: Dict[str, str] = {}
        self._extern_called: Set[str] = set()
        self._known_callers: Set[str] = set()
        self._index_callers()
        self._index_hot()

    # -- setup ---------------------------------------------------------
    def _index_callers(self) -> None:
        for caller, sites in self.graph.calls.items():
            caller_info = self.graph.functions.get(caller)
            caller_cls = (caller_info.class_qualname
                          if caller_info else None)
            for site in sites:
                for target in site.targets:
                    self._known_callers.add(target)
                    info = self.graph.functions.get(target)
                    if info is None:
                        continue
                    if info.class_qualname is None or \
                            info.class_qualname != caller_cls:
                        self._extern_called.add(target)

    def _index_hot(self) -> None:
        roots = hot_roots(self.graph)
        for root, label in roots.items():
            for reached in self.graph.reachable([root]):
                self.result.hot_of.setdefault(reached, label)

    # -- bookkeeping ---------------------------------------------------
    def _blame(self, class_qualname: Optional[str],
               code: str) -> None:
        if class_qualname:
            self.result.class_rules.setdefault(
                class_qualname, set()).add(code)

    def _hard(self, path: str, line: int, col: int, code: str,
              rule: str, message: str,
              blame: Optional[str] = None) -> None:
        self.result.findings.append(Finding(
            path=path, line=line, col=col, code=code, rule=rule,
            message=message))
        self._blame(blame, code)

    def _advise(self, path: str, line: int, col: int, code: str,
                rule: str, message: str,
                blame: Optional[str] = None) -> None:
        self.result.advisory.append(Finding(
            path=path, line=line, col=col, code=code, rule=rule,
            message=message))
        self._blame(blame, code)

    # -- type plumbing -------------------------------------------------
    def _chain_type(self, func: FunctionInfo, scope,
                    node: ast.expr) -> Optional[str]:
        """Class qualname of an expression, when the graph knows it."""
        text = dotted(node)
        if text is None:
            return None
        parts = text.split(".")
        if len(parts) == 1:
            return scope.var_types.get(parts[0])
        if parts[0] == "self" and func.class_qualname \
                and len(parts) == 2:
            info = self.graph.classes.get(func.class_qualname)
            if info:
                return info.attr_types.get(parts[1])
        return None

    def _migrating_facts(self, qualname: Optional[str]):
        if qualname is None or not is_migrating(qualname):
            return None
        facts = self.facts.classes.get(qualname)
        if facts is None or facts.is_enum or facts.is_exception:
            return None
        return facts

    # -- main drive ----------------------------------------------------
    def run(self) -> AliasResult:
        for qualname in sorted(self.graph.functions):
            func = self.graph.functions[qualname]
            if isinstance(func.node, ast.Lambda):
                continue
            self._check_function(func)
        self._check_param_stores()
        self._pass_b()
        self._check_escapes()
        self._finish_stats()
        return self.result

    # -- pass A: one walk per function ---------------------------------
    def _check_function(self, func: FunctionInfo) -> None:
        scope = function_scope(self.graph, func)
        module = self.graph.modules.get(func.module)
        holders = self.facts.modules.get(func.module)
        sites_by_pos = {(s.line, s.col): s
                        for s in self.graph.callees(func.qualname)
                        if s.kind != "callback"}

        #: local name -> self attr it aliases (xs = self._entries)
        alias_of: Dict[str, str] = {}
        #: local name -> resolved targets of the call that produced it
        result_of: Dict[str, Tuple[str, ...]] = {}
        #: local name -> holder description it was published into
        published: Dict[str, str] = {}
        #: (For nodes already reported, by id) guard double reports
        hot_label = self.result.hot_of.get(func.qualname)

        def self_attr_of(node: ast.expr) -> Optional[str]:
            text = dotted(node)
            if text is None:
                return None
            parts = text.split(".")
            if len(parts) == 2 and parts[0] == "self":
                return parts[1]
            if len(parts) == 1:
                return alias_of.get(parts[0])
            return None

        for node in _walk_own_body(func):
            if isinstance(node, ast.Assign):
                self._track_assign(func, node, alias_of, result_of,
                                   sites_by_pos)
                self._check_publish_store(func, scope, holders, node,
                                          published)
                self._check_post_publish_attr(func, node, published)
                self._check_hash_key_store(func, scope, node)
            elif isinstance(node, ast.Return) and \
                    node.value is not None:
                self._check_return(func, node, self_attr_of)
            elif isinstance(node, ast.For):
                self._check_iteration(func, node)
            elif isinstance(node, ast.Delete):
                self._track_delete(func, node, result_of)
            elif isinstance(node, ast.Compare):
                self._check_identity_compare(func, scope, node)
            elif isinstance(node, ast.Call):
                self._check_call(func, scope, holders, node,
                                 result_of, published, hot_label)
            elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load):
                self._check_hash_key_load(func, scope, node)

        self._check_unresolved(func, module)

    # -- leak rules (801/802) ------------------------------------------
    def _leak_applies(self, func: FunctionInfo) -> bool:
        """Public methods always; private helpers only when the graph
        shows a caller outside the class; dunders never (implicit
        call sites the graph cannot see)."""
        if func.class_qualname is None:
            return False
        name = func.name
        if name.startswith("__") and name.endswith("__"):
            return False
        if not name.startswith("_"):
            return True
        return func.qualname in self._extern_called

    def _check_return(self, func: FunctionInfo, node: ast.Return,
                      self_attr_of) -> None:
        if not self._leak_applies(func):
            return
        cls = func.class_qualname
        value = node.value
        assert cls is not None and value is not None

        attr = self_attr_of(value)
        if attr is not None and attr.startswith("_"):
            kind = self.facts.container_kind_of(self.graph, cls, attr)
            if kind:
                self._record_leak(func, node, attr)
                self._hard(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS801", "leaked-internal-container",
                    f"{func.qualname} returns live internal {kind} "
                    f"self.{attr}; callers can mutate "
                    f"{cls.rsplit('.', 1)[-1]}'s state behind its "
                    f"back — return tuple(...) or a copy",
                    blame=cls)
                return

        # Live dict views: return self._x.values()/.keys()/.items()
        if isinstance(value, ast.Call) and isinstance(
                value.func, ast.Attribute) and \
                value.func.attr in _VIEW_METHODS and not value.args:
            attr = self_attr_of(value.func.value)
            if attr is not None and attr.startswith("_") and \
                    self.facts.container_kind_of(
                        self.graph, cls, attr) == "dict":
                self._record_leak(func, node, attr)
                self._hard(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS802", "leaked-container-view",
                    f"{func.qualname} returns a live "
                    f".{value.func.attr}() view of self.{attr}; the "
                    f"view tracks (and exposes) later internal "
                    f"mutation — materialize with list(...)",
                    blame=cls)
                return

        # Live stored elements: return self._x[k] / self._x.get(k)
        target = None
        if isinstance(value, ast.Subscript):
            target = value.value
        elif isinstance(value, ast.Call) and isinstance(
                value.func, ast.Attribute) and \
                value.func.attr == "get":
            target = value.func.value
        if target is not None:
            attr = self_attr_of(target)
            if attr is not None and attr.startswith("_") and \
                    self.facts.element_container(self.graph, cls,
                                                 attr):
                self._record_leak(func, node, attr)
                self._hard(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS802", "leaked-container-view",
                    f"{func.qualname} returns a live stored element "
                    f"of self.{attr}; mutating it mutates "
                    f"{cls.rsplit('.', 1)[-1]}'s internal state",
                    blame=cls)

    def _record_leak(self, func: FunctionInfo, node: ast.Return,
                     attr: str) -> None:
        self.leaks.setdefault(
            func.qualname, (attr, node.lineno, func.path))

    # -- aliased stores (803a) -----------------------------------------
    def _check_param_stores(self) -> None:
        for qualname in sorted(self.facts.classes):
            facts = self.facts.classes[qualname]
            info = self.graph.classes.get(qualname)
            typed_attrs = set(info.attr_types) if info else set()
            for attr in sorted(facts.param_stored):
                param, method, line = facts.param_stored[attr]
                if attr not in facts.mutated_attrs:
                    continue
                if attr in typed_attrs:
                    continue  # a typed object, not a raw container
                if attr in facts.container_attrs:
                    continue  # also rebound to a fresh container
                self._hard(
                    facts.path, line, 0, "ALIAS803",
                    "aliased-mutation",
                    f"{facts.name} stores caller-supplied parameter "
                    f"{param!r} as self.{attr} without copying and "
                    f"later mutates it; caller and instance now "
                    f"share one container (copy at the boundary)",
                    blame=qualname)

    # -- caller-side tracking for pass B -------------------------------
    def _track_assign(self, func: FunctionInfo, node: ast.Assign,
                      alias_of: Dict[str, str],
                      result_of: Dict[str, Tuple[str, ...]],
                      sites_by_pos) -> None:
        if len(node.targets) != 1 or not isinstance(
                node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        alias_of.pop(name, None)
        result_of.pop(name, None)
        text = dotted(node.value)
        if text is not None:
            parts = text.split(".")
            if len(parts) == 2 and parts[0] == "self":
                alias_of[name] = parts[1]
            return
        if isinstance(node.value, ast.Call):
            site = sites_by_pos.get((node.value.lineno,
                                     node.value.col_offset))
            if site is not None and site.targets:
                result_of[name] = site.targets

    def _record_result_mutation(self, func: FunctionInfo, name: str,
                                result_of, line: int, col: int,
                                op: str) -> None:
        for target in result_of.get(name, ()):
            self.callinfo.record(
                target, CallIndex.RETURN_SLOT,
                (op, func.path, line, col),
                func.qualname, func.path, line)

    def _track_delete(self, func: FunctionInfo, node: ast.Delete,
                      result_of) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name):
                self._record_result_mutation(
                    func, target.value.id, result_of, node.lineno,
                    node.col_offset, "del")

    def _pass_b(self) -> None:
        """Join caller-side mutations with proved leaks (803b)."""
        for method in self.callinfo.callees():
            leak = self.leaks.get(method)
            if leak is None:
                continue
            attr, leak_line, leak_path = leak
            info = self.graph.functions.get(method)
            blame = info.class_qualname if info else None
            via = via_label(method, leak_path, leak_line)
            for entry in self.callinfo.entries(
                    method, CallIndex.RETURN_SLOT):
                op, path, line, col = entry.value
                self._hard(
                    path, line, col, "ALIAS803", "aliased-mutation",
                    f"{entry.caller} mutates ({op}) the live "
                    f"container self.{attr} leaked by {method} "
                    f"{via}",
                    blame=blame)

    # -- iterator invalidation (804) -----------------------------------
    def _check_iteration(self, func: FunctionInfo,
                         node: ast.For) -> None:
        iterable = node.iter
        if isinstance(iterable, ast.Call):
            callee = dotted(iterable.func) or ""
            if callee.split(".")[-1] in COPY_CALLS or \
                    callee in COPY_CALLS:
                return  # snapshot taken
            if isinstance(iterable.func, ast.Attribute) and \
                    iterable.func.attr in _VIEW_METHODS and \
                    not iterable.args:
                chain = dotted(iterable.func.value)
            else:
                return
        else:
            chain = dotted(iterable)
        if not chain:
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute) and \
                    inner.func.attr in SIZE_CHANGING_METHODS and \
                    dotted(inner.func.value) == chain:
                self._hard(
                    func.path, inner.lineno, inner.col_offset,
                    "ALIAS804", "iterator-invalidation",
                    f"{chain} mutated with .{inner.func.attr}() "
                    f"while being iterated (loop at line "
                    f"{node.lineno}); snapshot with list({chain}) "
                    f"first",
                    blame=func.class_qualname)
            elif isinstance(inner, ast.Delete):
                for target in inner.targets:
                    if isinstance(target, ast.Subscript) and \
                            dotted(target.value) == chain:
                        self._hard(
                            func.path, inner.lineno,
                            inner.col_offset,
                            "ALIAS804", "iterator-invalidation",
                            f"del {chain}[...] while iterating "
                            f"{chain} (loop at line {node.lineno}); "
                            f"snapshot with list({chain}) first",
                            blame=func.class_qualname)

    # -- publish tracking (805 + escape feed) --------------------------
    def _holder_of(self, func: FunctionInfo, holders,
                   chain: str) -> Optional[str]:
        parts = chain.split(".")
        if holders is not None and len(parts) == 1 and \
                parts[0] in holders.containers:
            return f"module-global {parts[0]} in {func.module}"
        if len(parts) == 2:
            for candidate in (f"{func.module}.{parts[0]}",):
                attrs = self.facts.class_containers.get(candidate)
                if attrs and parts[1] in attrs:
                    return f"class-level {parts[0]}.{parts[1]}"
            matches = self.graph.class_by_name.get(parts[0], [])
            if len(matches) == 1:
                attrs = self.facts.class_containers.get(matches[0])
                if attrs and parts[1] in attrs:
                    return f"class-level {parts[0]}.{parts[1]}"
        return None

    def _note_publish(self, func: FunctionInfo, scope,
                      value: ast.expr, holder: str,
                      published: Dict[str, str]) -> None:
        if isinstance(value, ast.Name):
            published[value.id] = holder
        cls = self._chain_type(func, scope, value)
        if cls is None and isinstance(value, ast.Call):
            # publishing a fresh instance: Cls(...) straight in
            callee = dotted(value.func) or ""
            matches = self.graph.class_by_name.get(
                callee.split(".")[-1], [])
            if len(matches) == 1:
                cls = matches[0]
        if cls is not None:
            self.published_classes.setdefault(cls, holder)

    def _check_publish_store(self, func: FunctionInfo, scope, holders,
                             node: ast.Assign,
                             published: Dict[str, str]) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                continue
            chain = dotted(target.value)
            if not chain:
                continue
            holder = self._holder_of(func, holders, chain)
            if holder:
                self._note_publish(func, scope, node.value, holder,
                                   published)

    def _check_post_publish_attr(self, func: FunctionInfo,
                                 node: ast.Assign,
                                 published: Dict[str, str]) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name) and \
                    target.value.id in published:
                name = target.value.id
                self._hard(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS805", "mutation-after-publish",
                    f"{name}.{target.attr} assigned after {name} "
                    f"was published to {published[name]}; every "
                    f"holder of the shared reference sees the late "
                    f"write",
                    blame=func.class_qualname)

    # -- per-call checks (805 publish/mutate, 807, 808, 814, B feed) ---
    def _check_call(self, func: FunctionInfo, scope, holders,
                    node: ast.Call, result_of,
                    published: Dict[str, str],
                    hot_label: Optional[str]) -> None:
        callee = dotted(node.func) or ""
        terminal = callee.split(".")[-1]

        # id() — identity reliance (807).
        if callee == "id" and len(node.args) == 1:
            arg_cls = self._chain_type(func, scope, node.args[0])
            blame = arg_cls if self._migrating_facts(arg_cls) else (
                func.class_qualname
                if self._migrating_facts(func.class_qualname)
                else None)
            if blame or is_migrating(func.module + "."):
                self._advise(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS807", "identity-call",
                    f"id({dotted(node.args[0]) or '...'}) in "
                    f"{func.qualname}; the object address is gone "
                    f"once instances are rows in a struct-of-arrays",
                    blame=blame)

        if not isinstance(node.func, ast.Attribute):
            # Defensive copies on hot paths (814): list(x)/sorted(x)…
            if hot_label and terminal in COPY_CALLS and \
                    len(node.args) == 1 and \
                    self._copies_existing(node.args[0]):
                self._advise(
                    func.path, node.lineno, node.col_offset,
                    "ALIAS814", "hot-defensive-copy",
                    f"defensive {terminal}(...) in {func.qualname} "
                    f"on hot path (root {hot_label}); exactly the "
                    f"per-event cost the SoA migration deletes",
                    blame=func.class_qualname)
            return

        method = node.func.attr
        receiver = dotted(node.func.value)

        # .copy() on hot paths (814).
        if hot_label and method == "copy" and not node.args \
                and receiver:
            self._advise(
                func.path, node.lineno, node.col_offset,
                "ALIAS814", "hot-defensive-copy",
                f"defensive {receiver}.copy() in {func.qualname} on "
                f"hot path (root {hot_label}); exactly the "
                f"per-event cost the SoA migration deletes",
                blame=func.class_qualname)

        if method not in MUTATOR_METHODS:
            return

        # Mutating a bound call result — feed pass B (803b).
        if isinstance(node.func.value, ast.Name):
            self._record_result_mutation(
                func, node.func.value.id, result_of, node.lineno,
                node.col_offset, f".{method}()")

        # Mutating a published object (805).
        if isinstance(node.func.value, ast.Name) and \
                node.func.value.id in published:
            name = node.func.value.id
            self._hard(
                func.path, node.lineno, node.col_offset,
                "ALIAS805", "mutation-after-publish",
                f"{name}.{method}() after {name} was published to "
                f"{published[name]}; every holder of the shared "
                f"reference sees the late write",
                blame=func.class_qualname)

        # Publishing into a module/class-level container (805 feed).
        if receiver and method in ("append", "add", "setdefault") \
                and node.args:
            holder = self._holder_of(func, holders, receiver)
            if holder:
                self._note_publish(func, scope, node.args[0], holder,
                                   published)

        # Identity-hashed key added to a set (808).
        if method == "add" and len(node.args) == 1:
            self._check_hash_key_value(func, scope, node.args[0],
                                       node, "set member")

    def _copies_existing(self, arg: ast.expr) -> bool:
        """True when a copy call's argument is existing data (an
        attribute/name chain, or a view call on one) rather than a
        fresh literal/generator."""
        if dotted(arg) is not None:
            return isinstance(arg, (ast.Attribute, ast.Name))
        if isinstance(arg, ast.Call) and isinstance(
                arg.func, ast.Attribute) and \
                arg.func.attr in (_VIEW_METHODS | {"copy"}):
            return True
        return False

    # -- identity reliance (806/808) -----------------------------------
    def _check_identity_compare(self, func: FunctionInfo, scope,
                                node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            left, right = operands[index], operands[index + 1]
            left_cls = self._chain_type(func, scope, left)
            right_cls = self._chain_type(func, scope, right)
            left_facts = self._migrating_facts(left_cls)
            right_facts = self._migrating_facts(right_cls)
            if left_facts is None or right_facts is None:
                continue
            word = "is not" if isinstance(op, ast.IsNot) else "is"
            self._advise(
                func.path, node.lineno, node.col_offset,
                "ALIAS806", "identity-comparison",
                f"'{word}' between {left_facts.name} and "
                f"{right_facts.name} instances in {func.qualname}; "
                f"object identity has no meaning once instances are "
                f"rows — compare keys/values",
                blame=left_cls)
            if right_cls != left_cls:
                self._blame(right_cls, "ALIAS806")

    def _check_hash_key_value(self, func: FunctionInfo, scope,
                              key: ast.expr, node: ast.AST,
                              role: str) -> None:
        cls = self._chain_type(func, scope, key)
        facts = self._migrating_facts(cls)
        if facts is None or not facts.identity_hashed:
            return
        self._advise(
            func.path, node.lineno, node.col_offset,
            "ALIAS808", "identity-hash-key",
            f"{facts.name} instance used as {role} in "
            f"{func.qualname} relies on default object-identity "
            f"hashing; equal values collapse (or split) once "
            f"identity is gone — key by a value field",
            blame=cls)

    def _check_hash_key_store(self, func: FunctionInfo, scope,
                              node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_hash_key_value(
                    func, scope, target.slice, target, "dict key")

    def _check_hash_key_load(self, func: FunctionInfo, scope,
                             node: ast.Subscript) -> None:
        self._check_hash_key_value(func, scope, node.slice, node,
                                   "dict key")

    # -- soundness boundary (813) --------------------------------------
    def _check_unresolved(self, func: FunctionInfo, module) -> None:
        if self._migrating_facts(func.class_qualname) is None:
            return
        for site in self.graph.callees(func.qualname):
            if site.kind != "direct" or site.resolved:
                continue
            terminal = site.callee_text.split(".")[-1]
            if site.callee_text in BENIGN_BUILTINS or \
                    terminal in _BENIGN_METHODS or \
                    site.callee_text == "<expr>":
                continue
            if site.callee_text.split(".")[0] == "cls":
                continue  # classmethod constructing its own class
            if module and site.callee_text.split(".")[0] in \
                    module.imports:
                continue  # stdlib/third-party module call, not state
            self._advise(
                site.path, site.line, site.col,
                "ALIAS813", "unresolved-alias-call",
                f"call {site.callee_text}(...) in {func.qualname} "
                f"is outside the graph; aliasing past this edge is "
                f"assumed, not proved (shared soundness boundary "
                f"with FLOW615)",
                blame=func.class_qualname)

    # -- escape classification (811) -----------------------------------
    def _check_escapes(self) -> None:
        self.result.escape = classify_escapes(
            self.graph, self.facts, self.published_classes)
        for qualname in sorted(self.result.escape):
            level, detail = self.result.escape[qualname]
            if level != "global":
                continue
            facts = self._migrating_facts(qualname)
            if facts is None:
                continue
            self._advise(
                facts.path, facts.line, 0,
                "ALIAS811", "global-escape",
                f"instances of {facts.name} are reachable from "
                f"{detail}; the ambient holder must migrate with "
                f"the class",
                blame=qualname)

    # -- stats ---------------------------------------------------------
    def _finish_stats(self) -> None:
        levels = {"local": 0, "module": 0, "global": 0}
        migrating = 0
        for qualname in self.result.escape:
            levels[self.result.escape[qualname][0]] += 1
            if self._migrating_facts(qualname) is not None:
                migrating += 1
        self.result.stats.update({
            "functions": len(self.graph.functions),
            "classes": len(self.facts.classes),
            "migrating_classes": migrating,
            "escape_local": levels["local"],
            "escape_module": levels["module"],
            "escape_global": levels["global"],
            "leaking_methods": len(self.leaks),
        })
        self.result.findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.code))
        self.result.advisory.sort(
            key=lambda f: (f.path, f.line, f.col, f.code))


def analyze_alias(graph: CallGraph) -> AliasResult:
    """Run ALIAS801–814 (minus the ledger rollup) over the graph."""
    return _AliasEngine(graph).run()
