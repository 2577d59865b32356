"""Whole-program call graph over the ``repro`` tree.

The builder indexes every function the AST can see — module-level
functions, methods, nested closures, lambdas bound to names, functions
wrapped in ``functools.partial`` — and resolves call expressions to
their targets using, in order of preference:

* local bindings (``f = helper`` / ``f = partial(helper, 3)``);
* imports (``from repro.sim.rng import derived_stream``;
  ``import repro.sim.rng as rng`` / attribute chains through it);
* the defining module's own globals;
* the receiver's class for ``self.m(...)`` / ``cls.m(...)`` — plus
  every subclass override, class-hierarchy-analysis style, so a call
  through ``Allocator.allocate`` reaches every algorithm;
* parameter/attribute type annotations and ``x = ClassName(...)``
  constructor assignments for ``obj.m(...)``;
* module-level ``str -> callable`` registries: a call through
  ``REGISTRY[key](...)`` (or through a function whose return value is
  a registry lookup) edges to *every* registered callable, which is
  how ``ALGORITHM_FACTORIES`` stays inside the analysed graph.

Function-valued arguments (``schedule(delay, self._fire)``) become
*callback* edges from the caller to the referenced function: anything
a caller hands out can run on its behalf, so reachability treats it
as called.

Soundness caveats (documented, tested in
``tests/test_flow_graph.py``): calls through values produced by
arbitrary expressions (``getattr(obj, name)()``, callables stored in
instance attributes the indexer cannot type, monkey-patched names)
are *not* resolved; they stay call sites with no targets, so a draw
reached only through one is not checked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import iter_python_files

#: Module attribute chains treated as ``functools.partial``.
_PARTIAL_NAMES = {"partial", "functools.partial"}

#: Builtins that never need resolution: a bare name in this set is
#: never looked up as a repro function.
BENIGN_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "bytes", "callable", "chr", "dict",
    "divmod", "enumerate", "filter", "float", "format", "frozenset",
    "getattr", "hasattr", "hex", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object",
    "oct", "ord", "pow", "range", "repr", "reversed", "round", "set",
    "slice", "sorted", "str", "sum", "super", "tuple", "type", "vars",
    "zip", "ArithmeticError", "AssertionError", "AttributeError",
    "Exception", "IndexError", "KeyError", "KeyboardInterrupt",
    "LookupError", "NotImplementedError", "OSError", "OverflowError",
    "RuntimeError", "StopIteration", "TypeError", "ValueError",
    "ZeroDivisionError", "FileNotFoundError", "delattr", "setattr",
    "staticmethod", "classmethod", "property", "hash", "id", "print",
    "open", "input", "exec", "eval", "compile", "globals", "locals",
    "memoryview", "bytearray", "complex",
})


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_of(path: str) -> str:
    """Dotted module name, anchored at the last ``repro`` component.

    ``src/repro/sim/rng.py`` -> ``repro.sim.rng``; paths without a
    ``repro`` anchor use the bare stem (scratch/test fixtures).
    """
    parts = Path(path).parts
    anchor = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            anchor = index
            break
    tail = parts[anchor:] if anchor is not None else parts[-1:]
    names = [Path(part).stem if part.endswith(".py") else part
             for part in tail]
    if names and names[-1] == "__init__":
        names = names[:-1]
    return ".".join(names)


@dataclass
class FunctionInfo:
    """One analysable function, method, closure or named lambda."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    class_qualname: Optional[str] = None
    params: List[str] = field(default_factory=list)
    #: params whose default is the literal ``None`` (optional-inject
    #: idiom: ``rng: Generator = None``).
    none_default_params: Set[str] = field(default_factory=set)
    annotations: Dict[str, str] = field(default_factory=dict)
    #: qualnames a call to this function may return (when the return
    #: expression is a function reference or a registry lookup).
    returns_callables: Set[str] = field(default_factory=set)

    def body(self) -> Sequence[ast.stmt]:
        if isinstance(self.node, ast.Lambda):
            return [ast.Expr(self.node.body)]
        return self.node.body


@dataclass
class ClassInfo:
    """A class: methods, bases, and what its attributes hold."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    #: instance attribute -> class qualname (from ``self.x = Cls(...)``
    #: and annotated ``__init__`` parameters stored onto ``self``).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: instance attribute -> function qualnames (callables stored on
    #: self, e.g. ``self.timer_factory = factory``).
    attr_callables: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved as far as the graph can."""

    caller: str
    path: str
    line: int
    col: int
    callee_text: str
    targets: Tuple[str, ...]
    #: "direct" | "callback" | "registry" | "constructor"
    kind: str = "direct"

    @property
    def resolved(self) -> bool:
        return bool(self.targets)


@dataclass
class ModuleInfo:
    """Per-file symbol tables feeding the whole-program graph."""

    path: str
    name: str
    tree: ast.Module
    #: local alias -> dotted target ("np" -> "numpy",
    #: "derived_stream" -> "repro.sim.rng.derived_stream").
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-global name -> function qualnames it is bound to.
    global_callables: Dict[str, Set[str]] = field(default_factory=dict)
    #: module-global dict registries: name -> callable qualnames.
    registries: Dict[str, Set[str]] = field(default_factory=dict)


class CallGraph:
    """The indexed program: functions, classes, and resolved edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> qualnames (for base-class linking).
        self.class_by_name: Dict[str, List[str]] = {}
        #: class qualname -> direct subclass qualnames.
        self.subclasses: Dict[str, List[str]] = {}
        #: caller qualname -> call sites.
        self.calls: Dict[str, List[CallSite]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def method_targets(self, class_qualname: str,
                       method: str) -> List[str]:
        """The method on a class, its ancestors, and every override.

        Class-hierarchy analysis: a call through a base-class receiver
        may dispatch to any subclass override, so all of them are
        returned (the defining class's own implementation first).
        """
        targets: List[str] = []
        seen: Set[str] = set()

        def own_or_inherited(cq: str) -> Optional[str]:
            walked: Set[str] = set()
            while cq and cq not in walked:
                walked.add(cq)
                info = self.classes.get(cq)
                if info is None:
                    return None
                if method in info.methods:
                    return info.methods[method]
                next_cq = None
                for base in info.bases:
                    for candidate in self.class_by_name.get(base, []):
                        next_cq = candidate
                        break
                    if next_cq:
                        break
                cq = next_cq or ""
            return None

        base_target = own_or_inherited(class_qualname)
        if base_target:
            targets.append(base_target)
            seen.add(base_target)
        stack = list(self.subclasses.get(class_qualname, []))
        while stack:
            sub = stack.pop()
            info = self.classes.get(sub)
            if info is None:
                continue
            override = info.methods.get(method)
            if override and override not in seen:
                targets.append(override)
                seen.add(override)
            stack.extend(self.subclasses.get(sub, []))
        return targets


# ---------------------------------------------------------------------
# Indexing pass
# ---------------------------------------------------------------------
class _Indexer(ast.NodeVisitor):
    """First pass over one module: functions, classes, bindings."""

    def __init__(self, graph: CallGraph, module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self._scope: List[str] = []       # qualname components
        self._scope_kinds: List[str] = []  # "class" | "func"
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []

    # -- helpers -------------------------------------------------------
    def _qual(self, name: str) -> str:
        inner = ".".join(self._scope + [name])
        return f"{self.module.name}.{inner}" if inner else self.module.name

    def _register_function(self, node, name: str) -> FunctionInfo:
        qualname = self._qual(name)
        info = FunctionInfo(
            qualname=qualname, module=self.module.name, name=name,
            path=self.module.path, line=node.lineno, node=node,
            class_qualname=(self._class_stack[-1].qualname
                            if self._scope_kinds
                            and self._scope_kinds[-1] == "class"
                            else None),
        )
        if not isinstance(node, ast.Lambda):
            args = node.args
            ordered = (list(args.posonlyargs) + list(args.args)
                       + list(args.kwonlyargs))
            info.params = [arg.arg for arg in ordered]
            for arg in ordered:
                if arg.annotation is not None:
                    text = dotted(arg.annotation)
                    if text is None and isinstance(
                            arg.annotation, ast.Constant):
                        text = str(arg.annotation.value)
                    if text:
                        info.annotations[arg.arg] = text
            pos = list(args.posonlyargs) + list(args.args)
            defaults = list(args.defaults)
            for arg, default in zip(pos[len(pos) - len(defaults):],
                                    defaults):
                if isinstance(default, ast.Constant) \
                        and default.value is None:
                    info.none_default_params.add(arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if isinstance(default, ast.Constant) \
                        and default.value is None:
                    info.none_default_params.add(arg.arg)
        else:
            info.params = [arg.arg for arg in node.args.args]
        self.graph.functions[qualname] = info
        return info

    # -- visitors ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(
                ".")[0]
            self.module.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.module.imports[local] = f"{node.module}.{alias.name}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qual(node.name)
        info = ClassInfo(
            qualname=qualname, module=self.module.name,
            name=node.name, path=self.module.path, line=node.lineno,
            bases=[b for b in (dotted(base) for base in node.bases)
                   if b],
        )
        self.graph.classes[qualname] = info
        self.graph.class_by_name.setdefault(node.name, []).append(
            qualname)
        self._class_stack.append(info)
        self._scope.append(node.name)
        self._scope_kinds.append("class")
        self.generic_visit(node)
        self._scope_kinds.pop()
        self._scope.pop()
        self._class_stack.pop()

    def _visit_function(self, node, name: str) -> None:
        info = self._register_function(node, name)
        if self._class_stack and info.class_qualname:
            self._class_stack[-1].methods[name] = info.qualname
        self._scope.append(name)
        self._scope_kinds.append("func")
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()
        self._scope_kinds.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambdas are indexed when bound (Assign/dict literal); bare
        # inline lambdas (sort keys etc.) stay anonymous.
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._index_binding(node.targets, node.value)
        self.generic_visit(node)

    def _callable_ref(self, node: ast.AST) -> Optional[str]:
        """qualname when ``node`` statically references a function."""
        text = dotted(node)
        if text is None:
            return None
        head = text.split(".")[0]
        if head in self.module.imports:
            resolved = self.module.imports[head]
            candidate = resolved + text[len(head):]
            return candidate
        candidate = f"{self.module.name}.{text}"
        return candidate

    def _index_binding(self, targets: Sequence[ast.expr],
                       value: ast.expr) -> None:
        if self._func_stack or self._class_stack:
            return  # only module-level bindings feed the global table
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        bound: Set[str] = set()
        if isinstance(value, ast.Lambda):
            for name in names:
                info = self._register_function(value, name)
                bound.add(info.qualname)
        else:
            ref = self._resolve_value_ref(value)
            if ref:
                bound.add(ref)
        if isinstance(value, ast.Dict):
            registry: Set[str] = set()
            for item in value.values:
                if isinstance(item, ast.Lambda):
                    anon = self._register_function(
                        item, f"<lambda:{item.lineno}>")
                    registry.add(anon.qualname)
                else:
                    ref = self._resolve_value_ref(item)
                    if ref:
                        registry.add(ref)
            if registry:
                for name in names:
                    self.module.registries[name] = registry
        if bound:
            for name in names:
                self.module.global_callables.setdefault(
                    name, set()).update(bound)

    def _resolve_value_ref(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call):
            name = dotted(value.func) or ""
            resolved = self.module.imports.get(name.split(".")[0], "")
            if name in _PARTIAL_NAMES or resolved == "functools" \
                    or resolved == "functools.partial":
                if value.args:
                    return self._callable_ref(value.args[0])
            return None
        return self._callable_ref(value) if dotted(value) else None


# ---------------------------------------------------------------------
# Resolution pass
# ---------------------------------------------------------------------
class _LocalScope:
    """Per-function bindings: var -> types / callables."""

    def __init__(self) -> None:
        self.var_types: Dict[str, str] = {}        # -> class qualname
        self.var_callables: Dict[str, Set[str]] = {}


class _Resolver:
    """Second pass: turn call expressions into graph edges."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph

    # -- name plumbing -------------------------------------------------
    def _import_target(self, module: ModuleInfo,
                       text: str) -> Optional[str]:
        head = text.split(".")[0]
        if head not in module.imports:
            return None
        return module.imports[head] + text[len(head):]

    def _lookup_function(self, qualname: str) -> Optional[str]:
        if qualname in self.graph.functions:
            return qualname
        return None

    def _lookup_class(self, module: ModuleInfo,
                      text: str) -> Optional[str]:
        for candidate in (f"{module.name}.{text}",
                          self._import_target(module, text) or ""):
            if candidate in self.graph.classes:
                return candidate
        # Bare name unique across the program (fixture-friendly).
        matches = self.graph.class_by_name.get(text, [])
        if len(matches) == 1:
            return matches[0]
        return None

    def _registry_values(self, module: ModuleInfo,
                         text: str) -> Optional[Set[str]]:
        if text in module.registries:
            return module.registries[text]
        target = self._import_target(module, text)
        if target is None:
            return None
        mod_name, _, bare = target.rpartition(".")
        source = self.graph.modules.get(mod_name)
        if source and bare in source.registries:
            return source.registries[bare]
        return None

    def _function_ref(self, module: ModuleInfo, func: FunctionInfo,
                      scope: _LocalScope,
                      node: ast.expr) -> Set[str]:
        """Function qualnames an expression may reference (no call)."""
        out: Set[str] = set()
        text = dotted(node)
        if text is None:
            if isinstance(node, ast.Call):
                # partial(f, ...) / registry lookups as arguments
                name = dotted(node.func) or ""
                resolved = module.imports.get(name.split(".")[0], "")
                if name in _PARTIAL_NAMES \
                        or resolved.startswith("functools"):
                    if node.args:
                        out |= self._function_ref(
                            module, func, scope, node.args[0])
                return out
            if isinstance(node, ast.Subscript):
                base = dotted(node.value)
                if base:
                    values = self._registry_values(module, base)
                    if values:
                        out |= values
            return out
        parts = text.split(".")
        if parts[0] == "self" and func.class_qualname and \
                len(parts) == 2:
            out.update(self.graph.method_targets(
                func.class_qualname, parts[1]))
            return out
        if len(parts) == 1:
            name = parts[0]
            if name in scope.var_callables:
                return set(scope.var_callables[name])
            if name in func.params or name in BENIGN_BUILTINS:
                return out
            nested = self._lookup_function(
                f"{func.qualname}.{name}")
            if nested:
                out.add(nested)
                return out
            candidate = self._lookup_function(
                f"{module.name}.{name}")
            if candidate:
                out.add(candidate)
                return out
            imported = self._import_target(module, name)
            if imported and self._lookup_function(imported):
                out.add(imported)
                return out
            if name in module.global_callables:
                return set(module.global_callables[name])
            return out
        # dotted: module attr or method reference
        imported = self._import_target(module, text)
        if imported and self._lookup_function(imported):
            out.add(imported)
            return out
        candidate = self._lookup_function(f"{module.name}.{text}")
        if candidate:
            out.add(candidate)
            return out
        # self.attr where attr holds callables
        if parts[0] == "self" and func.class_qualname:
            info = self.graph.classes.get(func.class_qualname)
            if info and len(parts) == 2 and \
                    parts[1] in info.attr_callables:
                return set(info.attr_callables[parts[1]])
        return out

    # -- main resolution ----------------------------------------------
    def resolve_module(self, module: ModuleInfo) -> None:
        for func in list(self.graph.functions.values()):
            if func.module != module.name:
                continue
            self._resolve_function(module, func)

    def _locals_of(self, module: ModuleInfo,
                   func: FunctionInfo) -> _LocalScope:
        scope = _LocalScope()
        for param, annotation in func.annotations.items():
            cls = self._lookup_class(module, annotation)
            if cls:
                scope.var_types[param] = cls
        for stmt in ast.walk(_body_only(func)):
            if not isinstance(stmt, ast.Assign):
                continue
            names = [t.id for t in stmt.targets
                     if isinstance(t, ast.Name)]
            if not names:
                continue
            value = stmt.value
            if isinstance(value, ast.Call):
                callee = dotted(value.func)
                if callee:
                    cls = self._lookup_class(module, callee)
                    if cls:
                        for name in names:
                            scope.var_types[name] = cls
                        continue
                    # f = registry_fn(key): functions that return
                    # callables propagate their return set.
                    for target in self._function_ref(
                            module, func, scope, value.func):
                        target_info = self.graph.functions.get(target)
                        if target_info and \
                                target_info.returns_callables:
                            for name in names:
                                scope.var_callables.setdefault(
                                    name, set()).update(
                                    target_info.returns_callables)
            refs = self._function_ref(module, func, scope, value)
            if refs:
                for name in names:
                    scope.var_callables.setdefault(
                        name, set()).update(refs)
        return scope

    def _resolve_function(self, module: ModuleInfo,
                          func: FunctionInfo) -> None:
        scope = self._locals_of(module, func)
        sites: List[CallSite] = []
        for node in _walk_own_body(func):
            if not isinstance(node, ast.Call):
                continue
            sites.extend(self._resolve_call(module, func, scope, node))
        self.graph.calls[func.qualname] = sites

    def _receiver_class(self, module: ModuleInfo, func: FunctionInfo,
                        scope: _LocalScope,
                        parts: List[str]) -> Optional[str]:
        """Class qualname of ``a.b`` receiver chains (depth <= 2)."""
        if not parts:
            return None
        head = parts[0]
        if head == "self" and func.class_qualname:
            if len(parts) == 1:
                return func.class_qualname
            info = self.graph.classes.get(func.class_qualname)
            if info and parts[1] in info.attr_types:
                if len(parts) == 2:
                    return info.attr_types[parts[1]]
            return None
        if len(parts) == 1:
            return scope.var_types.get(head)
        return None

    def _resolve_call(self, module: ModuleInfo, func: FunctionInfo,
                      scope: _LocalScope,
                      node: ast.Call) -> List[CallSite]:
        sites: List[CallSite] = []
        text = dotted(node.func) or ""
        targets: Set[str] = set()
        kind = "direct"
        receiver_cls: Optional[str] = None

        if text:
            parts = text.split(".")
            if len(parts) >= 2:
                receiver_cls = self._receiver_class(
                    module, func, scope, parts[:-1])
            direct = self._function_ref(module, func, scope, node.func)
            if direct:
                targets |= direct
            if not targets:
                cls = self._lookup_class(module, text)
                if cls:
                    init = self.graph.method_targets(cls, "__init__")
                    targets |= set(init[:1])
                    targets |= set(self.graph.method_targets(
                        cls, "__post_init__")[:1])
                    kind = "constructor"
            if not targets and len(parts) >= 2 and receiver_cls:
                targets |= set(self.graph.method_targets(
                    receiver_cls, parts[-1]))
        else:
            # super().method(...): dispatch into the base classes.
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Call)
                    and dotted(node.func.value.func) == "super"
                    and func.class_qualname):
                info = self.graph.classes.get(func.class_qualname)
                stack = list(info.bases) if info else []
                seen_bases: Set[str] = set()
                while stack:
                    bare = stack.pop().split(".")[-1]
                    if bare in seen_bases:
                        continue
                    seen_bases.add(bare)
                    for candidate in self.graph.class_by_name.get(
                            bare, []):
                        target = f"{candidate}.{node.func.attr}"
                        if target in self.graph.functions:
                            targets.add(target)
                        else:
                            base_info = self.graph.classes.get(
                                candidate)
                            if base_info:
                                stack.extend(base_info.bases)
                if targets:
                    text = f"super().{node.func.attr}"
            # Call through a computed expression.
            if isinstance(node.func, ast.Subscript):
                base = dotted(node.func.value)
                if base:
                    values = self._registry_values(module, base)
                    if values:
                        targets |= values
                        kind = "registry"
            elif isinstance(node.func, ast.Call):
                # register("x")(fn) / factory(...)(...)
                inner_refs = self._function_ref(
                    module, func, scope, node.func.func)
                for ref in inner_refs:
                    info = self.graph.functions.get(ref)
                    if info and info.returns_callables:
                        targets |= info.returns_callables
                        kind = "registry"

        real_targets = tuple(sorted(
            t for t in targets if t in self.graph.functions
        ))
        sites.append(CallSite(
            caller=func.qualname, path=func.path, line=node.lineno,
            col=node.col_offset, callee_text=text or "<expr>",
            targets=real_targets, kind=kind,
        ))
        # Function-valued arguments become callback edges.
        callback_targets: Set[str] = set()
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            callback_targets |= self._function_ref(
                module, func, scope, arg)
        callback_targets -= set(real_targets)
        callback_targets = {t for t in callback_targets
                            if t in self.graph.functions}
        if callback_targets:
            sites.append(CallSite(
                caller=func.qualname, path=func.path,
                line=node.lineno, col=node.col_offset,
                callee_text=f"{text or '<expr>'}(<callback>)",
                targets=tuple(sorted(callback_targets)),
                kind="callback",
            ))
        return sites


# ---------------------------------------------------------------------
# Return-callables, attribute types
# ---------------------------------------------------------------------
def _body_only(func: FunctionInfo) -> ast.AST:
    wrapper = ast.Module(body=list(func.body()), type_ignores=[])
    return wrapper


def _walk_own_body(func: FunctionInfo):
    """Walk a function's statements, *excluding* nested functions'
    bodies (each nested function is its own graph node) but including
    the nested ``def`` headers (decorators, defaults).  Yields in
    source order, so dataflow clients see an assignment before any
    later use of the bound name."""
    stack: List[ast.AST] = list(reversed(func.body()))
    while stack:
        node = stack.pop()
        yield node
        children: List[ast.AST] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.Lambda)):
                # still walk decorators/defaults of the nested def
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    children.extend(child.decorator_list)
                    children.extend(d for d in child.args.defaults
                                    if d)
                continue
            children.append(child)
        stack.extend(reversed(children))


def _collect_return_callables(graph: CallGraph) -> None:
    resolver = _Resolver(graph)
    for func in graph.functions.values():
        module = graph.modules.get(func.module)
        if module is None:
            continue
        scope = _LocalScope()
        for node in _walk_own_body(func):
            value = None
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
            elif isinstance(func.node, ast.Lambda):
                value = func.node.body
            if value is None:
                continue
            refs = resolver._function_ref(module, func, scope, value)
            if refs:
                func.returns_callables |= refs
            elif isinstance(value, ast.Subscript):
                base = dotted(value.value)
                if base:
                    values = resolver._registry_values(module, base)
                    if values:
                        func.returns_callables |= values


def _collect_attr_types(graph: CallGraph) -> None:
    resolver = _Resolver(graph)
    for cls in graph.classes.values():
        module = graph.modules.get(cls.module)
        if module is None:
            continue
        for method_qual in cls.methods.values():
            func = graph.functions.get(method_qual)
            if func is None:
                continue
            scope = _LocalScope()
            for param, annotation in func.annotations.items():
                resolved = resolver._lookup_class(module, annotation)
                if resolved:
                    scope.var_types[param] = resolved
            for node in _walk_own_body(func):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    attr = target.attr
                    value = node.value
                    if isinstance(value, ast.Call):
                        callee = dotted(value.func)
                        if callee:
                            resolved = resolver._lookup_class(
                                module, callee)
                            if resolved:
                                cls.attr_types.setdefault(
                                    attr, resolved)
                                continue
                    text = dotted(value)
                    if text and text in scope.var_types:
                        cls.attr_types.setdefault(
                            attr, scope.var_types[text])
                        continue
                    refs = resolver._function_ref(
                        module, func, scope, value)
                    if refs:
                        cls.attr_callables.setdefault(
                            attr, set()).update(refs)


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------
def build_graph(paths: Sequence[str]) -> CallGraph:
    """Parse every ``.py`` under ``paths`` and resolve the call graph.

    Raises:
        FileNotFoundError: if a named path does not exist.
    """
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        text = Path(file_path).read_text(encoding="utf-8")
        sources.append((file_path, text))
    return build_graph_from_sources(sources)


def build_graph_from_sources(
        sources: Sequence[Tuple[str, str]]) -> CallGraph:
    """Build from ``(path, source)`` pairs (tests inject fixtures)."""
    graph = CallGraph()
    for file_path, text in sources:
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue
        module = ModuleInfo(path=file_path,
                            name=module_name_of(file_path), tree=tree)
        if module.name in graph.modules:
            continue
        graph.modules[module.name] = module
        _Indexer(graph, module).visit(tree)
    # Link subclasses after every class is known.
    for cls in graph.classes.values():
        for base in cls.bases:
            bare = base.split(".")[-1]
            for candidate in graph.class_by_name.get(bare, []):
                graph.subclasses.setdefault(candidate, []).append(
                    cls.qualname)
    _collect_return_callables(graph)
    _collect_attr_types(graph)
    resolver = _Resolver(graph)
    for module in graph.modules.values():
        resolver.resolve_module(module)
    return graph


def function_scope(graph: CallGraph,
                   func: FunctionInfo) -> _LocalScope:
    """Local variable types/callables for analyses layered on top."""
    module = graph.modules.get(func.module)
    if module is None:
        return _LocalScope()
    return _Resolver(graph)._locals_of(module, func)


#: Last built graph, keyed by tree digest (one-entry memo).
_SHARED_GRAPH: Optional[Tuple[str, CallGraph]] = None


def shared_graph(sources: Sequence[Tuple[str, str]]) -> CallGraph:
    """Build-or-reuse one :class:`CallGraph` per identical tree.

    The flow tests analyse ``src/`` several times in one process;
    every request after the first on an unchanged tree costs a digest
    pass instead of a full re-parse.  Callers treat the graph as
    read-only, so sharing is safe.
    """
    global _SHARED_GRAPH
    from repro.flow.cache import tree_digest

    digest = tree_digest(sources)
    if _SHARED_GRAPH is not None and _SHARED_GRAPH[0] == digest:
        return _SHARED_GRAPH[1]
    graph = build_graph_from_sources(sources)
    _SHARED_GRAPH = (digest, graph)
    return graph
