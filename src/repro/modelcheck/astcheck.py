"""MC301–MC304: AST-extracted state machines vs the declared spec.

For every class declared in :data:`repro.modelcheck.spec.SPEC_MACHINES`
this pass recovers the state machine the *implementation* encodes —
which handler methods exist, which effects each can reach, and which
methods it arms timers for — and cross-checks it against the declared
machine:

* **MC301 spec-handler-missing** — a declared handler has no method.
* **MC302 undeclared-transition** — a handler performs an effect kind
  outside its declared ``allowed`` set, or arms a timer for a method
  outside its declared ``schedules`` set.
* **MC303 undeclared-handler** — a handler-shaped method (``on_*``,
  ``_on_*``, ``_fire*``, ``receive*``) exists but is not declared.
* **MC304 missing-required-effect** — a handler no longer performs an
  effect the spec requires (deleting the retreat branch is a protocol
  change, not a refactor).

Extraction is receiver-agnostic: a call is classified by its terminal
name through :data:`~repro.modelcheck.spec.EFFECT_NAMES`
(``self.directory.retreat(...)`` and ``directory.retreat(...)`` are
the same transition).  Effects propagate transitively through calls to
same-class methods, including nested function definitions, so a
handler that delegates its send to a helper still extracts ``send``.
Callbacks passed to ``schedule``/``schedule_at`` are the machine's
*deferred* transitions: their targets land in the ``schedules`` set
and their bodies are excluded from the direct-effect walk.

The rules are ordinary :class:`repro.lint.rules.Rule` subclasses, so
they run through the same engine, suppression comments, and report
model as SIM1xx — and they key off the class *name*, which lets a
test fixture exercise them outside the real package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.rules import Rule, RawFinding
from repro.modelcheck.spec import (
    EFFECT_NAMES,
    HANDLER_PREFIXES,
    MachineSpec,
    SPEC_MACHINES,
)

#: Call names that arm a timer; the callback argument is a deferred
#: transition, not a direct effect.
_SCHEDULE_CALLS = frozenset({"schedule", "schedule_at"})


@dataclass
class ExtractedHandler:
    """The machine one method encodes, after transitive closure."""

    name: str
    line: int
    effects: Set[str] = field(default_factory=set)
    schedules: Set[str] = field(default_factory=set)


def _call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of the called expression (``a.b.c()`` → ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _self_method(node: ast.Call) -> Optional[str]:
    """``m`` when the call is exactly ``self.m(...)``, else None."""
    func = node.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"):
        return func.attr
    return None


def _scheduled_target(node: ast.Call) -> Optional[str]:
    """The method a ``schedule``/``schedule_at`` call arms, if any.

    Handles the two idioms the codebase uses: a bound-method argument
    (``schedule(dt, self._fire)``) and a lambda whose body calls a
    method (``schedule(dt, lambda: self._fire_defence(key))``).  The
    first positional argument is the delay/deadline, never the
    callback, so it is skipped (``schedule(self.delay, ...)`` must not
    extract ``delay`` as a target).
    """
    for arg in list(node.args[1:]) + [kw.value for kw in node.keywords]:
        if isinstance(arg, ast.Attribute):
            return arg.attr
        if isinstance(arg, ast.Lambda):
            for inner in ast.walk(arg.body):
                if isinstance(inner, ast.Call):
                    name = _call_name(inner)
                    if name is not None:
                        return name
    return None


def _walk_effects(node: ast.AST, handler: ExtractedHandler,
                  self_calls: Set[str]) -> None:
    """Recursive effect walk that skips schedule-callback lambdas."""
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _SCHEDULE_CALLS:
            handler.effects.add("schedule")
            target = _scheduled_target(node)
            if target is not None:
                handler.schedules.add(target)
            # Descend into the non-lambda children only: the callback
            # body is a deferred transition, not a direct effect.
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.Lambda):
                    _walk_effects(child, handler, self_calls)
            return
        if name is not None and name in EFFECT_NAMES:
            handler.effects.add(EFFECT_NAMES[name])
        method = _self_method(node)
        if method is not None:
            self_calls.add(method)
    for child in ast.iter_child_nodes(node):
        _walk_effects(child, handler, self_calls)


def extract_machine(cls: ast.ClassDef) -> Dict[str, ExtractedHandler]:
    """Per-method effect/schedule sets with same-class closure."""
    methods = {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    direct: Dict[str, ExtractedHandler] = {}
    calls: Dict[str, Set[str]] = {}
    for name, func in methods.items():
        handler = ExtractedHandler(name=name, line=func.lineno)
        self_calls: Set[str] = set()
        for stmt in func.body:
            _walk_effects(stmt, handler, self_calls)
        direct[name] = handler
        calls[name] = {m for m in self_calls if m in methods}
    # Transitive closure: iterate to fixpoint (class call graphs here
    # are tiny, so the quadratic loop is fine).
    changed = True
    while changed:
        changed = False
        for name in sorted(direct):
            handler = direct[name]
            for callee in sorted(calls[name]):
                other = direct[callee]
                if not other.effects <= handler.effects:
                    handler.effects |= other.effects
                    changed = True
                if not other.schedules <= handler.schedules:
                    handler.schedules |= other.schedules
                    changed = True
    return direct


def _handler_shaped(name: str) -> bool:
    return name.startswith(HANDLER_PREFIXES)


class _MachineRule(Rule):
    """Shared machinery: find spec'd classes, extract, compare."""

    scope = frozenset({"sap"})

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            spec = SPEC_MACHINES.get(node.name)
            if spec is None:
                continue
            extracted = extract_machine(node)
            for finding in self.compare(node, spec, extracted):
                yield finding

    def compare(self, cls: ast.ClassDef, spec: MachineSpec,
                extracted: Dict[str, ExtractedHandler]
                ) -> Iterator[RawFinding]:
        raise NotImplementedError


class SpecHandlerMissingRule(_MachineRule):
    name = "spec-handler-missing"
    code = "MC301"
    description = ("a handler declared in the protocol spec machine "
                   "has no implementing method")

    def compare(self, cls, spec, extracted):
        for handler in spec.handlers:
            if handler.name not in extracted:
                yield (cls.lineno, cls.col_offset,
                       f"{spec.cls} declares handler "
                       f"{handler.name!r} (event: {handler.event}) "
                       f"but no such method exists")


class UndeclaredTransitionRule(_MachineRule):
    name = "undeclared-transition"
    code = "MC302"
    description = ("a spec'd handler performs an effect or arms a "
                   "timer outside its declared machine")

    def compare(self, cls, spec, extracted):
        for handler in spec.handlers:
            impl = extracted.get(handler.name)
            if impl is None:
                continue  # MC301's finding
            for effect in sorted(impl.effects - set(handler.allowed)):
                yield (impl.line, 0,
                       f"{spec.cls}.{handler.name} performs "
                       f"{effect!r}, not in its declared allowed set "
                       f"{sorted(handler.allowed)}")
            for target in sorted(impl.schedules - set(handler.schedules)):
                yield (impl.line, 0,
                       f"{spec.cls}.{handler.name} schedules "
                       f"{target!r}, not in its declared schedules "
                       f"set {sorted(handler.schedules)}")


class UndeclaredHandlerRule(_MachineRule):
    name = "undeclared-handler"
    code = "MC303"
    description = ("a handler-shaped method (on_*/_on_*/_fire*/"
                   "receive*) exists in a spec'd class but is not "
                   "declared in the spec machine")

    def compare(self, cls, spec, extracted):
        declared = spec.handler_names()
        for name in sorted(extracted):
            if _handler_shaped(name) and name not in declared:
                impl = extracted[name]
                yield (impl.line, 0,
                       f"{spec.cls}.{name} looks like a protocol "
                       f"handler but is not declared in the spec "
                       f"machine")


class MissingRequiredEffectRule(_MachineRule):
    name = "missing-required-effect"
    code = "MC304"
    description = ("a spec'd handler no longer performs an effect "
                   "its machine requires")

    def compare(self, cls, spec, extracted):
        for handler in spec.handlers:
            impl = extracted.get(handler.name)
            if impl is None:
                continue  # MC301's finding
            for effect in sorted(set(handler.required) - impl.effects):
                yield (impl.line, 0,
                       f"{spec.cls}.{handler.name} must perform "
                       f"{effect!r} (event: {handler.event}) but the "
                       f"implementation never reaches it")


#: The modelcheck static rules, in code order.
MC_RULES: Tuple[Rule, ...] = (
    SpecHandlerMissingRule(),
    UndeclaredTransitionRule(),
    UndeclaredHandlerRule(),
    MissingRequiredEffectRule(),
)
