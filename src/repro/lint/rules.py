"""The rule set: repo-specific determinism and simulation invariants.

Each rule is a small AST visitor over one module.  Rules are scoped:
most apply only to the simulation-critical subpackages (``sim``,
``core``, ``sap``, ``experiments``, ``routing``, ``topology``) where
nondeterminism silently corrupts results; a few (mutable defaults,
timestamp equality, and the RNG rules SIM101, SIM115 and SIM116,
since every generator a draw can use is built somewhere in the tree)
apply everywhere.

Rules yield ``(line, col, message)`` tuples; the engine attaches file
paths and applies ``# simlint: disable=...`` suppressions.  A
:class:`TreeRule` sees every linted module at once and yields
``(path, line, col, message)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

RawFinding = Tuple[int, int, str]
RawTreeFinding = Tuple[str, int, int, str]

#: Subpackages of ``repro`` whose behaviour feeds simulation results.
#: ``sanitize`` is included: the runtime sanitizers observe simulations
#: in place, so nondeterminism there would corrupt sanitized traces.
#: ``modelcheck`` likewise: state fingerprints and replay must be
#: bit-identical across processes or restore() diverges.
SIM_PACKAGES = frozenset(
    {"sim", "core", "sap", "experiments", "routing", "topology",
     "sanitize", "modelcheck"}
)

#: Legacy module-global numpy RNG entry points (shared hidden state).
_LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "exponential", "poisson", "binomial", "standard_normal",
})

#: Wall-clock callables, as dotted suffixes matched against call sites.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter",
    "time.process_time", "time.time_ns", "time.monotonic_ns",
    "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})

_WALL_CLOCK_IMPORTS = frozenset({
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns",
})

#: Names/suffixes treated as simulated timestamps by float-timestamp-eq.
_TIMESTAMP_NAMES = frozenset({"now", "when", "deadline"})
_TIMESTAMP_SUFFIXES = (
    "_time", "_heard", "_announced", "_at", "_deadline",
)

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})

#: Calls (or, for ``os.environ``, subscripts) whose value differs
#: between runs or hosts, as resolved dotted prefixes.
_TAINT_PREFIXES = (
    "time.", "datetime.", "os.getpid", "os.urandom", "os.environ",
    "os.getenv", "uuid.", "random.", "secrets.", "socket.gethostname",
    "platform.",
)
_TAINT_BUILTINS = frozenset({"id", "hash"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> the dotted path a module's imports bind it to.

    ``import numpy.random as npr`` gives ``npr -> numpy.random`` and
    ``from numpy import random as nr`` gives ``nr -> numpy.random``;
    a plain ``import a.b`` binds only ``a``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = (
                    alias.name if alias.asname else head)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def resolved_name(node: ast.AST, aliases: Dict[str, str]
                  ) -> Optional[str]:
    """:func:`dotted_name` with its first part resolved through
    ``aliases`` (``npr.default_rng`` -> ``numpy.random.default_rng``)."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, dot, rest = dotted.partition(".")
    return aliases.get(head, head) + dot + rest


class Rule:
    """One named, suppressible check.

    Attributes:
        name: stable kebab-case id used in suppression comments.
        code: short sortable code (``SIM1xx``).
        description: one-line human summary (``--list-rules``).
        scope: subpackages of ``repro`` the rule applies to, or None
            for everywhere.
    """

    name: str = ""
    code: str = ""
    description: str = ""
    scope: Optional[frozenset] = None

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        raise NotImplementedError


class TreeRule(Rule):
    """A rule over every linted module at once.

    The engine calls :meth:`check_tree` once per run, after the
    per-file rules, with each parsed module the rule's scope admits,
    and applies that module's suppressions at the reported line.
    """

    def check_tree(self, modules: Sequence[Tuple[str, ast.AST]]
                   ) -> Iterator[RawTreeFinding]:
        raise NotImplementedError


class UnseededRngRule(Rule):
    name = "unseeded-rng"
    code = "SIM101"
    description = ("np.random.default_rng() without a seed, or legacy "
                   "module-global numpy RNG calls, in simulation code")

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolved_name(node.func, aliases) or ""
            if not target.startswith("numpy.random."):
                continue
            leaf = target[len("numpy.random."):]
            written = dotted_name(node.func)
            if leaf == "default_rng":
                if not node.args and not node.keywords:
                    yield (node.lineno, node.col_offset,
                           f"unseeded {written}(); inject an "
                           f"np.random.Generator or derive one from "
                           f"RandomStreams (e.g. streams.get(key))")
            elif leaf in _LEGACY_NP_RANDOM:
                yield (node.lineno, node.col_offset,
                       f"legacy module-global numpy RNG call "
                       f"{written}(); use an injected Generator "
                       f"or RandomStreams")


class BareRandomRule(Rule):
    name = "bare-random"
    code = "SIM102"
    description = ("the stdlib random module (process-global state) "
                   "imported in simulation code")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield (node.lineno, node.col_offset,
                               "stdlib random imported; simulation "
                               "code must draw from RandomStreams or "
                               "an injected np.random.Generator")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                        node.module or "").startswith("random."):
                    yield (node.lineno, node.col_offset,
                           "stdlib random imported; simulation code "
                           "must draw from RandomStreams or an "
                           "injected np.random.Generator")


class WallClockRule(Rule):
    name = "wall-clock"
    code = "SIM103"
    description = ("wall-clock reads (time.time, datetime.now, ...) in "
                   "simulation code; only SimClock time is admissible")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in _WALL_CLOCK_CALLS:
                    yield (node.lineno, node.col_offset,
                           f"wall-clock call {dotted}(); simulation "
                           f"code must read time from SimClock / "
                           f"scheduler.now")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_IMPORTS:
                        yield (node.lineno, node.col_offset,
                               f"wall-clock import time.{alias.name}; "
                               f"simulation code must read time from "
                               f"SimClock / scheduler.now")


class SetIterationRule(Rule):
    name = "set-iteration"
    code = "SIM104"
    description = ("iteration over a set/frozenset expression; str "
                   "hash randomisation makes the order differ across "
                   "processes -- iterate sorted(...) instead")
    scope = SIM_PACKAGES

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        message = ("iterating a set; element order is not stable "
                   "across processes (PYTHONHASHSEED) -- iterate "
                   "sorted(...) so event/RNG order is reproducible")
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it):
                    yield (it.lineno, it.col_offset, message)


class TimestampEqRule(Rule):
    name = "float-timestamp-eq"
    code = "SIM105"
    description = ("== / != on simulated-timestamp floats; compare "
                   "with a tolerance or restructure")

    @staticmethod
    def _timestampish(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return None
        if name in _TIMESTAMP_NAMES or \
                name.endswith(_TIMESTAMP_SUFFIXES):
            return name
        return None

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(isinstance(o, ast.Constant)
                   and (o.value is None or isinstance(o.value, str))
                   for o in operands):
                continue
            for operand in operands:
                name = self._timestampish(operand)
                if name is not None:
                    yield (node.lineno, node.col_offset,
                           f"float equality on simulated timestamp "
                           f"{name!r}; exact == on floats is fragile "
                           f"-- compare with a tolerance or use event "
                           f"ordering")
                    break


class MutableDefaultRule(Rule):
    name = "mutable-default"
    code = "SIM106"
    description = "mutable default argument (list/dict/set)"

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_FACTORIES)

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults
                         if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield (default.lineno, default.col_offset,
                           "mutable default argument; shared across "
                           "calls -- default to None and create inside")


class NegativeDelayRule(Rule):
    name = "negative-delay"
    code = "SIM107"
    description = "scheduling with a statically negative delay"

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule", "schedule_at")
                    and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.UnaryOp) and \
                    isinstance(first.op, ast.USub) and \
                    isinstance(first.operand, ast.Constant) and \
                    isinstance(first.operand.value, (int, float)):
                yield (node.lineno, node.col_offset,
                       f"scheduling with negative delay "
                       f"-{first.operand.value}; the scheduler "
                       f"rejects events in the past")


#: The scheduler methods that return an :class:`EventHandle`.
_SCHEDULE_METHODS = ("schedule", "schedule_at")


class DiscardedHandleRule(Rule):
    """A discarded ``<expr>.schedule(...)``/``schedule_at(...)`` call,
    or, within a function, a discarded call through a name bound to one
    of those methods there (``schedule = scheduler.schedule``)."""

    name = "discarded-handle"
    code = "SIM108"
    description = ("scheduler.schedule(...) result discarded; the "
                   "EventHandle is the only way to cancel")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        flagged = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Attribute) and \
                    node.value.func.attr in _SCHEDULE_METHODS:
                flagged.add((node.lineno, node.col_offset))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = list(ast.walk(node))
                aliases = {
                    inner.targets[0].id for inner in body
                    if isinstance(inner, ast.Assign)
                    and isinstance(inner.targets[0], ast.Name)
                    and isinstance(inner.value, ast.Attribute)
                    and inner.value.attr in _SCHEDULE_METHODS}
                flagged.update(
                    (inner.lineno, inner.col_offset) for inner in body
                    if isinstance(inner, ast.Expr)
                    and isinstance(inner.value, ast.Call)
                    and isinstance(inner.value.func, ast.Name)
                    and inner.value.func.id in aliases)
        for line, col in sorted(flagged):
            yield (line, col,
                   "EventHandle discarded; store it so the event "
                   "can be cancelled (retreat/stop paths), or "
                   "suppress if genuinely fire-and-forget")


class ModuleMutableStateRule(Rule):
    name = "module-mutable-state"
    code = "SIM109"
    description = ("module-level mutable containers in sim/core; "
                   "state shared across runs breaks replayability")
    scope = frozenset({"sim", "core"})

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_FACTORIES)

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        if not isinstance(tree, ast.Module):
            return
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and \
                    node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(
                    n.startswith("__") and n.endswith("__")
                    for n in names):
                continue  # __all__ and friends are conventions
            if self._is_mutable(value):
                yield (node.lineno, node.col_offset,
                       f"module-level mutable state "
                       f"{', '.join(names)}; runs sharing a process "
                       f"would interfere -- move onto an instance")


class BuiltinHashRule(Rule):
    name = "builtin-hash"
    code = "SIM110"
    description = ("builtin hash() in simulation code; str hashes are "
                   "randomised per process -- use zlib.crc32")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "hash":
                yield (node.lineno, node.col_offset,
                       "builtin hash(); randomised per process for "
                       "str/bytes, so derived seeds and orderings "
                       "differ across runs -- use zlib.crc32")


class TtlWideningRule(Rule):
    name = "ttl-widening"
    code = "SIM111"
    description = ("arithmetic that widens a TTL (ttl + k, ttl * k); "
                   "scope may only ever narrow as packets travel")
    scope = SIM_PACKAGES

    @staticmethod
    def _ttlish(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return None
        if name == "ttl" or name.endswith("_ttl"):
            return name
        return None

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Mult)):
                continue
            for ttl_side, other in ((node.left, node.right),
                                    (node.right, node.left)):
                name = self._ttlish(ttl_side)
                if name is None:
                    continue
                if not (isinstance(other, ast.Constant)
                        and isinstance(other.value, (int, float))
                        and not isinstance(other.value, bool)):
                    continue
                widens = (other.value > 0
                          if isinstance(node.op, ast.Add)
                          else other.value > 1)
                if widens:
                    yield (node.lineno, node.col_offset,
                           f"TTL-widening arithmetic on {name!r}; a "
                           f"TTL may only be decremented (routers "
                           f"narrow scope, nothing widens it) -- "
                           f"widening leaks traffic beyond the "
                           f"session's declared scope")
                break


class AddressTtlConfusionRule(Rule):
    name = "address-ttl-confusion"
    code = "SIM112"
    description = ("an address-named value passed as a ttl argument, "
                   "or vice versa, across a call boundary")
    scope = SIM_PACKAGES

    #: Functions whose first argument is an address-space index/IP.
    _ADDRESS_FUNCS = frozenset({"index_to_ip", "ip_to_index"})

    @staticmethod
    def _kind(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return None
        if name == "ttl" or name.endswith("_ttl"):
            return "ttl"
        if name in ("address", "address_index") or \
                name.endswith(("_address", "_address_index")):
            return "address"
        return None

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                kind = self._kind(keyword.value)
                if kind == "address" and keyword.arg == "ttl":
                    yield (keyword.value.lineno,
                           keyword.value.col_offset,
                           "address-named value passed as ttl=; both "
                           "are plain ints, so this compiles and then "
                           "mis-scopes every packet")
                elif kind == "ttl" and keyword.arg in ("address",
                                                       "address_index"):
                    yield (keyword.value.lineno,
                           keyword.value.col_offset,
                           f"ttl-named value passed as "
                           f"{keyword.arg}=; both are plain ints, so "
                           f"this compiles and then corrupts the "
                           f"address view")
            func = node.func
            if isinstance(func, ast.Attribute):
                attr = func.attr
            elif isinstance(func, ast.Name):
                attr = func.id
            else:
                continue
            if attr in self._ADDRESS_FUNCS and node.args and \
                    self._kind(node.args[0]) == "ttl":
                yield (node.lineno, node.col_offset,
                       f"ttl-named value passed to {attr}(), which "
                       f"takes an address-space index")


class UninformedAllocateOverrideRule(Rule):
    name = "uninformed-allocate-override"
    code = "SIM113"
    description = ("Allocator subclass overrides allocate() without "
                   "consulting the visible set (_informed_pick or "
                   "delegation) or declaring informed=False")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any((dotted_name(base) or "").endswith("Allocator")
                       for base in node.bases):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name == "allocate" and \
                        not self._consults_visible(item):
                    yield (item.lineno, item.col_offset,
                           f"{node.name}.allocate neither calls "
                           f"_informed_pick / delegates to another "
                           f"allocate nor marks its result "
                           f"informed=False; silently skipping the "
                           f"clash-avoidance check defeats informed "
                           f"allocation (paper section 2.1)")

    @staticmethod
    def _consults_visible(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("_informed_pick", "allocate"):
                return True
            callee = dotted_name(node.func) or ""
            if callee.endswith("AllocationResult"):
                for keyword in node.keywords:
                    if keyword.arg == "informed" and \
                            isinstance(keyword.value, ast.Constant) and \
                            keyword.value.value is False:
                        return True
        return False


class LoopCaptureRule(Rule):
    name = "loop-capture"
    code = "SIM114"
    description = ("lambda passed to schedule()/schedule_at() inside a "
                   "for loop captures the loop variable by reference")
    scope = SIM_PACKAGES

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        for loop in ast.walk(tree):
            if not isinstance(loop, ast.For):
                continue
            names = set(self._target_names(loop.target))
            if not names:
                continue
            for stmt in loop.body:
                yield from self._check_body(stmt, names)

    def _check_body(self, stmt: ast.AST, names) -> Iterator[RawFinding]:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule", "schedule_at")):
                continue
            arguments = list(node.args)
            arguments += [keyword.value for keyword in node.keywords]
            for argument in arguments:
                if not isinstance(argument, ast.Lambda):
                    continue
                captured = self._free_loop_names(argument, names)
                if captured:
                    listing = ", ".join(sorted(captured))
                    yield (argument.lineno, argument.col_offset,
                           f"lambda captures loop variable(s) "
                           f"{listing} by reference; every scheduled "
                           f"event will see the final value when it "
                           f"fires -- bind as a default "
                           f"(lambda x=x: ...)")

    @classmethod
    def _target_names(cls, target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: List[str] = []
            for element in target.elts:
                out.extend(cls._target_names(element))
            return out
        return []

    @staticmethod
    def _free_loop_names(lam: ast.Lambda, loop_names) -> set:
        params = {a.arg for a in (lam.args.posonlyargs + lam.args.args
                                  + lam.args.kwonlyargs)}
        if lam.args.vararg is not None:
            params.add(lam.args.vararg.arg)
        if lam.args.kwarg is not None:
            params.add(lam.args.kwarg.arg)
        captured = set()
        for node in ast.walk(lam.body):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    node.id in loop_names and node.id not in params:
                captured.add(node.id)
        return captured


def stream_key_sites(tree: ast.AST
                     ) -> Iterator[Tuple[ast.Call, ast.expr]]:
    """Every call that names an RNG stream: ``(call, key)``.

    A stream is named by ``<x>.get(key)`` on a receiver whose name
    contains ``streams`` (a ``RandomStreams``).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get" and \
                "streams" in (dotted_name(func.value) or "").lower():
            yield node, node.args[0]


def fold_key(node: ast.expr) -> Tuple[str, List[ast.expr]]:
    """A key expression as ``(pattern, holes)``: constant text kept,
    each non-constant part rendered ``{}`` and returned as a hole."""
    if isinstance(node, ast.Constant):
        return str(node.value), []
    if isinstance(node, ast.JoinedStr):
        pattern, holes = "", []
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                pattern += "{}"
                holes.append(value.value)
            elif isinstance(value, ast.Constant):
                pattern += str(value.value)
        return pattern, holes
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = fold_key(node.left), fold_key(node.right)
        return left[0] + right[0], left[1] + right[1]
    return "{}", [node]


class TaintedStreamKeyRule(Rule):
    name = "tainted-stream-key"
    code = "SIM115"
    description = ("a stream key folded from non-replayable values "
                   "(wall clock, pid, environment, uuid, id(), hash())")

    def check(self, tree: ast.AST) -> Iterator[RawFinding]:
        aliases = import_aliases(tree)
        for call, key in stream_key_sites(tree):
            pattern, holes = fold_key(key)
            if any(self._tainted(hole, aliases) for hole in holes):
                yield (call.lineno, call.col_offset,
                       f"stream key {pattern!r} folds in a value that "
                       f"differs between runs (wall clock, pid, "
                       f"environment, uuid, id() or hash()); the "
                       f"stream is not replayable")

    @staticmethod
    def _tainted(hole: ast.expr, aliases: Dict[str, str]) -> bool:
        for node in ast.walk(hole):
            if isinstance(node, ast.Call):
                target = resolved_name(node.func, aliases)
            elif isinstance(node, ast.Subscript):  # os.environ["X"]
                target = resolved_name(node.value, aliases)
            else:
                continue
            if target in _TAINT_BUILTINS or \
                    (target or "").startswith(_TAINT_PREFIXES):
                return True
        return False


class StreamKeyCollisionRule(TreeRule):
    name = "stream-key-collision"
    code = "SIM116"
    description = ("two call sites derive the same fully-constant "
                   "stream key: the components draw correlated values")

    def check_tree(self, modules: Sequence[Tuple[str, ast.AST]]
                   ) -> Iterator[RawTreeFinding]:
        by_key: Dict[str, List[Tuple[str, int, int]]] = {}
        for path, tree in modules:
            for call, key in stream_key_sites(tree):
                pattern, holes = fold_key(key)
                if not holes:
                    by_key.setdefault(pattern, []).append(
                        (path, call.lineno, call.col_offset))
        for pattern, sites in by_key.items():
            if len(sites) < 2:
                continue
            for site in sites:
                others = ", ".join(f"{path}:{line}"
                                   for path, line, col in sites
                                   if (path, line, col) != site)
                yield site + (
                    f"stream key {pattern!r} is also "
                    f"derived at {others}; distinct components "
                    f"sharing a stream draw correlated values",)


#: Every rule, in code order.  The registry is intentionally a tuple:
#: rule identity is part of the repo's public determinism contract.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    BareRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    TimestampEqRule(),
    MutableDefaultRule(),
    NegativeDelayRule(),
    DiscardedHandleRule(),
    ModuleMutableStateRule(),
    BuiltinHashRule(),
    TtlWideningRule(),
    AddressTtlConfusionRule(),
    UninformedAllocateOverrideRule(),
    LoopCaptureRule(),
    TaintedStreamKeyRule(),
    StreamKeyCollisionRule(),
)
