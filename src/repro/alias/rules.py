"""The ALIAS8xx rule table (band ALIAS801–814).

Kept free of imports so :mod:`repro.lint.registry` can list these
codes without pulling in the escape/aliasing engine (the registry is
imported by every CLI, including ones that never run this pass).

Like FLOW6xx, ALIAS8xx rules are *whole-program*: whether a leaked
container is ever mutated, or a class's instances escape to
module-global state, depends on call edges files away, so they run
from :mod:`repro.alias.analysis`, not from the lint engine.

Two groups:

* **ALIAS801–805 — aliasing defects.**  Hard findings: a live
  internal container handed to callers, the same object mutated
  through two access paths, a container mutated while being
  iterated, an object mutated after being published to shared state.
  These are bugs (or one refactor away from bugs) today, independent
  of any migration.
* **ALIAS806–814 — SoA migration blockers.**  Advisory findings:
  identity reliance (``is`` between instances, ``id()``, default
  object-identity hashing as a dict/set key), instances escaping to
  module-global state, the unresolved-call soundness boundary, and
  defensive copies sitting on flow hot paths.  Legal Python, but
  each one breaks — or is exactly the cost removed — when the object
  is flattened to a value/index in a struct-of-arrays core, so the
  ledger turns them into per-class SoA-safe / SoA-blocked verdicts.
"""

from __future__ import annotations

from typing import Tuple

#: (code, name, advisory, description)
ALIAS_RULES: Tuple[Tuple[str, str, bool, str], ...] = (
    ("ALIAS801", "leaked-internal-container", False,
     "a method returns a live internal mutable container (e.g. "
     "return self._entries); callers can mutate the class's state "
     "behind its back — return a copy or a tuple"),
    ("ALIAS802", "leaked-container-view", False,
     "a method returns a live view or stored element of an internal "
     "container (dict .values()/.keys()/.items(), or a mutable "
     "element the class itself built); the view tracks and exposes "
     "later internal mutation"),
    ("ALIAS803", "aliased-mutation", False,
     "one object is mutated through two access paths: a class stores "
     "a caller-supplied container without copying and then mutates "
     "it, or a caller mutates a container a getter leaked"),
    ("ALIAS804", "iterator-invalidation", False,
     "a container is mutated while being iterated (no list(...) "
     "snapshot); RuntimeError on dicts/sets, silently skipped "
     "elements on lists"),
    ("ALIAS805", "mutation-after-publish", False,
     "an object is mutated after being stored into module-global or "
     "class-level shared state; every holder of the published "
     "reference sees the late write"),
    ("ALIAS806", "identity-comparison", True,
     "an is/is not comparison between instances of migrating "
     "classes; object identity has no meaning once instances are "
     "rows in a struct-of-arrays"),
    ("ALIAS807", "identity-call", True,
     "id() applied to (or inside the methods of) a migrating class; "
     "the CPython object address disappears under a value/index "
     "representation"),
    ("ALIAS808", "identity-hash-key", True,
     "an instance of a migrating class with default object-identity "
     "hashing used as a dict key or set member; equal values would "
     "collapse (or split) once identity is gone"),
    ("ALIAS811", "global-escape", True,
     "instances of a migrating class are reachable from module-level "
     "or class-level state; flattening the class requires migrating "
     "that ambient holder too"),
    ("ALIAS812", "soa-blocked", True,
     "per-class rollup: this core/sim class is SoA-blocked by at "
     "least one ALIAS8xx finding (the alias-ledger.json verdict "
     "surfaced as an annotation)"),
    ("ALIAS813", "unresolved-alias-call", True,
     "a call inside a migrating class's methods the graph cannot "
     "resolve; aliasing past this edge is assumed, not proved (the "
     "soundness boundary shared with FLOW615)"),
    ("ALIAS814", "hot-defensive-copy", True,
     "a defensive copy (list(...)/dict(...)/.copy()) on a flow hot "
     "path; correct today, and exactly the per-event cost the "
     "struct-of-arrays migration deletes"),
)

#: Rule names whose findings are advisory (report-only by default).
ADVISORY_RULES = frozenset(
    name for _, name, advisory, _ in ALIAS_RULES if advisory
)

ALIAS_RULE_NAMES = tuple(name for _, name, _, _ in ALIAS_RULES)
