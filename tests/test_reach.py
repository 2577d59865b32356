"""The reach rule: every paper-system module is run by something.

A module of ``core``, ``sim``, ``sap``, ``routing``, ``topology``,
``analysis`` or ``experiments`` keeps its place only if a root reaches
it through imports: a file under ``benchmarks/``, ``examples/`` or
``perfbench/``, or one of the four CLIs.  The umbrella CLI hands over
to the tool CLIs through ``importlib``, which an import walk cannot
see, so those are roots too.  ``from repro.<pkg> import Name`` counts
only the module the package ``__init__`` takes ``Name`` from, not
every module the package exports.  The one module allowed to be
unreached is the forwarding oracle that ``ScopeMap.reachable`` is
checked against.

One level down, every function, class and method those modules define
must be named by a program file: one under ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` or ``scripts/``, other than a package
``__init__.py`` (whose re-exports name everything).  A name counts as
an identifier, an attribute, an import or an identifier-shaped string
constant, such as the method names perfbench patches by string.
Dunder methods are called implicitly and are not checked.  What may
stay unnamed is what DESIGN §15 keeps on purpose: ``repro.analysis``,
the ``repro.core.address_space`` inverses and the forwarding oracle,
and ``SessionDirectory.expire_cache``, which the expiry of long runs
is to call.

Names are matched by spelling alone, so the check cannot see a
definition whose name is common elsewhere, such as a method called
``depth``, ``other``, ``report`` or ``clear``.  Nor can it see one
named only from other unreached code, as a result class is by the one
method that builds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLIS = ("repro.cli", "repro.lint.cli", "repro.sanitize.cli",
        "repro.modelcheck.cli")
PAPER_SYSTEM = ("core", "sim", "sap", "routing", "topology", "analysis",
                "experiments")
#: The folders whose files may name a definition.
PROGRAM = ("src", "benchmarks", "examples", "perfbench", "scripts")
#: Modules whose definitions may stay unnamed, by name prefix.
KEPT_MODULES = ("repro.analysis.", "repro.core.address_space.",
                "repro.routing.forwarding.")


def module_path(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def is_package(name):
    return (SRC.joinpath(*name.split(".")) / "__init__.py").is_file()


def resolve(package, name):
    """The module that ``from <package> import <name>`` reaches."""
    if module_path(f"{package}.{name}") is not None:
        return f"{package}.{name}"
    init = ast.parse((SRC.joinpath(*package.split(".")) /
                      "__init__.py").read_text())
    for node in init.body:
        if (isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            if is_package(node.module):
                return resolve(node.module, name)
            return node.module
    return None


def imported_modules(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            if not is_package(node.module):
                found.add(node.module)
                continue
            for alias in node.names:
                found.add(resolve(node.module, alias.name))
    return {name for name in found
            if name and name.split(".")[0] == "repro"
            and module_path(name) is not None and not is_package(name)}


def reached_modules():
    roots = [path for folder in ("benchmarks", "examples", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    roots.extend(module_path(name) for name in CLIS)
    reached, stack = set(), list(roots)
    while stack:
        for name in imported_modules(stack.pop()) - reached:
            reached.add(name)
            stack.append(module_path(name))
    return reached


def test_only_the_forwarding_oracle_is_unreached():
    paper_modules = {
        "repro." + ".".join(path.relative_to(SRC / "repro")
                            .with_suffix("").parts)
        for package in PAPER_SYSTEM
        for path in (SRC / "repro" / package).glob("*.py")
        if path.name != "__init__.py"
    }
    assert paper_modules - reached_modules() == {"repro.routing.forwarding"}


def defined_names(path, prefix):
    """``(qualified name, name)`` of every function, class and method
    defined at module or class level in ``path``, dunders left out."""
    def walk(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    return walk(ast.parse(path.read_text()).body, prefix)


def named_in(path):
    """Every name ``path`` uses: identifiers, attributes, imports and
    identifier-shaped string constants."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_paper_definition_is_named_by_the_program():
    named = set()
    for folder in PROGRAM:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name != "__init__.py":
                named |= named_in(path)
    unnamed = set()
    for package in PAPER_SYSTEM:
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            module = f"repro.{package}.{path.stem}."
            if module.startswith(KEPT_MODULES):
                continue
            unnamed.update(qualified
                           for qualified, name in defined_names(path, module)
                           if name not in named)
    assert unnamed == {"repro.sap.directory.SessionDirectory.expire_cache"}
