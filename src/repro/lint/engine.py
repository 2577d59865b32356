"""Linter engine: file walking, suppression parsing, rule driving.

Suppression syntax (comments, anywhere tokenize finds them):

* ``# simlint: disable=rule-a,rule-b`` — suppress those rules on that
  line (put it on the first line of a multi-line statement).
* ``# simlint: disable`` — suppress every rule on that line.
* ``# simlint: disable-file=rule-a`` — suppress a rule for the whole
  file (``disable-file`` alone suppresses everything; use sparingly).

Scoped rules (see :mod:`repro.lint.rules`) are applied according to the
module's subpackage under ``repro``; files whose package cannot be
determined (e.g. scratch files) get the full rule set.

One run lints a whole tree in one uncached pass: every file is parsed
and given the per-file rules, then each :class:`~repro.lint.rules.TreeRule`
(such as the stream-key collision check) sees all parsed files at once.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import ALL_RULES, Rule, TreeRule

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable-file|disable)"
    r"(?:\s*=\s*([A-Za-z0-9_\-, ]+))?"
)

#: Sentinel meaning "derive the package from the path".
_AUTO = "<auto>"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.rule}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class Suppressions:
    """Parsed ``# simlint:`` directives for one file."""

    by_line: Dict[int, Set[str]]
    file_wide: Set[str]

    def suppressed(self, line: int, rule_name: str) -> bool:
        if "*" in self.file_wide or rule_name in self.file_wide:
            return True
        names = self.by_line.get(line)
        if names is None:
            return False
        return "*" in names or rule_name in names


def parse_suppressions(text: str) -> Suppressions:
    """Extract suppression directives from source comments."""
    by_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(text).readline
        ))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if not match:
            continue
        kind, arg = match.group(1), match.group(2)
        names = {"*"} if arg is None else {
            name.strip() for name in arg.split(",") if name.strip()
        }
        if kind == "disable-file":
            file_wide.update(names)
        else:
            by_line.setdefault(token.start[0], set()).update(names)
    return Suppressions(by_line=by_line, file_wide=file_wide)


def package_of(path: str) -> Optional[str]:
    """The first subpackage under ``repro`` a path belongs to.

    ``src/repro/sim/rng.py`` -> ``"sim"``; ``src/repro/cli.py`` ->
    ``""`` (package top level); paths not under a ``repro`` tree ->
    None (unknown — the engine then applies every rule).
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            if len(remainder) >= 2:
                return remainder[0]
            return ""
    return None


def _applies(rule: Rule, package: Optional[str]) -> bool:
    return rule.scope is None or package is None or package in rule.scope


def lint_sources(sources: Iterable[Tuple[str, str]],
                 rules: Optional[Sequence[Rule]] = None,
                 package: Optional[str] = _AUTO) -> List[Finding]:
    """Lint ``(path, text)`` pairs as one tree; returns sorted findings.

    Args:
        sources: the files, as path and Python source.
        rules: rule set (default: the full SIM registry).
        package: override the package used for rule scoping; the
            default derives it from each path.
    """
    if rules is None:
        rules = ALL_RULES
    findings: List[Finding] = []
    parsed: List[Tuple[str, ast.AST, Optional[str]]] = []
    suppressions: Dict[str, Suppressions] = {}

    def report(rule: Rule, path: str, line: int, col: int,
               message: str) -> None:
        if not suppressions[path].suppressed(line, rule.name):
            findings.append(Finding(
                path=path, line=line, col=col, code=rule.code,
                rule=rule.name, message=message,
            ))

    for path, text in sources:
        scope = package_of(path) if package == _AUTO else package
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            findings.append(Finding(
                path=path, line=exc.lineno or 1, col=exc.offset or 0,
                code="SIM000", rule="parse-error",
                message=f"could not parse: {exc.msg}",
            ))
            continue
        suppressions[path] = parse_suppressions(text)
        parsed.append((path, tree, scope))
        for rule in rules:
            if isinstance(rule, TreeRule) or not _applies(rule, scope):
                continue
            for line, col, message in rule.check(tree):
                report(rule, path, line, col, message)
    for rule in rules:
        if isinstance(rule, TreeRule):
            modules = [(path, tree) for path, tree, scope in parsed
                       if _applies(rule, scope)]
            for path, line, col, message in rule.check_tree(modules):
                report(rule, path, line, col, message)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_source(text: str, path: str = "<string>",
                rules: Optional[Sequence[Rule]] = None,
                package: Optional[str] = _AUTO) -> List[Finding]:
    """Lint one source string as a tree of one file."""
    return lint_sources([(path, text)], rules=rules, package=package)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a list of ``.py`` files, each once.

    Raises:
        FileNotFoundError: if a named path does not exist.
    """
    out: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(str(p) for p in sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(str(path))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return list(dict.fromkeys(out))


def lint_paths(paths: Iterable[str],
               rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint files and directory trees in one pass; returns sorted
    findings."""
    return lint_sources(
        ((file_path, Path(file_path).read_text(encoding="utf-8"))
         for file_path in iter_python_files(paths)),
        rules=rules,
    )
