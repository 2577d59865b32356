"""Whole-tree incremental cache for the flow analyses.

The lint cache (:mod:`repro.lint.cache`) is per-file because SIM1xx
findings are a pure function of one file.  FLOW6xx findings are not:
a finding at a line can be created or destroyed by an edit files away
(a new call edge, a renamed stream key).  The unit of purity here is
the *whole tree*, so the cache keys one entry by a digest over every
``(path, content-hash)`` pair plus the FLOW rule-table signature:

* any edit anywhere under the analyzed paths is a miss (full re-run);
* an untouched tree — the common case in watch loops and CI re-runs,
  where ``scripts/check.sh`` runs the pass right after the linter —
  is a hit and costs one hash pass instead of a graph build.

Same contract as the lint cache otherwise: versioned format,
fail-open on missing/corrupt/stale files, best-effort writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.flow.rules import FLOW_RULES
from repro.lint.registry import CACHE_FILES

#: Bumped whenever the on-disk schema or the analyses change shape.
CACHE_FORMAT = 1

DEFAULT_CACHE_FILE = CACHE_FILES["flow"]


def rules_signature() -> str:
    """Identity of the FLOW rule table (and analysis version)."""
    payload = repr((CACHE_FORMAT, FLOW_RULES))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def tree_digest(sources: Sequence[Tuple[str, str]]) -> str:
    """One digest over every (path, content) pair, order-independent."""
    hasher = hashlib.sha256()
    for path, text in sorted(sources):
        hasher.update(path.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(hashlib.sha256(
            text.encode("utf-8")).digest())
    return hasher.hexdigest()


class FlowCache:
    """One cached report per (tree digest, rule-table signature)."""

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self.signature = rules_signature()
        self.hit = False

    def lookup(self, digest: str) -> Optional[Dict[str, Any]]:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict):
            return None
        if raw.get("format") != CACHE_FORMAT:
            return None
        if raw.get("ruleset") != self.signature:
            return None
        if raw.get("tree") != digest:
            return None
        report = raw.get("report")
        if isinstance(report, dict):
            self.hit = True
            return report
        return None

    def store(self, digest: str, report: Dict[str, Any]) -> None:
        document = {
            "format": CACHE_FORMAT,
            "ruleset": self.signature,
            "tree": digest,
            "report": report,
        }
        try:
            self.path.write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # read-only checkout: caching is best-effort
