"""On-disk run cache: ``(spec digest, seed, budget) -> outcome``.

The determinism contract makes scenario runs memoizable: a run is a
pure function of ``(spec, seed, max_events)``, so its violation codes
and trace hash can be reused across fuzz invocations — which matters
because the shrinker re-runs many near-identical candidates and the
smoke fuzz in ``check.sh`` repeats the same early corpus every time.

The file (:data:`DEFAULT_CACHE_FILE`) is listed in ``.gitignore``.  A
signature covering the SCN rule table and the engine format
invalidates everything when either changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.scenario.rules import SCENARIO_RUNTIME_CODES

#: Bumped whenever the engine or the on-disk schema changes shape.
CACHE_FORMAT = 1

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_FILE = ".repro-scenario-cache.json"


def runs_signature() -> str:
    """Identity of the SCN rule table and engine format."""
    payload = repr((CACHE_FORMAT,
                    sorted(SCENARIO_RUNTIME_CODES.items())))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_key(digest: str, seed: int, max_events: int) -> str:
    """The cache key for one ``(spec, seed, budget)`` cell."""
    return f"{digest}:{seed}:{max_events}"


class RunCache:
    """A tolerant JSON run cache.

    Missing, corrupt or signature-mismatched files load as empty; a
    failed save is silently skipped (the cache is an accelerator, not
    a dependency).
    """

    def __init__(self, path: str = DEFAULT_CACHE_FILE) -> None:
        self.path = path
        self.signature = runs_signature()
        self.entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("signature") != self.signature:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = {
                str(key): value for key, value in entries.items()
                if isinstance(value, dict)
            }

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        hit = self.entries.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key: str, value: Dict[str, Any]) -> None:
        self.entries[key] = value

    def save(self) -> bool:
        """Atomic write (tmp + rename); False if the write failed."""
        payload = {"signature": self.signature, "entries": self.entries}
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            return False
        return True
