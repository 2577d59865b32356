"""Two-pass interprocedural re-reporting machinery.

The alias pass re-examines functions with facts their call sites
supplied: callers that mutate a container a callee leaked.  This
module holds its ``callee -> slot -> [(fact, caller, path, line)]``
table and the ``[reached via ...]`` label formatting.

The contract the pass follows:

* **pass A** interprets every function in isolation and records, per
  resolved call edge, the facts the caller established
  (:meth:`CallIndex.record`);
* **pass B** walks the recorded callees (:meth:`CallIndex.callees`),
  reads each callee's facts back (:meth:`CallIndex.entries`), and
  tags any new finding with the :func:`via_label` of the call site
  that justifies it — so a whole-program finding names the concrete
  path behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List


def via_label(caller: str, path: str, line: int) -> str:
    """The ``[reached via ...]`` tag appended to interprocedural
    findings: the call site whose facts made the finding reportable."""
    return f"[reached via {caller} at {path}:{line}]"


@dataclass(frozen=True)
class CallEntry:
    """One fact one call site established about one callee slot."""

    value: Any
    caller: str
    path: str
    line: int


class CallIndex:
    """``callee -> slot -> [CallEntry]`` across the whole program.

    A *slot* is whatever the client pass keys facts by; the alias pass
    uses the ``RETURN_SLOT`` sentinel (facts about what callers do
    with the returned value).
    """

    #: Slot name for facts about a callee's returned value.
    RETURN_SLOT = "<return>"

    def __init__(self) -> None:
        self._by_callee: Dict[str, Dict[str, List[CallEntry]]] = {}

    def record(self, callee: str, slot: str, value: Any,
               caller: str, path: str, line: int) -> None:
        self._by_callee.setdefault(callee, {}).setdefault(
            slot, []).append(CallEntry(value, caller, path, line))

    def callees(self) -> List[str]:
        """Every callee with recorded facts, in stable sorted order."""
        return sorted(self._by_callee)

    def entries(self, callee: str, slot: str) -> List[CallEntry]:
        return list(self._by_callee.get(callee, {}).get(slot, []))
