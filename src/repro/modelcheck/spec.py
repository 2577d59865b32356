"""Declared protocol state machines (the spec side of MC301–MC304).

The paper describes the clash-detection protocol (§3) as a small
reactive machine per site: announcements arrive, timers fire, and the
site reacts by defending, retreating, scheduling a third-party
defence, or re-announcing.  This module *declares* that machine —
which (state, event) pairs have handlers and which effects each
handler may and must perform — and
:mod:`repro.modelcheck.astcheck` extracts the machine actually
implemented from the AST and cross-checks the two.

Effect vocabulary (how call sites are classified):

========== ====================================================
effect     call names
========== ====================================================
send       ``send``, ``_multicast``, ``announce_now``
defend     ``defend``, ``proxy_defend``
retreat    ``retreat``
allocate   ``allocate``
schedule   ``schedule``, ``schedule_at``
cancel     ``cancel``, ``stop``
========== ====================================================

A handler's *schedules* set lists the methods it arms timers for —
the deferred transitions of the machine.  ``allowed`` bounds what the
implementation may do; ``required`` pins what it must do (deleting
the retreat branch of ``on_announcement`` is a spec violation, not a
refactor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

#: Classifier from call name to effect kind; astcheck consumes this.
EFFECT_NAMES: Dict[str, str] = {
    "send": "send",
    "_multicast": "send",
    "announce_now": "send",
    "defend": "defend",
    "proxy_defend": "defend",
    "retreat": "retreat",
    "allocate": "allocate",
    "schedule": "schedule",
    "schedule_at": "schedule",
    "cancel": "cancel",
    "stop": "cancel",
}

#: Method-name prefixes that make a method "handler-shaped": it reacts
#: to a message or a timer.  Handler-shaped methods in a spec'd class
#: must be declared (MC303).
HANDLER_PREFIXES: Tuple[str, ...] = ("on_", "_on_", "_fire", "receive")


@dataclass(frozen=True)
class HandlerSpec:
    """One (state, event) → handler declaration.

    Attributes:
        name: the method implementing the handler.
        state: protocol state label the handler serves (documentation
            and finding messages; ``*`` = any state).
        event: the message or timer the handler reacts to.
        allowed: effect kinds the handler may perform.
        required: effect kinds the handler must perform.
        schedules: methods the handler arms timers for (exact set).
    """

    name: str
    state: str
    event: str
    allowed: FrozenSet[str] = frozenset()
    required: FrozenSet[str] = frozenset()
    schedules: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class MachineSpec:
    """The declared machine for one protocol class."""

    cls: str
    doc: str
    handlers: Tuple[HandlerSpec, ...] = field(default_factory=tuple)

    def handler_names(self) -> FrozenSet[str]:
        return frozenset(h.name for h in self.handlers)

    def handler(self, name: str) -> HandlerSpec:
        for handler in self.handlers:
            if handler.name == name:
                return handler
        raise KeyError(name)


def _fs(*names: str) -> FrozenSet[str]:
    return frozenset(names)


#: The declared machines, keyed by class name.  Classes not listed
#: here are outside the spec and ignored by MC301–MC304.
SPEC_MACHINES: Dict[str, MachineSpec] = {
    "ClashHandler": MachineSpec(
        cls="ClashHandler",
        doc="three-phase clash detection (paper §3)",
        handlers=(
            HandlerSpec(
                name="on_announcement",
                state="*",
                event="SAP announcement received",
                allowed=_fs("defend", "retreat", "schedule"),
                required=_fs("defend", "retreat", "schedule"),
                schedules=_fs("_fire_defence"),
            ),
            HandlerSpec(
                name="_fire_defence",
                state="third-party-pending",
                event="random-delay defence timer",
                allowed=_fs("defend"),
                required=_fs("defend"),
            ),
        ),
    ),
    "SessionDirectory": MachineSpec(
        cls="SessionDirectory",
        doc="per-site sdr: announce/listen plus clash callbacks",
        handlers=(
            HandlerSpec(
                name="create_session",
                state="*",
                event="user creates a session",
                allowed=_fs("allocate", "schedule", "send"),
                required=_fs("allocate"),
                schedules=_fs("_expire_own"),
            ),
            HandlerSpec(
                name="delete_session",
                state="announcing",
                event="user withdraws a session",
                allowed=_fs("send", "cancel"),
                required=_fs("send", "cancel"),
            ),
            HandlerSpec(
                name="_expire_own",
                state="announcing",
                event="session lifetime expiry timer",
                allowed=_fs("send", "cancel"),
                required=_fs("send"),
            ),
            HandlerSpec(
                name="defend",
                state="established",
                event="clash handler phase-1 callback",
                allowed=_fs("send"),
                required=_fs("send"),
            ),
            HandlerSpec(
                name="retreat",
                state="newcomer",
                event="clash handler phase-2 callback",
                allowed=_fs("allocate", "send"),
                required=_fs("allocate", "send"),
            ),
            HandlerSpec(
                name="proxy_defend",
                state="third-party",
                event="clash handler phase-3 callback",
                allowed=_fs("send"),
                required=_fs("send"),
            ),
            HandlerSpec(
                name="_on_packet",
                state="*",
                event="SAP packet delivered",
            ),
        ),
    ),
    "Announcer": MachineSpec(
        cls="Announcer",
        doc="periodic announcement loop (paper §4 rates)",
        handlers=(
            HandlerSpec(
                name="start",
                state="idle",
                event="session starts announcing",
                allowed=_fs("send", "schedule"),
                required=_fs("send", "schedule"),
                schedules=_fs("_fire"),
            ),
            HandlerSpec(
                name="stop",
                state="announcing",
                event="session withdrawn",
                allowed=_fs("cancel"),
                required=_fs("cancel"),
            ),
            HandlerSpec(
                name="announce_now",
                state="announcing",
                event="clash defence re-announcement",
                allowed=_fs("send"),
                required=_fs("send"),
            ),
            HandlerSpec(
                name="_fire",
                state="announcing",
                event="re-announcement timer",
                allowed=_fs("send", "schedule"),
                required=_fs("send", "schedule"),
                schedules=_fs("_fire"),
            ),
        ),
    ),
    "ZamTransport": MachineSpec(
        cls="ZamTransport",
        doc="scoped ZAM delivery (MZAP-lite)",
        handlers=(
            HandlerSpec(
                name="send",
                state="*",
                event="ZAM multicast",
                allowed=_fs("schedule"),
                required=_fs("schedule"),
                schedules=_fs("_deliver"),
            ),
            HandlerSpec(
                name="_deliver",
                state="*",
                event="ZAM delivery timer",
            ),
        ),
    ),
    "ZoneAnnouncer": MachineSpec(
        cls="ZoneAnnouncer",
        doc="zone announcement producer (MZAP-lite)",
        handlers=(
            HandlerSpec(
                name="start",
                state="idle",
                event="producer starts",
                allowed=_fs("send", "schedule"),
                required=_fs("send", "schedule"),
                schedules=_fs("_fire"),
            ),
            HandlerSpec(
                name="stop",
                state="announcing",
                event="producer stops",
                allowed=_fs("cancel"),
                required=_fs("cancel"),
            ),
            HandlerSpec(
                name="_fire",
                state="announcing",
                event="ZAM period timer",
                allowed=_fs("send", "schedule"),
                required=_fs("send", "schedule"),
                schedules=_fs("_fire"),
            ),
        ),
    ),
    "ZoneListener": MachineSpec(
        cls="ZoneListener",
        doc="ZAM collector and leak detector (MZAP-lite)",
        handlers=(
            HandlerSpec(
                name="receive",
                state="*",
                event="ZAM delivered",
            ),
        ),
    ),
}
