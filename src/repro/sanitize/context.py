"""SanitizerContext — attach every checker to a running simulation.

One context owns one violation list and one instance of each checker.
Attachment is explicit and opt-in, mirroring how ASan instruments a
binary only when compiled in.  Each method below wraps methods of the
one instance it is given, so the simulation's own classes carry no
checking code and an unsanitized run never branches on a checker:

* :meth:`attach_scheduler` wraps the scheduler's and its clock's
  methods (:class:`~repro.sanitize.scheduler_checker.SchedulerSanitizer`);
* :meth:`attach_network` wraps the network model's ``send`` and, with
  a scope map, its ``hand_over``;
* :meth:`watch_directory` wraps a
  :class:`~repro.sap.directory.SessionDirectory`'s ``create_session``,
  ``delete_session`` and ``retreat`` and its allocator, seeds the
  shadow state with any pre-existing sessions, and registers the
  directory for the convergence-time cache check;
* :meth:`watch_allocator` wraps a bare allocator (for allocator-only
  experiments such as the fig. 12 steady-state churn).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.routing.scoping import ScopeMap
from repro.sanitize.address_checker import AddressSanitizer
from repro.sanitize.cache_checker import CacheSanitizer
from repro.sanitize.report import (
    VIOLATION_CODES,
    Violation,
    render_json,
    render_text,
)
from repro.sanitize.scheduler_checker import SchedulerSanitizer
from repro.sanitize.scope_checker import ScopeSanitizer


class SanitizerContext:
    """Shared state of the four checkers and the wrappers feeding them.

    Args:
        scope_map: topology scope map for the delivery-containment
            check; None disables ScopeSanitizer (scenarios without
            TTL scoping semantics).
        scenario: label used in reports and pseudo-paths.
    """

    def __init__(self, scope_map: Optional[ScopeMap] = None,
                 scenario: str = "") -> None:
        self.scenario = scenario
        self.violations: List[Violation] = []
        self.scheduler_sanitizer = SchedulerSanitizer(self)
        self.address_sanitizer = AddressSanitizer(self)
        self.scope_sanitizer = ScopeSanitizer(self, scope_map)
        self.cache_sanitizer = CacheSanitizer(self)
        self._scheduler = None

    # ------------------------------------------------------------------
    # Violation collection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._scheduler.now if self._scheduler is not None else 0.0

    def record(self, code: str, rule: str, message: str,
               time: Optional[float] = None) -> None:
        """Append one violation; checkers call this."""
        if VIOLATION_CODES.get(code) != rule:
            raise ValueError(f"unregistered violation {code}/{rule}")
        when = self.now if time is None else time
        self.violations.append(Violation(code, rule, message, time=when))

    @property
    def clean(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        return render_text(self.violations, self.scenario)

    def render_json(self) -> str:
        return render_json(self.violations, self.scenario)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler):
        """Check a scheduler and its clock; returns the scheduler.

        Attach a fresh one, as every caller does: SAN223 checks only
        the events scheduled after the attach.
        """
        self._scheduler = scheduler
        self.scheduler_sanitizer.attach(scheduler)
        return scheduler

    def attach_network(self, network):
        """Check a network model's sends and deliveries; returns it."""
        send = network.send

        def checked_send(packet):
            self.address_sanitizer.on_packet_sent(packet)
            return send(packet)

        network.send = checked_send
        if self.scope_sanitizer.scope_map is not None:
            hand_over = network.hand_over

            def checked_hand_over(receiver, packet, callbacks):
                self.scope_sanitizer.on_packet_delivered(receiver, packet)
                hand_over(receiver, packet, callbacks)

            network.hand_over = checked_hand_over
        return network

    def watch_directory(self, directory):
        """Shadow a session directory end to end; returns it."""
        address = self.address_sanitizer
        create_session = directory.create_session
        delete_session = directory.delete_session
        retreat = directory.retreat

        def checked_create_session(*args, **kwargs):
            session = create_session(*args, **kwargs)
            newest = directory.own_sessions()[-1]
            address.on_session_created(directory, newest)
            return session

        def checked_delete_session(session):
            for own in directory.own_sessions():
                if own.session is session:
                    address.on_session_withdrawn(directory, own)
            delete_session(session)

        def checked_retreat(own):
            old_address = own.session.address
            retreat(own)
            address.on_session_moved(directory, own, old_address)

        directory.create_session = checked_create_session
        directory.delete_session = checked_delete_session
        directory.retreat = checked_retreat
        self.watch_allocator(directory.allocator, node=directory.node)
        for own in directory.own_sessions():
            address.on_session_created(directory, own)
        self.cache_sanitizer.track(directory)
        return directory

    def watch_allocator(self, allocator, node: Optional[int] = None):
        """Wrap ``allocator.allocate`` with shadow checks; returns it."""
        if getattr(allocator, "_sanitize_watched", False):
            return allocator
        inner = allocator.allocate

        def allocate(ttl, visible):
            result = inner(ttl, visible)
            self.address_sanitizer.on_allocate(allocator, node, ttl,
                                               visible, result)
            return result

        allocator.allocate = allocate
        allocator._sanitize_watched = True
        return allocator

    # ------------------------------------------------------------------
    # Convergence-time checks
    # ------------------------------------------------------------------
    def check_convergence(self,
                          directories: Optional[Iterable] = None) -> int:
        """Run the cache cross-check; returns entries checked."""
        return self.cache_sanitizer.check(directories)

    def __repr__(self) -> str:
        label = self.scenario or "unnamed"
        return (f"SanitizerContext({label!r}, "
                f"violations={len(self.violations)})")
