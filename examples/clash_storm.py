#!/usr/bin/env python3
"""Clash detection under partition: the three-phase protocol (§3).

Scenario: a session has been announced for a while when its origin
site becomes partitioned.  A newcomer at another site — unable to see
the original — allocates the same address.  Third-party directories
detect the clash and race (with randomised suppression delays) to
defend the original session on its owner's behalf; the newcomer hears
the defence and retreats to a fresh address.

Also compares the uniform and exponential suppression timers of §3.1:
how many third parties end up responding.

Run:  python examples/clash_storm.py
"""

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sap.clash_protocol import ClashPolicy
from repro.sap.directory import SessionDirectory
from repro.sap.response_timer import ExponentialDelayTimer, UniformDelayTimer
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.trace import Tracer, trace_directory

SPACE = MulticastAddressSpace.abstract(256)
NUM_SITES = 30

#: The two §3.1 suppression timers, by name.
TIMERS = {
    "uniform": lambda rng: UniformDelayTimer(0.5, 6.4, rng),
    "exponential": lambda rng: ExponentialDelayTimer(0.5, 6.4, rtt=0.2,
                                                     rng=rng),
}


def run_scenario(timer_name: str, timer_factory,
                 show_timeline: bool = False) -> bool:
    """Run the partition scenario; True if the newcomer moved away."""
    scheduler = EventScheduler()
    network = NetworkModel(
        scheduler,
        lambda source, ttl: [(node, 0.02 + 0.001 * node)
                             for node in range(NUM_SITES)],
    )
    policy = ClashPolicy(recent_window=30.0, timer_factory=timer_factory)
    directories = [
        SessionDirectory(
            node, scheduler, network,
            InformedRandomAllocator(SPACE.size,
                                    np.random.default_rng(node)),
            SPACE, clash_policy=policy,
            rng=np.random.default_rng(100 + node),
        )
        for node in range(NUM_SITES)
    ]
    owner, newcomer = directories[0], directories[1]
    tracer = Tracer(scheduler)
    if show_timeline:
        for directory in directories:
            trace_directory(tracer, directory)

    session = owner.create_session("long-lived stream", ttl=127)
    scheduler.run(until=120.0)

    network.unlisten(owner.node)  # the origin site is partitioned away
    clasher = newcomer.create_session("newcomer", ttl=127)
    own = newcomer.own_sessions()[0]
    newcomer.relocate(own, session.address)
    own.announcer.announce_now()
    started = scheduler.now
    scheduler.run(until=started + 60.0)

    defences = sum(d.clash_handler.defences_sent for d in directories[2:])
    moved = own.session.address != session.address
    print(f"{timer_name:12s} third-party defences sent: {defences:2d}  "
          f"newcomer moved: {moved}  "
          f"(now at {SPACE.index_to_ip(own.session.address)})")
    if show_timeline:
        interesting = [r for r in tracer.records(since=started)
                       if r.category != "rx"]
        if interesting:
            print("\n    protocol timeline (defences/retreats):")
            for record in interesting:
                print("    " + record.format())
        print()
    return moved


def main() -> None:
    print(f"{NUM_SITES} sites; origin partitioned; newcomer steals the "
          f"address\n")
    run_scenario("uniform", TIMERS["uniform"])
    run_scenario("exponential", TIMERS["exponential"], show_timeline=True)
    print("\nthe exponential timer keeps the defence storm small even "
          "as the group grows (paper figs. 18/19).")


if __name__ == "__main__":
    main()
