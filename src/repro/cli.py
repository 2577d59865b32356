"""Command-line interface.

Exposes the library's main workflows without writing Python:

    python -m repro generate-map --nodes 400 --out mbone.map
    python -m repro map-stats mbone.map
    python -m repro hopcount --nodes 400 --ttls 15 47 63 127
    python -m repro fig5 --sizes 100 200 400 --trials 3
    python -m repro steady-state --algorithm aipr3 --spaces 100 200
    python -m repro request-response --sites 800 --d2 3.2 \
        --timer exponential
    python -m repro analyze birthday --space 10000 --allocations 118
    python -m repro analyze responders --sites 1600 --buckets 32
    python -m repro lint src --determinism
    python -m repro modelcheck smoke

Every simulation is deterministic for a given ``--seed``; the ``lint``
subcommand statically enforces the invariants that make that true, and
``modelcheck`` exhausts small protocol configurations against the
paper's safety claims.  The two analysis tools in :data:`TOOLS` own
their command lines: ``python -m repro <tool> ARGS`` hands ARGS
unchanged to ``python -m repro.<tool>``'s ``main``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional


from repro.analysis.birthday import clash_probability
from repro.analysis.clash_model import allocations_before_half
from repro.analysis.response_bounds import (
    exponential_expected_responses,
    uniform_expected_responses,
)
from repro.experiments.algorithms import ALGORITHM_FACTORIES
from repro.experiments.allocation_run import fig5_cell_job, fig5_run
from repro.experiments.pool import ordered_map, worker_count
from repro.experiments.reporting import format_table
from repro.experiments.request_response import (
    RequestResponseConfig,
    simulate_request_response,
)
from repro.experiments.steady_state import (
    allocations_at_half_clash,
    steady_cell_job,
)
from repro.experiments.ttl_distributions import (
    ALL_DISTRIBUTIONS,
    DS4,
)
from repro.routing.scoping import ScopeMap
from repro.topology.doar import DoarParams, generate_doar
from repro.topology.hopcount import hop_count_distribution, usage_table
from repro.topology.mapfile import load_map, save_map
from repro.topology.mbone import MboneParams, generate_mbone
from repro.topology.stats import format_summary, summarize

#: Analysis tools with their own CLI, ``repro.<tool>.cli.main``; the
#: umbrella lists them in ``--help`` and passes their arguments through.
TOOLS = {
    "lint": "determinism & simulation-correctness linter",
    "modelcheck": "bounded explicit-state model checker",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Handley SIGCOMM'98 multicast address allocation "
                    "reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-map", help="generate a topology map")
    gen.add_argument("--kind", choices=("mbone", "doar"), default="mbone")
    gen.add_argument("--nodes", type=int, default=400)
    gen.add_argument("--seed", type=int, default=1998)
    gen.add_argument("--out", required=True)

    stats = sub.add_parser("map-stats", help="summarise a map file")
    stats.add_argument("map")

    hop = sub.add_parser("hopcount", help="fig. 10 hop-count table")
    hop.add_argument("--map")
    hop.add_argument("--nodes", type=int, default=400)
    hop.add_argument("--seed", type=int, default=1998)
    hop.add_argument("--ttls", type=int, nargs="+",
                     default=[15, 47, 63, 127])

    fig5 = sub.add_parser("fig5", help="allocations before first clash")
    fig5.add_argument("--map")
    fig5.add_argument("--nodes", type=int, default=400)
    fig5.add_argument("--seed", type=int, default=1998)
    fig5.add_argument("--sizes", type=int, nargs="+",
                      default=[100, 200, 400])
    fig5.add_argument("--trials", type=int, default=3)
    fig5.add_argument("--algorithms", nargs="+",
                      default=["random", "informed", "ipr3", "ipr7"],
                      choices=sorted(ALGORITHM_FACTORIES))
    fig5.add_argument("--jobs", type=worker_count, default=1,
                      help="worker processes, one grid cell each "
                           "(same rows, same bytes)")

    steady = sub.add_parser("steady-state",
                            help="figs. 12/13 steady-state point")
    steady.add_argument("--map")
    steady.add_argument("--nodes", type=int, default=400)
    steady.add_argument("--seed", type=int, default=1998)
    steady.add_argument("--algorithm", default="aipr1",
                        choices=sorted(ALGORITHM_FACTORIES))
    steady.add_argument("--spaces", type=int, nargs="+",
                        default=[100, 200, 400])
    steady.add_argument("--trials", type=int, default=6)
    steady.add_argument("--same-site", action="store_true",
                        help="fig. 13's upper-bound replacement rule")
    steady.add_argument("--jobs", type=worker_count, default=1,
                        help="worker processes, one space size each "
                             "(same rows, same bytes)")

    rr = sub.add_parser("request-response",
                        help="figs. 15-19 suppression simulation")
    rr.add_argument("--sites", type=int, default=800)
    rr.add_argument("--seed", type=int, default=1998)
    rr.add_argument("--d2", type=float, default=3.2)
    rr.add_argument("--d1", type=float, default=0.0)
    rr.add_argument("--timer", choices=("uniform", "exponential"),
                    default="exponential")
    rr.add_argument("--routing", choices=("spt", "shared"),
                    default="spt")
    rr.add_argument("--jitter", type=float, default=0.0)
    rr.add_argument("--trials", type=int, default=10)

    reproduce = sub.add_parser(
        "reproduce",
        help="compact end-to-end reproduction report (all anchors)",
    )
    reproduce.add_argument("--nodes", type=int, default=300)
    reproduce.add_argument("--seed", type=int, default=1998)
    reproduce.add_argument("--out", help="also write the report here")

    for name, summary in TOOLS.items():
        sub.add_parser(name, help=f"{summary} (python -m repro.{name})")

    analyze = sub.add_parser("analyze", help="closed-form models")
    analyze_sub = analyze.add_subparsers(dest="model", required=True)
    birthday = analyze_sub.add_parser("birthday")
    birthday.add_argument("--space", type=int, default=10_000)
    birthday.add_argument("--allocations", type=int, default=118)
    eq1 = analyze_sub.add_parser("eq1")
    eq1.add_argument("--space", type=int, default=10_000)
    eq1.add_argument("--i-fraction", type=float, default=0.001)
    resp = analyze_sub.add_parser("responders")
    resp.add_argument("--sites", type=int, default=1600)
    resp.add_argument("--buckets", type=int, default=32)

    return parser


def _load_topology(args) -> "object":
    if getattr(args, "map", None):
        return load_map(args.map)
    return generate_mbone(MboneParams(total_nodes=args.nodes,
                                      seed=args.seed))


def cmd_generate_map(args) -> int:
    if args.kind == "mbone":
        topology = generate_mbone(MboneParams(total_nodes=args.nodes,
                                              seed=args.seed))
    else:
        topology = generate_doar(DoarParams(num_nodes=args.nodes,
                                            seed=args.seed)).topology
    save_map(topology, args.out)
    print(f"wrote {topology} to {args.out}")
    return 0


def cmd_map_stats(args) -> int:
    topology = load_map(args.map)
    print(format_summary(summarize(topology)))
    return 0


def cmd_hopcount(args) -> int:
    topology = _load_topology(args)
    stats = hop_count_distribution(topology, ttls=args.ttls)
    rows = [(r["ttl"], r["typical_hop_count"], r["max_hop_count"],
             r["example_usage"]) for r in usage_table(stats)]
    print(format_table(["ttl", "typical hops", "max hops", "usage"],
                       rows))
    return 0


def cmd_fig5(args) -> int:
    if args.jobs > 1:
        rows = _fig5_rows_parallel(args)
    else:
        topology = _load_topology(args)
        scope_map = ScopeMap.from_topology(topology)
        algorithms = {name: ALGORITHM_FACTORIES[name]
                      for name in args.algorithms}
        rows = fig5_run(scope_map, algorithms, args.sizes,
                        ALL_DISTRIBUTIONS, trials=args.trials,
                        seed=args.seed)
    print(format_table(
        ["algorithm", "dist", "space", "allocations"],
        [(r.algorithm, r.distribution, r.space_size,
          round(r.mean_allocations, 1)) for r in rows],
    ))
    return 0


def _fig5_rows_parallel(args) -> list:
    """The fig. 5 grid, one cell per worker task.

    Cells derive their trial streams from the cell coordinates, so
    these rows are byte-identical to the serial ``fig5_run`` path.
    """
    cells = [
        {"algorithm": algorithm, "distribution": distribution.name,
         "space_size": size, "trials": args.trials, "seed": args.seed,
         "nodes": args.nodes, "map": args.map}
        for algorithm in args.algorithms
        for distribution in ALL_DISTRIBUTIONS
        for size in args.sizes
    ]
    return ordered_map(fig5_cell_job, cells, args.jobs)


def cmd_steady_state(args) -> int:
    if args.jobs > 1:
        rows = _steady_rows_parallel(args)
    else:
        topology = _load_topology(args)
        scope_map = ScopeMap.from_topology(topology)
        factory = ALGORITHM_FACTORIES[args.algorithm]
        rows = []
        for space in args.spaces:
            value = allocations_at_half_clash(
                scope_map, factory, space, DS4, trials=args.trials,
                seed=args.seed, same_site_replacement=args.same_site,
            )
            rows.append((args.algorithm, space, value))
    print(format_table(["algorithm", "space", "allocations@0.5"], rows))
    return 0


def _steady_rows_parallel(args) -> list:
    """The steady-state points, one space size per worker task.

    The cells keep the raw ``--seed`` (``derive_seed=False``), so the
    table matches the serial path byte for byte.
    """
    cells = [
        {"algorithm": args.algorithm, "space_size": space,
         "distribution": DS4.name, "trials": args.trials,
         "seed": args.seed, "nodes": args.nodes,
         "same_site": args.same_site, "derive_seed": False,
         "map": args.map}
        for space in args.spaces
    ]
    return [(row.algorithm, row.space_size, row.allocations_at_half)
            for row in ordered_map(steady_cell_job, cells, args.jobs)]


def cmd_request_response(args) -> int:
    doar = generate_doar(DoarParams(num_nodes=args.sites,
                                    seed=args.seed))
    config = RequestResponseConfig(
        d2=args.d2, d1=args.d1, timer=args.timer, routing=args.routing,
        jitter=args.jitter, trials=args.trials, seed=args.seed,
    )
    result = simulate_request_response(doar, config)
    print(format_table(
        ["sites", "timer", "D2 (s)", "mean responses",
         "mean first delay (s)", "max first delay (s)"],
        [(result.num_sites, args.timer, args.d2,
          round(result.mean_responses, 2),
          round(result.mean_first_delay, 3),
          round(result.max_first_delay, 3))],
    ))
    return 0


def cmd_analyze(args) -> int:
    if args.model == "birthday":
        p = clash_probability(args.space, args.allocations)
        print(f"P(clash | space={args.space}, "
              f"allocations={args.allocations}) = {p:.4f}")
    elif args.model == "eq1":
        m = allocations_before_half(args.space, args.i_fraction)
        print(f"allocations at clash-prob 0.5 "
              f"(space={args.space}, i={args.i_fraction}m) = {m}")
    else:
        uniform = uniform_expected_responses(args.sites, args.buckets)
        exponential = exponential_expected_responses(args.sites,
                                                     args.buckets)
        print(f"expected responders (n={args.sites}, d={args.buckets}): "
              f"uniform={uniform:.2f} exponential={exponential:.3f}")
    return 0


def cmd_reproduce(args) -> int:
    """A compact reproduction: the paper's analytic anchors plus quick
    topology-backed checks, in one report."""
    from repro.analysis.birthday import allocations_for_clash_probability
    from repro.analysis.announcement import (
        ExponentialBackoffSchedule,
        paper_two_term_delay,
    )
    from repro.analysis.clash_model import iprma_concurrent_sessions
    from repro.analysis.response_bounds import (
        exponential_expected_responses,
    )
    from repro.topology.hopcount import hop_count_distribution

    lines = ["repro — compact reproduction report", ""]

    def add(label, paper, measured):
        lines.append(f"{label:<46s} paper: {paper:<12s} "
                     f"measured: {measured}")

    add("fig. 4 allocations at p=0.5 (space 10,000)", "~118",
        str(allocations_for_clash_probability(10_000, 0.5)))
    add("sec. 2.3 mean announcement delay", "~12 s",
        f"{paper_two_term_delay():.2f} s")
    add("sec. 2.3 concurrent sessions (65,536/8)", "16,496",
        f"{iprma_concurrent_sessions():,}")
    add("sec. 2.3 back-off discovery delay", "~0.3 s",
        f"{ExponentialBackoffSchedule().mean_discovery_delay():.2f} s")
    add("fig. 18 exponential responder limit", "1.442695",
        f"{exponential_expected_responses(100_000, 40):.4f}")

    topology = generate_mbone(MboneParams(total_nodes=args.nodes,
                                          seed=args.seed))
    scope_map = ScopeMap.from_topology(topology)
    stats = hop_count_distribution(topology, scope_map=scope_map)
    add("fig. 10 typical hops at TTL 127", "10.6",
        f"{stats[127].mean_hops:.1f}")
    add("fig. 10 typical hops at TTL 15", "3.1",
        f"{stats[15].mean_hops:.1f}")

    rows = fig5_run(
        scope_map,
        {"R": ALGORITHM_FACTORIES["random"],
         "IPR 7-band": ALGORITHM_FACTORIES["ipr7"]},
        [200], ALL_DISTRIBUTIONS[-1:], trials=3, seed=args.seed,
    )
    means = {r.algorithm: r.mean_allocations for r in rows}
    add("fig. 5 IPR-7 advantage over R (space 200, ds4)", ">>1x",
        f"{means['IPR 7-band'] / max(1.0, means['R']):.1f}x")

    doar = generate_doar(DoarParams(num_nodes=min(400, args.nodes),
                                    seed=args.seed))
    result = simulate_request_response(
        doar, RequestResponseConfig(d2=3.2, timer="exponential",
                                    trials=6, seed=args.seed),
    )
    add("fig. 19 exponential responses at D2=3.2 s", "~2",
        f"{result.mean_responses:.1f}")

    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return 0


COMMANDS = {
    "generate-map": cmd_generate_map,
    "reproduce": cmd_reproduce,
    "map-stats": cmd_map_stats,
    "hopcount": cmd_hopcount,
    "fig5": cmd_fig5,
    "steady-state": cmd_steady_state,
    "request-response": cmd_request_response,
    "analyze": cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in TOOLS:
        tool = importlib.import_module(f"repro.{argv[0]}.cli")
        return tool.main(argv[1:])
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
