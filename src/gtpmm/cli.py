"""Command-line interface: ``plan``, ``verify``, ``bench``, and ``ingest``.

Set ``GTPMM_LOG`` (DEBUG/INFO/WARNING/ERROR) to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .errors import GtpError, ParseError
from .ingest import (
    CategoryConfig,
    categorize,
    load_edge_list,
    load_fare_config,
    load_gtfs,
    load_network_json,
    read_json,
    resolve_fares,
    save_network_json,
)
from .network import MultiModalNetwork, connect_components
from .oracle import brute_force_optimal
from .planner import JourneyPlan, QueryInstance, SharingMode, plan
from .synth import random_instance

log = logging.getLogger("gtpmm")

_SHARING = {
    "per-person": SharingMode.PER_PERSON_INTERMEDIATE,
    "shared": SharingMode.SHARED_INTERMEDIATE,
}
_FARE_STRATEGY_ALIASES = {"low": "low", "mid": "mid", "high": "high", "seeded": "seeded-uniform"}


def _configure_logging() -> None:
    level = os.environ.get("GTPMM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--network", help="serialized network JSON (from `gtpmm ingest`)")
    parser.add_argument("--edge-list", help="edge-list CSV (header u,v,mode,distance_m,time_min)")
    parser.add_argument("--gtfs", help="GTFS directory")
    parser.add_argument("--fares", help="fare config CSV (required with --edge-list/--gtfs)")
    parser.add_argument("--fare-strategy", choices=sorted(_FARE_STRATEGY_ALIASES), default="low")
    parser.add_argument("--connect", action="store_true", help="repair disconnected components before planning")


def _load_network(args: argparse.Namespace) -> MultiModalNetwork:
    sources = [s for s in (args.network, args.edge_list, args.gtfs) if s]
    if len(sources) != 1:
        raise GtpError("provide exactly one of --network, --edge-list, or --gtfs")
    if args.network:
        net = load_network_json(args.network)
    else:
        if not args.fares:
            raise GtpError("--fares is required with --edge-list/--gtfs")
        fares = resolve_fares(
            load_fare_config(args.fares), _FARE_STRATEGY_ALIASES[args.fare_strategy], args.seed
        )
        net = load_edge_list(args.edge_list, fares) if args.edge_list else load_gtfs(args.gtfs, fares)
    if args.connect:
        net, added = connect_components(net)
        log.info("connectivity repair added %d edges", len(added))
    return net


def _load_query(net: MultiModalNetwork, path: str) -> QueryInstance:
    document = read_json(path, "query")
    if not isinstance(document, dict):
        raise ParseError("a query must be a JSON object with 'agents' and 'categories'", file=path)
    for key in ("agents", "categories"):
        if not isinstance(document.get(key), list):
            raise ParseError(f"a query needs a list under {key!r}", file=path)
    to_id = {poi.external_id: poi.id for poi in net.pois}

    def resolve(token) -> int:
        if isinstance(token, int) and not isinstance(token, bool):
            return token
        if not isinstance(token, str):
            raise ParseError(f"PoI reference {token!r} is neither an id nor an external id", file=path)
        if token not in to_id:
            raise GtpError(f"query references unknown PoI {token!r}")
        return to_id[token]

    agents = []
    for pair in document["agents"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"agent {pair!r} is not a [source, destination] pair", file=path)
        agents.append((resolve(pair[0]), resolve(pair[1])))
    categories = []
    for category in document["categories"]:
        if not isinstance(category, list):
            raise ParseError(f"category {category!r} is not a list of PoIs", file=path)
        categories.append([resolve(p) for p in category])
    return QueryInstance(agents, categories)


def _plan_document(net: MultiModalNetwork, inst: QueryInstance, journey: JourneyPlan) -> dict:
    def leg_doc(leg) -> list[dict]:
        # orient each hop along the travel direction, not edge storage order
        return [
            {
                "from": net.pois[a].external_id,
                "to": net.pois[b].external_id,
                "mode": net.fare_table.name(mode),
                "cost_cents": net.edge_costs[eid],
            }
            for (eid, mode), (a, b) in zip(leg.legs, zip(leg.poi_sequence, leg.poi_sequence[1:]))
        ]

    agents = []
    for index, (source, dest) in enumerate(inst.agents):
        full_sequence = list(journey.source_legs[index].poi_sequence)
        for leg in (*journey.common_legs, journey.dest_legs[index]):
            full_sequence.extend(leg.poi_sequence[1:])
        agents.append(
            {
                "source": net.pois[source].external_id,
                "destination": net.pois[dest].external_id,
                "poi_sequence": [net.pois[p].external_id for p in full_sequence],
                "legs": (
                    leg_doc(journey.source_legs[index])
                    + [hop for leg in journey.common_legs for hop in leg_doc(leg)]
                    + leg_doc(journey.dest_legs[index])
                ),
            }
        )
    return {
        "sharing": journey.sharing.value,
        "common_pois": [net.pois[p].external_id for p in journey.common_pois],
        "total_cost_cents": journey.total_cost,
        "agents": agents,
    }


def _cmd_plan(args: argparse.Namespace) -> int:
    net = _load_network(args)
    inst = _load_query(net, args.query)
    sharing = _SHARING[args.sharing]
    journey = bench_mod.run_method(args.method, net, inst, sharing, args.seed)
    document = _plan_document(net, inst, journey)
    text = json.dumps(document, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    net = _load_network(args)
    if args.query:
        inst = _load_query(net, args.query)
    else:
        inst = random_instance(args.seed, net, args.k, args.pois_per_category, args.agents)
    sharing = _SHARING[args.sharing]
    journey = plan(net, inst, sharing)
    _, oracle_cost = brute_force_optimal(net, inst, sharing)
    agree = journey.total_cost == oracle_cost
    print(f"planner_cents={journey.total_cost} oracle_cents={oracle_cost} agree={agree}")
    return 0 if agree else 1


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_bench(args: argparse.Namespace) -> int:
    net = _load_network(args)
    cfg = bench_mod.ExperimentConfig(
        agent_counts=_parse_int_list(args.agents),
        category_counts=_parse_int_list(args.k),
        pois_per_category=_parse_int_list(args.pois_per_category),
        runs=args.runs,
        seed=args.seed,
        methods=tuple(args.methods.split(",")),
        sharing=_SHARING[args.sharing],
    )
    rows = bench_mod.run_experiment(net, cfg)
    out = Path(args.out)
    bench_mod.emit_csv(rows, out, net.fare_table.names)
    summary = bench_mod.emit_summary(rows, out.with_name(out.stem + "_summary" + out.suffix))
    print(f"wrote {len(rows)} rows to {out} (summary: {summary})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    net = _load_network(args)
    if args.categorize:
        cfg = CategoryConfig(k=args.categorize, strategy=args.category_strategy, seed=args.seed)
        net, sets = categorize(net, cfg)
        log.info("categorized into %s", [len(s) for s in sets])
    save_network_json(net, args.out)
    print(f"wrote network with {net.poi_count} PoIs and {net.edge_count} edges to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gtpmm", description="Group trip planning over multimodal networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve one query and print the journey plan")
    _add_network_args(p_plan)
    p_plan.add_argument("--query", required=True, help="query JSON (agents + categories)")
    p_plan.add_argument("--method", choices=bench_mod.METHODS, default="ojpa")
    p_plan.add_argument("--sharing", choices=sorted(_SHARING), default="per-person")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--out", help="write the plan JSON here instead of stdout")
    p_plan.set_defaults(func=_cmd_plan)

    p_verify = sub.add_parser("verify", help="compare the planner against the brute-force optimum")
    _add_network_args(p_verify)
    p_verify.add_argument("--query", help="query JSON; omitted => random instance")
    p_verify.add_argument("--sharing", choices=sorted(_SHARING), default="per-person")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--agents", type=int, default=3)
    p_verify.add_argument("--k", type=int, default=3)
    p_verify.add_argument("--pois-per-category", type=int, default=3)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run an experiment sweep and emit CSV")
    _add_network_args(p_bench)
    p_bench.add_argument("--agents", default="5,10,20,50,100", help="comma-separated agent counts")
    p_bench.add_argument("--k", default="10", help="comma-separated category counts")
    p_bench.add_argument("--pois-per-category", default="5,10,15,20")
    p_bench.add_argument("--runs", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", default=",".join(bench_mod.METHODS))
    p_bench.add_argument("--sharing", choices=sorted(_SHARING), default="per-person")
    p_bench.add_argument("--out", required=True, help="results CSV path")
    p_bench.set_defaults(func=_cmd_bench)

    p_ingest = sub.add_parser("ingest", help="build and serialize a network")
    _add_network_args(p_ingest)
    p_ingest.add_argument("--seed", type=int, default=0, help="seed for seeded fare/category draws")
    p_ingest.add_argument("--categorize", type=int, metavar="K", help="also assign K categories")
    p_ingest.add_argument(
        "--category-strategy", choices=("round-robin", "seeded-random"), default="round-robin"
    )
    p_ingest.add_argument("--out", required=True, help="serialized network JSON path")
    p_ingest.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GtpError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
