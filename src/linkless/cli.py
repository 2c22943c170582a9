"""Command-line front end.

Structured JSON goes to stdout (sorted keys, so identical inputs and
seeds give byte-identical output); human-oriented diagnostics go to
stderr.  Exit codes: 0 when the requested verdict or report was computed,
1 when a checking subcommand found violations, 2 for usage/input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .acceptance import run_acceptance
from .canonical import VertexLimitExceeded
from .circuits import CircuitCapExceeded
from .embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    embedding_from_json_dict,
    embedding_to_json_dict,
    random_embedding,
)
from .experiments import conway_gordon_experiment, edge_swap_check
from .geometry import GeometryError, parse_rational
from .minors import DEFAULT_BUDGET, SearchBudgetExceeded, has_minor, is_intrinsically_linked
from .moves import delta_y, petersen_family
from .multigraph import GraphError, GraphParseError, MultiGraph, format_edge_list, parse_graph
from .omega import omega_graph
from .projection import NonRegularProjection

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _emit(doc: dict) -> None:
    doc.setdefault("schema_version", SCHEMA_VERSION)
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_graph(arg: str) -> MultiGraph:
    path = Path(arg)
    try:
        if path.is_file():
            return parse_graph(path.read_text(), name=path.stem)
        return parse_graph(arg)
    except GraphParseError as exc:
        raise UsageError(str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {arg}: {exc}") from exc


def _default_budget() -> int:
    env = os.environ.get("LINKLESS_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"LINKLESS_BUDGET must be an integer, got {env!r}")
    return DEFAULT_BUDGET


def _parse_direction(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("direction must be three comma-separated rationals")
    try:
        return tuple(parse_rational(p) for p in parts)
    except GeometryError as exc:
        raise UsageError(str(exc)) from exc


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="linkless",
        description="Intrinsic linking: Petersen-family minors and the spatial "
                    "mod-2 linking invariant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether a graph is intrinsically linked")
    p.add_argument("graph", help="builtin name (K6, K3,3,1, petersen, ...) or edge-list file")
    p.add_argument("--budget", type=int, default=None,
                   help="search nodes per family member (default 10^7)")

    p = sub.add_parser("minor", help="search for H as a minor of G")
    p.add_argument("g", help="host graph (builtin or file)")
    p.add_argument("h", help="target graph (builtin or file)")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("petersen", help="the Petersen family")
    p.add_argument("action", choices=["list"])

    p = sub.add_parser("deltay", help="apply a Delta-Y move to a triangle")
    p.add_argument("graph")
    p.add_argument("--triangle", required=True, metavar="A,B,C",
                   help="triangle vertices, comma separated")

    p = sub.add_parser("embed", help="random straight-line spatial embedding")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("omega", help="mod-2 linking invariant of an embedding file")
    p.add_argument("embedding", help="embedding JSON file")
    p.add_argument("--direction", default=None, metavar="X,Y,Z",
                   help="projection direction (must be regular); default: auto")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reroute-check", help="omega invariance under random edge reroutes")
    p.add_argument("graph", help="K6 or K3,3,1")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("experiment", help="omega over many random embeddings")
    p.add_argument("graph", choices=["k6", "k331"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--trials", type=int, default=None,
                   help="scale down the Monte Carlo criteria")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    budget = args.budget if args.budget is not None else _default_budget()
    verdict = is_intrinsically_linked(g, budget=budget)
    doc = {"command": "classify",
           "graph": {"name": g.name, "vertices": g.n, "edges": g.m},
           "budget": budget}
    doc.update(verdict.to_json_dict())
    _emit(doc)
    print(f"{args.graph}: {verdict.verdict}"
          + (f" (witness {verdict.witness_member})" if verdict.witness_member else ""),
          file=sys.stderr)
    return 0


def _cmd_minor(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    budget = args.budget if args.budget is not None else _default_budget()
    doc = {"command": "minor",
           "g": {"name": g.name, "vertices": g.n, "edges": g.m},
           "h": {"name": h.name, "vertices": h.n, "edges": h.m},
           "budget": budget}
    try:
        model = has_minor(g, h, budget=budget)
    except SearchBudgetExceeded:
        doc.update({"found": None, "reason": "budget exhausted"})
        _emit(doc)
        return 0
    doc["found"] = model is not None
    doc["model"] = model.to_json_dict() if model else None
    _emit(doc)
    return 0


def _cmd_petersen(args) -> int:
    family = petersen_family()
    members = []
    for m in family:
        members.append({
            "name": m.name,
            "vertices": m.graph.n,
            "edges": m.graph.m,
            "canonical": m.canonical.hex(),
            "derivation": list(m.derivation),
            "edge_list": format_edge_list(m.graph),
        })
    _emit({"command": "petersen list", "members": members, "count": len(members)})
    return 0


def _cmd_deltay(args) -> int:
    g = _load_graph(args.graph)
    try:
        tri = tuple(int(x) for x in args.triangle.split(","))
    except ValueError:
        raise UsageError("triangle must be three integers A,B,C")
    if len(tri) != 3:
        raise UsageError("triangle must be three integers A,B,C")
    result = delta_y(g, tri)  # type: ignore[arg-type]
    _emit({
        "command": "deltay",
        "input": {"name": g.name, "vertices": g.n, "edges": g.m},
        "triangle": list(tri),
        "result": {
            "vertices": result.n,
            "edges": result.m,
            "new_vertex": max(result.vertices),
            "edge_list": format_edge_list(result),
        },
    })
    return 0


def _cmd_embed(args) -> int:
    g = _load_graph(args.graph)
    emb = random_embedding(g, args.seed)
    doc = embedding_to_json_dict(emb)
    if args.output:
        Path(args.output).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        _emit({"command": "embed", "graph": args.graph, "seed": args.seed,
               "written": args.output})
    else:
        _emit(doc)
    return 0


def _cmd_omega(args) -> int:
    path = Path(args.embedding)
    if not path.is_file():
        raise UsageError(f"no such embedding file: {args.embedding}")
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"embedding file is not valid JSON: {exc}")
    emb = embedding_from_json_dict(doc)
    direction = _parse_direction(args.direction) if args.direction else None
    report = omega_graph(emb, direction=direction, seed=args.seed)
    out = {"command": "omega"}
    out.update(report.to_json_dict())
    _emit(out)
    return 0


def _cmd_reroute_check(args) -> int:
    report = edge_swap_check(args.graph, trials=args.trials, seed=args.seed)
    out = {"command": "reroute-check"}
    out.update(report.to_json_dict())
    _emit(out)
    print(f"{args.graph}: {report.preserved}/{report.trials} reroutes preserved omega, "
          f"{report.pair_identities_checked} pair identities checked",
          file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_experiment(args) -> int:
    report = conway_gordon_experiment(args.graph, trials=args.trials, seed=args.seed)
    out = {"command": "experiment"}
    out.update(report.to_json_dict())
    _emit(out)
    print(f"{args.graph}: omega=1 in {report.omega_counts.get(1, 0)}/{report.trials} trials",
          file=sys.stderr)
    return 0


def _cmd_acceptance(args) -> int:
    report = run_acceptance(trials=args.trials, seed=args.seed)
    timings = report.pop("_timings", {})
    _emit(report)
    for crit in report["criteria"]:
        status = "PASS" if crit["pass"] else "FAIL"
        elapsed = timings.get(crit["criterion"], 0.0)
        print(f"criterion {crit['criterion']}: {status} ({elapsed:.1f}s)  {crit['name']}",
              file=sys.stderr)
    return 0 if report["pass"] else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "minor": _cmd_minor,
    "petersen": _cmd_petersen,
    "deltay": _cmd_deltay,
    "embed": _cmd_embed,
    "omega": _cmd_omega,
    "reroute-check": _cmd_reroute_check,
    "experiment": _cmd_experiment,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphParseError, EmbeddingError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, CircuitCapExceeded, VertexLimitExceeded,
            NonRegularProjection, RetryLimitExceeded, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
