"""Command-line front end.

Structured JSON goes to stdout (sorted keys, so identical inputs and
seeds give byte-identical output); human-oriented diagnostics go to
stderr.  Exit codes: 0 when the requested verdict or report was computed,
1 when a checking subcommand found violations, 2 for usage/input errors.

Every document is written by `_encode`, which gives the text of
``json.dumps(doc, sort_keys=True, indent=2)`` with less work per value:
an int or str child of a dict or list is written inline in its parent's
loop, as one append with its separator (and key), not by a recursive call.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .acceptance import run_acceptance
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


def _encode(obj, pad: str, out: list[str]) -> None:
    """Append the text of json.dumps(obj, sort_keys=True, indent=2), as if
    nested at indentation ``pad``, to ``out``.

    With ``indent`` json runs its pure-Python encoder; this writes the same
    text with less work per value (see the module docstring).  Containers
    json would treat otherwise (subclasses, keys that are not strings) and
    every scalar but strings, ints, booleans and None are handed to json
    itself.
    """
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is dict and all(type(key) is str for key in obj):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):  # the keys are distinct strings
            value = obj[key]
            kind = type(value)
            quoted = encode_basestring_ascii(key)
            # an int formats as int.__repr__ does; a bool is not an int here
            if kind is int:
                out.append(f"{sep}{quoted}: {value}")
            elif kind is str:
                out.append(f"{sep}{quoted}: {encode_basestring_ascii(value)}")
            else:
                out.append(f"{sep}{quoted}: ")
                _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for value in obj:
            kind = type(value)
            if kind is int:
                out.append(f"{sep}{value}")
            elif kind is str:
                out.append(f"{sep}{encode_basestring_ascii(value)}")
            else:
                out.append(sep)
                _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        # json escapes newlines inside strings, so every newline is a break
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))


def _dumps(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2)."""
    out: list[str] = []
    _encode(doc, "", out)
    return "".join(out)


def _emit(doc: dict) -> None:
    doc.setdefault("schema_version", SCHEMA_VERSION)
    sys.stdout.write(_dumps(doc) + "\n")


def _summary(g: MultiGraph) -> dict:
    return {"name": g.name, "vertices": g.n, "edges": g.m}


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


def _load_experiment_graph(arg: str) -> MultiGraph:
    # `k331` stays K3,3,1 here, as before these commands took any graph
    return _load_graph("K3,3,1" if arg.strip().lower() == "k331" else arg)


def _at_least(low: int):
    """An argparse ``type`` for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


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
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                   help="search nodes per family member (default 10^7)")

    p = sub.add_parser("minor", help="search for H as a minor of G")
    p.add_argument("g", help="host graph (builtin or file)")
    p.add_argument("h", help="target graph (builtin or file)")
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)

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
    p.add_argument("graph", help="builtin name or edge-list file (k331 also names K3,3,1)")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("experiment", help="omega over many random embeddings")
    p.add_argument("graph", help="builtin name or edge-list file (k331 also names K3,3,1)")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--trials", type=_at_least(1), default=None,
                   help="scale down criteria 1-3 and 8 (criterion 7 always runs in full)")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    verdict = is_intrinsically_linked(g, budget=args.budget)
    _emit({"command": "classify", "graph": _summary(g), "budget": args.budget,
           **verdict.to_json_dict()})
    print(f"{args.graph}: {verdict.verdict}"
          + (f" (witness {verdict.witness_member})" if verdict.witness_member else ""),
          file=sys.stderr)
    return 0


def _cmd_minor(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    doc = {"command": "minor", "g": _summary(g), "h": _summary(h), "budget": args.budget}
    try:
        model = has_minor(g, h, budget=args.budget)
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
        "input": _summary(g),
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
        try:
            Path(args.output).write_text(_dumps(doc) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
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
    except OSError as exc:
        raise UsageError(f"cannot read {args.embedding}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise UsageError(f"embedding file is not valid JSON: {exc}")
    emb = embedding_from_json_dict(doc)
    direction = _parse_direction(args.direction) if args.direction else None
    report = omega_graph(emb, direction=direction, seed=args.seed)
    _emit({"command": "omega", **report.to_json_dict()})
    return 0


def _cmd_reroute_check(args) -> int:
    g = _load_experiment_graph(args.graph)
    report = edge_swap_check(g, trials=args.trials, seed=args.seed)
    _emit({"command": "reroute-check", **report.to_json_dict()})
    print(f"{args.graph}: {report.preserved}/{report.trials} reroutes preserved omega, "
          f"{report.pair_identities_checked} pair identities checked",
          file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_experiment(args) -> int:
    g = _load_experiment_graph(args.graph)
    report = conway_gordon_experiment(g, trials=args.trials, seed=args.seed)
    _emit({"command": "experiment", **report.to_json_dict()})
    print(f"{args.graph}: omega=1 in {report.omega_counts.get(1, 0)}/{report.trials} trials",
          file=sys.stderr)
    return 0


def _cmd_acceptance(args) -> int:
    results = run_acceptance(trials=args.trials, seed=args.seed)
    passed = all(r.passed for r in results)
    # wall-clock times go to stderr only, keeping stdout reproducible
    _emit({"command": "acceptance", "seed": args.seed, "trials_override": args.trials,
           "criteria": [r.to_json_dict() for r in results], "pass": passed})
    for r in results:
        print(f"criterion {r.number}: {'PASS' if r.passed else 'FAIL'} "
              f"({r.elapsed:.1f}s)  {r.name}", file=sys.stderr)
    return 0 if passed else 1


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
    except (GraphError, CircuitCapExceeded, NonRegularProjection,
            RetryLimitExceeded, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
