"""The acceptance suite: one callable per criterion, plus a driver.

Each criterion returns a CriterionResult with a machine-checkable pass
flag and enough detail to audit the run.  All randomness is seeded, so a
given configuration always reproduces the same report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .experiments import conway_gordon_experiment, edge_swap_check
from .minors import has_minor, is_intrinsically_linked, minor_minimality_report
from .moves import family_closed_under_delta_y, petersen_family, triangles
from .multigraph import (
    MultiGraph,
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
)
from .projection import link_tables
from .embedding import random_embedding
from .omega import graph_pairs, regular_projection


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "details": self.details,
        }


def _timed(number: int, name: str, fn) -> CriterionResult:
    start = time.perf_counter()
    passed, details = fn()
    return CriterionResult(number, name, passed, details, time.perf_counter() - start)


def criterion_1_k6_experiment(trials: int = 1000, seed: int = 0) -> CriterionResult:
    def run():
        report = conway_gordon_experiment(complete_graph(6), trials=trials, seed=seed)
        return report.all_omega_one, report.to_json_dict()

    return _timed(1, f"omega(K6)=1 over {trials} random embeddings", run)


def criterion_2_k331_experiment(trials: int = 500, seed: int = 0) -> CriterionResult:
    def run():
        report = conway_gordon_experiment(k331_graph(), trials=trials, seed=seed)
        return report.all_omega_one, report.to_json_dict()

    return _timed(2, f"omega(K3,3,1)=1 over {trials} random embeddings", run)


def criterion_3_edge_reroutes(trials: int = 200, seed: int = 0) -> CriterionResult:
    def run():
        details = {}
        ok = True
        for name, g in (("k6", complete_graph(6)), ("k331", k331_graph())):
            report = edge_swap_check(g, trials=trials, seed=seed)
            details[name] = report.to_json_dict()
            ok = ok and report.passed
        return ok, details

    return _timed(3, f"omega invariant under {trials} edge reroutes", run)


def criterion_4_petersen_family() -> CriterionResult:
    def run():
        family = petersen_family()
        pairwise_distinct = len({m.canonical for m in family}) == len(family) == 7
        edge_counts_ok = all(m.graph.m == 15 for m in family)
        names = {m.name for m in family}
        has_k6 = "K6" in names
        has_k331 = "K3,3,1" in names
        has_petersen = any(m.graph.n == 10 and not triangles(m.graph) for m in family)
        closed = family_closed_under_delta_y(family)
        ok = pairwise_distinct and edge_counts_ok and has_k6 and has_k331 \
            and has_petersen and closed
        return ok, {
            "members": [
                {"name": m.name, "vertices": m.graph.n, "edges": m.graph.m}
                for m in family
            ],
            "pairwise_non_isomorphic": pairwise_distinct,
            "all_15_edges": edge_counts_ok,
            "contains": {"K6": has_k6, "K3,3,1": has_k331,
                         "10-vertex triangle-free": has_petersen},
            "closed_under_delta_y": closed,
        }

    return _timed(4, "Petersen family: 7 members, closed under Delta-Y", run)


CLASSIFIER_TABLE = {
    "K6": "linked",
    "K3,3,1": "linked",
    "petersen": "linked",
    "K7": "linked",
    "K4,4": "linked",
    "K5": "unlinked",
    "K3,3": "unlinked",
    "grid4x4": "unlinked",
}


def criterion_5_classifier_table() -> CriterionResult:
    def run():
        rows = {}
        ok = True
        for name, expected in CLASSIFIER_TABLE.items():
            verdict = is_intrinsically_linked(parse_graph(name))
            rows[name] = {
                "expected": expected,
                "verdict": verdict.verdict,
                "witness": verdict.witness_member,
            }
            ok = ok and verdict.verdict == expected
        return ok, {"table": rows}

    return _timed(5, "classifier verdict table", run)


def criterion_6_minor_minimality() -> CriterionResult:
    def run():
        details = {}
        ok = True
        for member in petersen_family():
            report = minor_minimality_report(member.graph)
            details[member.name] = {
                "minor_minimal": report.minor_minimal,
                "children": len(report.children),
            }
            ok = ok and report.minor_minimal is True
        return ok, details

    return _timed(6, "every family member is minor-minimal", run)


def _brute_iso_key(g: MultiGraph) -> tuple[int, int, int]:
    """Isomorphism key by brute force over all permutations; isolated
    vertices are ignored so the key matches the minor notion.

    The key is (active vertex count, edge count, smallest upper-triangle
    adjacency bitmask over all orderings of the active vertices).
    """
    return _brute_iso_key_of_pairs(tuple(sorted(e.pair() for e in g.simplified().edges)))


@cache
def _brute_iso_key_of_pairs(pairs: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    # Remembered for the life of the process: the oracle meets the same
    # labelled graphs again within one search and across searches.
    verts = sorted({v for pair in pairs for v in pair})
    k = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    bit = [[1 << min(i, j) * k + max(i, j) for j in range(k)] for i in range(k)]
    edges = [(index[u], index[v]) for u, v in pairs]
    best = min(sum(bit[perm[u]][perm[v]] for u, v in edges)
               for perm in permutations(range(k)))
    return (k, len(edges), best)


def _delete_contract_oracle(g: MultiGraph, h: MultiGraph) -> bool:
    """Exhaustive minor check by applying all delete/contract sequences.

    Independent of the branch-set engine: plain search over intermediate
    graphs, deduplicated by the brute-force key above, pruning graphs with
    fewer edges or active vertices than h.
    """
    target = _brute_iso_key(h)
    h_active, h_edges, _ = target
    seen = set()
    stack = [g.simplified()]
    while stack:
        cur = stack.pop()
        key = _brute_iso_key(cur)
        if key in seen:
            continue
        seen.add(key)
        if key == target:
            return True
        if key[1] < h_edges or key[0] < h_active:
            continue
        for e in cur.edges:
            stack.append(cur.delete_edge(e.id))
            if not e.is_loop:
                stack.append(cur.contract_edge(e.id))
    return False


def criterion_7_oracle_equivalence() -> CriterionResult:
    def run():
        targets = {
            "K4": complete_graph(4),
            "K5": complete_graph(5),
            "K3,3": complete_bipartite(3, 3),
            "C4": graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)], name="C4"),
        }
        reps = _graphs_up_to_6_vertices()
        disagreements = []
        checked = 0
        for g in reps:
            for tname, h in targets.items():
                verdict = has_minor(g, h) is not None
                oracle = _delete_contract_oracle(g, h)
                checked += 1
                if verdict != oracle:
                    disagreements.append({
                        "graph_edges": sorted(e.pair() for e in g.edges),
                        "target": tname,
                        "engine": verdict,
                        "oracle": oracle,
                    })
        return not disagreements, {
            "isomorphism_classes": len(reps),
            "checks": checked,
            "disagreements": disagreements,
        }

    return _timed(7, "minor search agrees with delete/contract oracle (<=6 vertices)", run)


def _graphs_up_to_6_vertices() -> list[MultiGraph]:
    """One representative per isomorphism class of simple graphs on <= 6
    vertices: each class on n - 1 vertices gets vertex n with every
    neighbourhood, deduplicated by the brute-force key (complete for fixed n)."""
    reps, classes = [graph_from_pairs(())], [()]
    for n in range(1, 7):
        grown = {}
        for pairs in classes:
            for bits in range(1 << (n - 1)):
                new = pairs + tuple((v, n) for v in range(1, n) if bits >> (v - 1) & 1)
                grown.setdefault(_brute_iso_key_of_pairs(tuple(sorted(new))), new)
        classes = list(grown.values())
        reps += (graph_from_pairs(p, vertices=range(1, n + 1)) for p in classes)
    return reps


def criterion_8_projection_independence(
    embeddings: int = 50, directions: int = 10, seed: int = 0
) -> CriterionResult:
    def run():
        g = complete_graph(6)
        index = graph_pairs(g)
        mismatches = []
        for i in range(embeddings):
            emb = random_embedding(g, seed ^ i)
            diagrams = []
            for _ in range(directions):
                diagrams.append(regular_projection(
                    emb, seed=1000 + i, avoid=[d.direction for d in diagrams]))
            tables = link_tables(diagrams, index)
            if any(t != tables[0] for t in tables[1:]):
                mismatches.append({"embedding_seed": seed ^ i, "tables": tables})
        return not mismatches, {
            "embeddings": embeddings,
            "directions": directions,
            "mismatches": mismatches,
        }

    return _timed(8, "per-pair lk agrees across projection directions", run)


def run_acceptance(trials: int | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run all criteria; `trials` (at least 1) scales down the Monte Carlo
    criteria, and None runs them at full scale."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    full = trials is None
    return [
        criterion_1_k6_experiment(trials=1000 if full else trials, seed=seed),
        criterion_2_k331_experiment(trials=500 if full else trials, seed=seed),
        criterion_3_edge_reroutes(trials=200 if full else trials, seed=seed),
        criterion_4_petersen_family(),
        criterion_5_classifier_table(),
        criterion_6_minor_minimality(),
        criterion_7_oracle_equivalence(),
        criterion_8_projection_independence(
            embeddings=50 if full else min(50, trials), seed=seed),
    ]
