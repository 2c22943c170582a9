"""The acceptance suite: one callable per criterion, plus a driver.

Each criterion returns a CriterionResult with a machine-checkable pass
flag and enough detail to audit the run.  All randomness is seeded, so a
given configuration always reproduces the same report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from .canonical import canonical_form
from .experiments import conway_gordon_experiment, edge_swap_check
from .minors import has_minor, is_intrinsically_linked, minor_minimality_report
from .moves import family_closed_under_delta_y, petersen_family
from .multigraph import (
    MultiGraph,
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    parse_graph,
)
from .projection import linking_number
from .circuits import disjoint_circuit_pairs
from .embedding import random_embedding


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float

    def to_json_dict(self, include_elapsed: bool = False) -> dict:
        doc = {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "details": self.details,
        }
        if include_elapsed:
            doc["elapsed_seconds"] = round(self.elapsed, 3)
        return doc


def _timed(number: int, name: str, fn) -> CriterionResult:
    start = time.perf_counter()
    passed, details = fn()
    return CriterionResult(number, name, passed, details, time.perf_counter() - start)


def criterion_1_k6_experiment(trials: int = 1000, seed: int = 0) -> CriterionResult:
    def run():
        report = conway_gordon_experiment("k6", trials=trials, seed=seed)
        return report.all_omega_one, report.to_json_dict()

    return _timed(1, f"omega(K6)=1 over {trials} random embeddings", run)


def criterion_2_k331_experiment(trials: int = 500, seed: int = 0) -> CriterionResult:
    def run():
        report = conway_gordon_experiment("k331", trials=trials, seed=seed)
        return report.all_omega_one, report.to_json_dict()

    return _timed(2, f"omega(K3,3,1)=1 over {trials} random embeddings", run)


def criterion_3_edge_reroutes(trials: int = 200, seed: int = 0) -> CriterionResult:
    def run():
        details = {}
        ok = True
        for name in ("k6", "k331"):
            report = edge_swap_check(name, trials=trials, seed=seed)
            details[name] = report.to_json_dict()
            ok = ok and report.passed
        return ok, details

    return _timed(3, f"omega invariant under {trials} edge reroutes", run)


def criterion_4_petersen_family() -> CriterionResult:
    def run():
        family = petersen_family()
        members = list(family)
        pairwise_distinct = len(family.canonical_keys) == len(members) == 7
        edge_counts_ok = all(m.graph.m == 15 for m in members)
        names = {m.name for m in members}
        has_k6 = "K6" in names
        has_k331 = "K3,3,1" in names
        has_petersen = any(
            m.graph.n == 10 and m.is_triangle_free for m in members)
        closed = family_closed_under_delta_y(family)
        ok = pairwise_distinct and edge_counts_ok and has_k6 and has_k331 \
            and has_petersen and closed
        return ok, {
            "members": [
                {"name": m.name, "vertices": m.graph.n, "edges": m.graph.m}
                for m in members
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


def _brute_iso_key(g: MultiGraph) -> tuple:
    """Isomorphism key by brute force over all permutations; isolated
    vertices are ignored so the key matches the minor notion.

    The key is (active vertex count, smallest relabelled edge list).
    """
    return _brute_iso_key_of_pairs(tuple(sorted(e.pair() for e in g.simplified().edges)))


@cache
def _brute_iso_key_of_pairs(pairs: tuple[tuple[int, int], ...]) -> tuple:
    # Remembered for the life of the process: the oracle meets the same
    # labelled graphs again within one search and across searches.
    verts = sorted({v for pair in pairs for v in pair})
    best = None
    for perm in permutations(range(len(verts))):
        pos = dict(zip(verts, perm))
        key = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in pairs))
        if best is None or key < best:
            best = key
    return (len(verts), best)


def _delete_contract_oracle(g: MultiGraph, h: MultiGraph) -> bool:
    """Exhaustive minor check by applying all delete/contract sequences.

    Independent of the branch-set engine: plain search over intermediate
    graphs, deduplicated by the brute-force key above, pruning graphs with
    fewer edges or active vertices than h.
    """
    target = _brute_iso_key(h)
    h_active, h_edges = target[0], len(target[1])
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
        if len(key[1]) < h_edges or key[0] < h_active:
            continue
        for e in cur.edges:
            stack.append(cur.delete_edge(e.id))
            if not e.is_loop:
                stack.append(cur.contract_edge(e.id, simplify=True))
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
    """One representative per isomorphism class of simple graphs on <= 6 vertices."""
    reps = []
    seen = set()
    for n in range(0, 7):
        verts = list(range(1, n + 1))
        all_pairs = list(combinations(verts, 2))
        for bits in range(1 << len(all_pairs)):
            pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
            g = graph_from_pairs(pairs, vertices=verts)
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
            reps.append(g)
    return reps


def criterion_8_projection_independence(
    embeddings: int = 50, directions: int = 10, seed: int = 0
) -> CriterionResult:
    from .omega import direction_stream
    from .projection import NonRegularProjection, project

    def distinct_regular_diagrams(emb, stream_seed, count):
        seen = set()
        out = []
        tried = 0
        for d in direction_stream(stream_seed):
            tried += 1
            if tried > 50 * count:
                raise RuntimeError("could not collect enough regular directions")
            if d in seen:
                continue
            try:
                diag = project(emb, d)
            except NonRegularProjection:
                continue
            seen.add(d)
            out.append(diag)
            if len(out) == count:
                return out

    def run():
        g = complete_graph(6)
        pairs = disjoint_circuit_pairs(g)
        mismatches = []
        for i in range(embeddings):
            emb = random_embedding(g, seed ^ i)
            diagrams = distinct_regular_diagrams(emb, 1000 + i, directions)
            tables = [
                [linking_number(diag, j, k) for j, k in pairs]
                for diag in diagrams
            ]
            if any(t != tables[0] for t in tables[1:]):
                mismatches.append({"embedding_seed": seed ^ i, "tables": tables})
        return not mismatches, {
            "embeddings": embeddings,
            "directions": directions,
            "mismatches": mismatches,
        }

    return _timed(8, "per-pair lk agrees across projection directions", run)


def run_acceptance(trials: int | None = None, seed: int = 0) -> dict:
    """Run all criteria; `trials` scales down the Monte Carlo criteria."""
    results = [
        criterion_1_k6_experiment(trials=trials or 1000, seed=seed),
        criterion_2_k331_experiment(trials=trials or 500, seed=seed),
        criterion_3_edge_reroutes(trials=trials or 200, seed=seed),
        criterion_4_petersen_family(),
        criterion_5_classifier_table(),
        criterion_6_minor_minimality(),
        criterion_7_oracle_equivalence(),
        criterion_8_projection_independence(
            embeddings=min(50, trials) if trials else 50, seed=seed),
    ]
    return {
        "schema_version": 1,
        "command": "acceptance",
        "seed": seed,
        "trials_override": trials,
        "criteria": [r.to_json_dict() for r in results],
        "pass": all(r.passed for r in results),
        # wall-clock timings go to stderr only, keeping stdout reproducible
        "_timings": {r.number: r.elapsed for r in results},
    }
