"""Monte Carlo harnesses over random spatial embeddings.

Two experiments at desk scale: sampling random embeddings of K6 or
K3,3,1 and tabulating omega (expected to be 1 every time), and rerouting
single edges while checking that omega is preserved, including the
per-pair bookkeeping identity

    omega(J', K) = omega(J, K) + omega(D, K)  (mod 2)

where J' is the circuit J with edge e replaced by the new arc e', and D
is the closed loop e + e'.  Trials use per-trial seeds derived as
seed XOR index, so results do not depend on execution order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache

from .canonical import canonical_form
from .circuits import disjoint_circuit_pairs
from .embedding import (
    COORDINATE_BOUND,
    RETRY_LIMIT,
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    _check_paths_disjoint,
    random_embedding,
    reroute_edge,
)
from .geometry import format_point
from .multigraph import GraphError, MultiGraph, complete_graph, k331_graph
from .omega import _omega_with_pairs, loop_pair_link

def resolve_experiment_graph(graph: str | MultiGraph) -> MultiGraph:
    if isinstance(graph, MultiGraph):
        return graph
    key = graph.strip().lower().replace(",", "").replace("_", "")
    if key == "k6":
        return complete_graph(6)
    if key in ("k331", "k3 3 1"):
        return k331_graph()
    raise GraphError(f"unknown experiment graph {graph!r} (use k6 or k331)")


@dataclass(frozen=True)
class ExperimentReport:
    graph_name: str
    trials: int
    seed: int
    omega_counts: dict[int, int]
    odd_pair_counts: dict[int, int]

    @property
    def all_omega_one(self) -> bool:
        return self.omega_counts.get(1, 0) == self.trials

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "trials": self.trials,
            "seed": self.seed,
            "omega_counts": {str(k): v for k, v in sorted(self.omega_counts.items())},
            "odd_pair_counts": {str(k): v for k, v in sorted(self.odd_pair_counts.items())},
            "all_omega_one": self.all_omega_one,
        }


def conway_gordon_experiment(
    graph: str | MultiGraph,
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """omega over independent random embeddings of a simple graph."""
    g = resolve_experiment_graph(graph)
    pairs = disjoint_circuit_pairs(g)
    omega_counts: Counter[int] = Counter()
    odd_counts: Counter[int] = Counter()
    for t in range(trials):
        trial_seed = seed ^ t
        emb = random_embedding(g, trial_seed)
        report = _omega_with_pairs(emb, pairs, seed=trial_seed)
        omega_counts[report.total] += 1
        odd_counts[report.odd_pair_count] += 1
    return ExperimentReport(
        g.name or "graph", trials, seed, dict(omega_counts), dict(odd_counts))


@dataclass(frozen=True)
class RerouteViolation:
    trial: int
    kind: str  # "omega-changed" | "pair-identity" | "even-cover"
    detail: str
    edge: tuple[int, int]
    coordinates: dict

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "kind": self.kind,
            "detail": self.detail,
            "edge": list(self.edge),
            "coordinates": self.coordinates,
        }


@dataclass(frozen=True)
class RerouteReport:
    graph_name: str
    trials: int
    seed: int
    preserved: int
    pair_identities_checked: int
    even_cover_checked: int
    reroute_retries: int
    violations: tuple[RerouteViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations and self.preserved == self.trials

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "trials": self.trials,
            "seed": self.seed,
            "preserved": self.preserved,
            "pair_identities_checked": self.pair_identities_checked,
            "even_cover_checked": self.even_cover_checked,
            "reroute_retries": self.reroute_retries,
            "violations": [v.to_json_dict() for v in self.violations],
            "pass": self.passed,
        }


@cache
def _swap_graph_keys() -> frozenset:
    """Canonical forms of K6 and K3,3,1, computed once per process."""
    return frozenset({canonical_form(complete_graph(6)), canonical_form(k331_graph())})


def edge_swap_check(
    graph: str | MultiGraph | SpatialEmbedding,
    trials: int = 200,
    seed: int = 0,
) -> RerouteReport:
    """Random single-edge reroutes must never change omega.

    Each trial replaces one straight edge by a two-segment detour through
    a random midpoint and checks both the omega total and the per-pair
    identity against omega(D, K) for the loop D = old edge + new arc.
    The even-cover identity (the complementary circuits cover each edge an
    even number of times) shows up as sum_i omega(K_i, D) = 0 mod 2.

    Given a graph (or name), every trial embeds it afresh; given an
    embedding, all trials reroute that fixed embedding.  A trial that
    finds no valid midpoint in RETRY_LIMIT draws raises RetryLimitExceeded.
    """
    base: SpatialEmbedding | None = None
    if isinstance(graph, SpatialEmbedding):
        base = graph
        g = graph.graph
    else:
        g = resolve_experiment_graph(graph)
    if canonical_form(g) not in _swap_graph_keys():
        raise GraphError("edge swap check is defined for K6 and K3,3,1 only")
    pairs = disjoint_circuit_pairs(g)
    edges = sorted(g.edges, key=lambda e: e.id)

    violations: list[RerouteViolation] = []
    preserved = 0
    identities = 0
    covers = 0
    retries = 0

    for t in range(trials):
        trial_seed = seed ^ t
        emb = base if base is not None else random_embedding(g, trial_seed)
        rng = random.Random(f"reroute:{seed}:{t}")
        e = edges[rng.randrange(len(edges))]
        pu = emb.vertex_points[e.u]
        pv = emb.vertex_points[e.v]
        old_path = emb.edge_paths[e.id]

        emb2 = None
        for _ in range(RETRY_LIMIT):
            midpoint = (
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
            )
            try:
                # the new arc must also meet the old path only at the edge
                # endpoints, otherwise the loop D below is not embedded
                _check_paths_disjoint(e, old_path, e, (pu, midpoint, pv), emb.vertex_points)
                emb2 = reroute_edge(emb, e.id, (pu, midpoint, pv))
                break
            except EmbeddingError:
                retries += 1
        if emb2 is None:
            raise RetryLimitExceeded(
                f"no valid reroute of edge {e.id} in trial {t} "
                f"after {RETRY_LIMIT} midpoints")

        before = _omega_with_pairs(emb, pairs, seed=trial_seed)
        after = _omega_with_pairs(emb2, pairs, seed=trial_seed)

        def coords() -> dict:
            return {
                "vertices": {str(v): format_point(p)
                             for v, p in sorted(emb.vertex_points.items())},
                "midpoint": format_point(midpoint),
            }

        if before.total == after.total:
            preserved += 1
        else:
            violations.append(RerouteViolation(
                t, "omega-changed",
                f"omega went {before.total} -> {after.total} rerouting edge {e.id}",
                (e.u, e.v), coords()))

        # D traversed as: old edge path u->v, then the new arc back v->u
        d_loop = list(old_path) + [midpoint]
        cover_parity = 0
        for entry_before, entry_after in zip(before.pairs, after.pairs):
            j, k = entry_before.j, entry_before.k
            if e.id in j.edge_ids:
                complementary = k
            elif e.id in k.edge_ids:
                complementary = j
            else:
                if entry_before.omega != entry_after.omega:
                    violations.append(RerouteViolation(
                        t, "pair-identity",
                        f"pair {j.vertex_seq}/{k.vertex_seq} avoids edge {e.id} "
                        "but its omega changed",
                        (e.u, e.v), coords()))
                continue
            k_loop = emb.circuit_loop(complementary)
            _, om_dk = loop_pair_link(d_loop, k_loop, seed=trial_seed)
            cover_parity ^= om_dk
            identities += 1
            if (entry_after.omega - entry_before.omega) % 2 != om_dk:
                violations.append(RerouteViolation(
                    t, "pair-identity",
                    f"omega(J',K)-omega(J,K)={entry_after.omega - entry_before.omega} "
                    f"but omega(D,K)={om_dk}",
                    (e.u, e.v), coords()))
        covers += 1
        if cover_parity != 0:
            violations.append(RerouteViolation(
                t, "even-cover",
                "sum of omega(K_i, D) over complementary circuits is odd",
                (e.u, e.v), coords()))

    return RerouteReport(
        g.name or "graph", trials, seed, preserved,
        identities, covers, retries, tuple(violations))
