"""Monte Carlo harnesses over random spatial embeddings of any graph.

Two experiments at desk scale: sampling random embeddings of a graph and
tabulating omega (1 every time on a Petersen-family member), and
rerouting single edges while checking that omega is preserved, including
the per-pair bookkeeping identity

    omega(J', K) = omega(J, K) + omega(D, K)  (mod 2)

where J' is the circuit J with edge e replaced by the new arc e', and D
is the closed loop e + e'.  The identity follows from the bilinearity of
lk, so it holds on every graph and a violation means a kernel bug.
Summed over the pairs through e, omega changes by the sum of omega(D, K),
which is even on the family; an odd sum on another graph is reported as
``even-cover`` and ``omega-changed``.  Trials use per-trial seeds derived
as seed XOR index, so results do not depend on execution order.

Trials read their counts straight off the checked lk list of
``omega.checked_links``; no omega report is built.  A reroute trial makes
two crossing passes, the main and the check pass, each over the embedding
and the new arc in one direction, and one table call over both, through
the moved edge's ``omega.RerouteTable``.  Its lk list holds three slices:
the graph's pairs before the reroute, the pairs through the edge after it
(at the table's ``positions`` among the first), and the loop pairs (D, K).
The diagrams must agree pair by pair, so the identity checks how the table
reads the old edge and the new arc against the loop D.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .embedding import random_detour, random_embedding
from .geometry import format_point
from .multigraph import GraphError, MultiGraph
from .omega import checked_links, graph_pairs, reroute_table
from .projection import embedding_layout


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
    graph: MultiGraph,
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """omega over independent random embeddings of a simple graph."""
    index = graph_pairs(graph)
    omega_counts: Counter[int] = Counter()
    odd_counts: Counter[int] = Counter()
    for t in range(trials):
        trial_seed = seed ^ t
        layout = embedding_layout(random_embedding(graph, trial_seed))
        odd = sum(lk & 1 for lk in checked_links(layout, index, trial_seed)[2])
        omega_counts[odd & 1] += 1
        odd_counts[odd] += 1
    return ExperimentReport(
        graph.name or "graph", trials, seed, dict(omega_counts), dict(odd_counts))


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


def edge_swap_check(
    graph: MultiGraph,
    trials: int = 200,
    seed: int = 0,
) -> RerouteReport:
    """Check that random single-edge reroutes leave omega unchanged.

    Each trial replaces one edge path by a two-segment detour through a
    random midpoint and checks both the omega total and the per-pair
    identity against omega(D, K) for the loop D = old edge + new arc.
    The even-cover check asks sum_i omega(K_i, D) = 0 mod 2 over the pairs
    (J_i, K_i) whose J_i uses the edge, which holds on the family.

    Every trial embeds the graph afresh (a graph without edges raises
    GraphError).  The detour is `random_detour`'s, so a trial that finds no
    valid midpoint within its retry limit raises RetryLimitExceeded.  A
    trial makes two full crossing passes, the main and the check pass, and
    reads the lk of the pairs before and after the reroute and lk(D, K)
    off both in one `checked_links` call.
    """
    if not graph.edges:
        raise GraphError("reroute check needs a graph with at least one edge")
    index = graph_pairs(graph)
    tables: dict = {}  # the RerouteTable of each moved edge, built on its first trial

    violations: list[RerouteViolation] = []
    preserved = 0
    identities = 0
    covers = 0
    retries = 0

    for t in range(trials):
        trial_seed = seed ^ t
        emb = random_embedding(graph, trial_seed)
        rng = random.Random(f"reroute:{seed}:{t}")
        e = graph.edges[rng.randrange(graph.m)]
        midpoint, emb2, rejected = random_detour(emb, e.id, rng)
        retries += rejected

        table = tables.get(e.id) or tables.setdefault(e.id, reroute_table(index, e.id))
        links = checked_links(embedding_layout(emb, (e.id, emb2.edge_paths[e.id])),
                              table.index, trial_seed)[2]
        through = len(table.positions)
        n_graph = len(links) - 2 * through
        moved_links, loop_links = links[n_graph:n_graph + through], links[n_graph + through:]
        before = sum(links[:n_graph]) & 1
        after = (before + sum(moved_links) - sum(links[at] for at in table.positions)) & 1

        def violate(kind: str, detail: str) -> None:
            violations.append(RerouteViolation(t, kind, detail, (e.u, e.v), {
                "vertices": {str(v): format_point(p)
                             for v, p in sorted(emb.vertex_points.items())},
                "midpoint": format_point(midpoint),
            }))

        if before == after:
            preserved += 1
        else:
            violate("omega-changed",
                    f"omega went {before} -> {after} rerouting edge {e.id}")

        cover_parity = 0
        for at, lk_after, lk_dk in zip(table.positions, moved_links, loop_links):
            om_dk = lk_dk % 2
            cover_parity ^= om_dk
            change = (lk_after & 1) - (links[at] & 1)
            if change % 2 != om_dk:
                violate("pair-identity",
                        f"omega(J',K)-omega(J,K)={change} but omega(D,K)={om_dk}")
        identities += through
        covers += 1
        if cover_parity != 0:
            violate("even-cover", "sum of omega(K_i, D) over complementary circuits is odd")

    return RerouteReport(
        graph.name or "graph", trials, seed, preserved,
        identities, covers, retries, tuple(violations))
