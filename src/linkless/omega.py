"""The mod-2 linking invariant of an embedded graph.

omega(G) sums lk(J, K) mod 2 over all unordered pairs of vertex-disjoint
circuits of the embedding.  Each report is computed from one regular
projection and revalidated against a second, independent one; any
disagreement would mean a bug in the exact kernel, so it raises instead
of being smoothed over.  A nonzero total certifies the embedding is
linked; a zero total is inconclusive.

Each projection is computed once and carries its edge-pair crossing
matrix.  The lk table, its parities and its check against the second
projection come from one pass over the pairs (``projection.link_tables``);
the pair list comes from the bitset listing in ``circuits``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from .circuits import Circuit, disjoint_circuit_pairs
from .embedding import RetryLimitExceeded, SpatialEmbedding
from .geometry import Point3, cross3, format_point, is_zero3
from .projection import (
    NonRegularProjection,
    ProjectedDiagram,
    crossing_matrix,
    link_tables,
    project,
    strand_crossings,
)

DEFAULT_DIRECTION: Point3 = (0, 0, 1)
DIRECTION_ATTEMPTS = 64

T = TypeVar("T")


def direction_stream(seed: int, start: Point3 = DEFAULT_DIRECTION) -> Iterator[Point3]:
    """Deterministic stream of candidate projection directions."""
    yield start
    rng = random.Random(seed)
    while True:
        d = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(-999, 999))
        if d != (0, 0, 0):
            yield d


def _first_regular(attempt: Callable[[Point3], T], seed: int, failure: str,
                   avoid: Point3 | None = None) -> T:
    """``attempt(d)`` for the first of DIRECTION_ATTEMPTS seeded directions d
    where it does not raise NonRegularProjection.  Directions parallel to
    ``avoid`` give the same picture, so they are skipped and not counted."""
    directions = (d for d in direction_stream(seed)
                  if avoid is None or not is_zero3(cross3(d, avoid)))
    for d in islice(directions, DIRECTION_ATTEMPTS):
        try:
            return attempt(d)
        except NonRegularProjection:
            continue
    raise RetryLimitExceeded(f"{failure} in {DIRECTION_ATTEMPTS} attempts")


def regular_projection(
    emb: SpatialEmbedding,
    seed: int = 0,
    avoid: Point3 | None = None,
) -> ProjectedDiagram:
    """Project along the first regular direction from the seeded stream."""
    return _first_regular(lambda d: project(emb, d), seed,
                          "no regular projection direction found", avoid)


@dataclass(frozen=True)
class PairEntry:
    j: Circuit
    k: Circuit
    lk: int
    omega: int

    def to_json_dict(self) -> dict:
        return {
            "j": list(self.j.vertex_seq),
            "k": list(self.k.vertex_seq),
            "lk": self.lk,
            "omega": self.omega,
        }


@dataclass(frozen=True)
class OmegaReport:
    graph_name: str
    direction: Point3
    check_direction: Point3
    pairs: tuple[PairEntry, ...]
    total: int

    @property
    def odd_pair_count(self) -> int:
        return sum(1 for p in self.pairs if p.omega == 1)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "direction": format_point(self.direction),
            "check_direction": format_point(self.check_direction),
            "pairs": [p.to_json_dict() for p in self.pairs],
            "pair_count": len(self.pairs),
            "omega": self.total,
            "interpretation": "linked" if self.total else "omega=0 (inconclusive)",
        }


def omega_graph(
    emb: SpatialEmbedding,
    direction: Point3 | None = None,
    seed: int = 0,
) -> OmegaReport:
    """Per-pair lk/omega table and the mod-2 total for an embedding."""
    pairs = disjoint_circuit_pairs(emb.graph)
    return _omega_with_pairs(emb, pairs, direction=direction, seed=seed)


def _omega_with_pairs(
    emb: SpatialEmbedding,
    pairs: Sequence[tuple[Circuit, Circuit]],
    direction: Point3 | None = None,
    seed: int = 0,
) -> OmegaReport:
    if direction is not None:
        diag = project(emb, direction)  # non-regular directions raise
    else:
        diag = regular_projection(emb, seed=seed)
    check = regular_projection(emb, seed=seed + 1, avoid=diag.direction)

    entries = []
    total = 0
    table, check_table = link_tables([diag, check], pairs)
    for (j, k), (lk, om), (lk2, _) in zip(pairs, table, check_table):
        if om != lk % 2:
            raise AssertionError("omega parity disagrees with lk; kernel bug")
        if lk2 != lk:
            raise AssertionError(
                f"lk differs between projections ({lk} vs {lk2}); kernel bug")
        entries.append(PairEntry(j, k, lk, om))
        total ^= om
    name = emb.graph.name or f"graph<n={emb.graph.n},m={emb.graph.m}>"
    return OmegaReport(name, diag.direction, check.direction, tuple(entries), total)


def loop_pair_link(
    loop_a: Sequence[Point3],
    loop_b: Sequence[Point3],
    seed: int = 0,
) -> tuple[int, int]:
    """(lk, omega) for two disjoint closed polylines, retrying directions:
    the signed sum and the parity of the crossings where loop A passes over
    loop B."""
    crossings = _first_regular(
        lambda d: strand_crossings([(0, loop_a, True), (1, loop_b, True)], d),
        seed, "no regular projection for the loop pair")
    lk, count = crossing_matrix(crossings).get(0, {}).get(1, (0, 0))
    return lk, count & 1
