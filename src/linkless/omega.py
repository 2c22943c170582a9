"""The mod-2 linking invariant of an embedded graph.

omega(G) sums lk(J, K) mod 2 over all unordered pairs of vertex-disjoint
circuits of the embedding.  Each report is computed from one regular
projection and revalidated against a second, independent one; any
disagreement would mean a bug in the exact kernel, so it raises instead
of being smoothed over.  A nonzero total certifies the embedding is
linked; a zero total is inconclusive.

Each projection is computed once and carries its edge-pair crossing
matrix, so every per-pair lk, its parity and its check against the
second projection are O(|J| |K|) table lookups; the pair list comes from
the bitset listing in ``circuits``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    disjoint_circuit_pairs,
)
from .embedding import RetryLimitExceeded, SpatialEmbedding
from .geometry import Point3, cross3, format_point, is_zero3
from .projection import (
    NonRegularProjection,
    ProjectedDiagram,
    linking_number,
    omega_pair,
    project,
    strand_crossings,
)

DEFAULT_DIRECTION: Point3 = (0, 0, 1)
DIRECTION_ATTEMPTS = 64


def direction_stream(seed: int, start: Point3 = DEFAULT_DIRECTION) -> Iterator[Point3]:
    """Deterministic stream of candidate projection directions."""
    yield start
    rng = random.Random(seed)
    while True:
        d = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(-999, 999))
        if d != (0, 0, 0):
            yield d


def regular_projection(
    emb: SpatialEmbedding,
    seed: int = 0,
    avoid: Point3 | None = None,
    attempts: int = DIRECTION_ATTEMPTS,
) -> ProjectedDiagram:
    """Project along the first regular direction from the seeded stream."""
    tried = 0
    for d in direction_stream(seed):
        if avoid is not None and is_zero3(cross3(d, avoid)):
            continue  # parallel directions give the same picture
        tried += 1
        if tried > attempts:
            break
        try:
            return project(emb, d)
        except NonRegularProjection:
            continue
    raise RetryLimitExceeded(
        f"no regular projection direction found in {attempts} attempts")


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
    circuit_cap: int = DEFAULT_CIRCUIT_CAP,
) -> OmegaReport:
    """Per-pair lk/omega table and the mod-2 total for an embedding."""
    pairs = disjoint_circuit_pairs(emb.graph, cap=circuit_cap)
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
    for j, k in pairs:
        lk = linking_number(diag, j, k)
        om = omega_pair(diag, j, k)
        if om != lk % 2:
            raise AssertionError("omega parity disagrees with lk; kernel bug")
        lk2 = linking_number(check, j, k)
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
    attempts: int = DIRECTION_ATTEMPTS,
) -> tuple[int, int]:
    """(lk, omega) for two disjoint closed polylines, retrying directions."""
    tried = 0
    for d in direction_stream(seed):
        tried += 1
        if tried > attempts:
            break
        try:
            crossings = strand_crossings([(0, loop_a, True), (1, loop_b, True)], d)
        except NonRegularProjection:
            continue
        lk = count = 0
        for c in crossings:
            if c.over_strand == 0 and c.under_strand == 1:
                lk += c.sign
                count += 1
        return lk, count & 1
    raise RetryLimitExceeded(
        f"no regular projection for the loop pair in {attempts} attempts")
