"""The mod-2 linking invariant of an embedded graph.

omega(G) sums lk(J, K) mod 2 over all unordered pairs of vertex-disjoint
circuits of the embedding.  Each report is computed from one regular
projection and revalidated against a second, independent one; any
disagreement would mean a bug in the exact kernel, so it raises instead
of being smoothed over.  A nonzero total certifies the embedding is
linked; a zero total is inconclusive.

Each projection is computed once and carries its edge-pair crossing
matrix.  Its lk table comes from one checked pass over the pairs
(``projection.link_tables``), and each omega and the total are read off
it.  ``graph_pairs`` indexes a graph's pairs, listed by ``circuits``.  A
reroute is drawn by one crossing pass per direction over the embedding's
strands and the new path (``projection.project_reroute``), and a
direction counts as regular only when that whole pass is.  The reports
before and after it (``_reroute_reports``) read the main and the check
diagram through the two views of a ``RerouteTable``, built once per
moved edge, so lk(D, K) of the loop D of the old and new paths is read
off both diagrams and checked between them, as every other lk is.  A
report or a reroute trial builds one strand layout of what it draws
(``projection.embedding_layout``) and runs all its passes over it: the
main and the check pass and each non-regular direction passed by.

Every direction search in the package is ``_first_regular`` over
``direction_stream``.  Its ``avoid`` lists directions already drawn: the
check projection avoids the first one, and acceptance criterion 8 avoids
every direction it has drawn for the same embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from .circuits import Circuit, disjoint_circuit_pairs
from .embedding import RetryLimitExceeded, SpatialEmbedding
from .geometry import GeometryError, Point3, check_direction, cross3, format_point, is_zero3
from .multigraph import MultiGraph
from .projection import (
    NonRegularProjection,
    PairIndex,
    ProjectedDiagram,
    StrandLayout,
    edge_endpoints,
    embedding_layout,
    link_tables,
    linking_number,
    pair_index,
    project,
    project_reroute,
    strand_crossings,
)

DEFAULT_DIRECTION: Point3 = (0, 0, 1)
DIRECTION_ATTEMPTS = 64

T = TypeVar("T")


def direction_stream(seed: int) -> Iterator[Point3]:
    """Deterministic stream of candidate projection directions."""
    yield DEFAULT_DIRECTION
    rng = random.Random(seed)
    while True:
        d = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(-999, 999))
        if d != (0, 0, 0):
            yield d


def _first_regular(attempt: Callable[[Point3], T], seed: int, failure: str,
                   avoid: Sequence[Point3] = ()) -> T:
    """``attempt(d)`` for the first of DIRECTION_ATTEMPTS seeded directions d
    where it does not raise NonRegularProjection.  A direction parallel to
    one in ``avoid`` gives a picture already drawn, so it is skipped and not
    counted.  An entry of ``avoid`` that is not three ints or Fractions, or a
    zero vector, parallel to every direction, raises GeometryError."""
    if any(is_zero3(check_direction(a)) for a in avoid):
        raise GeometryError("projection direction must be nonzero")
    directions = (d for d in direction_stream(seed)
                  if not any(is_zero3(cross3(d, a)) for a in avoid))
    for d in islice(directions, DIRECTION_ATTEMPTS):
        try:
            return attempt(d)
        except NonRegularProjection:
            continue
    raise RetryLimitExceeded(f"{failure} in {DIRECTION_ATTEMPTS} attempts")


def regular_projection(
    emb: SpatialEmbedding,
    seed: int = 0,
    avoid: Sequence[Point3] = (),
    layout: StrandLayout | None = None,
) -> ProjectedDiagram:
    """Project along the first regular direction from the seeded stream that
    is parallel to none of the directions in ``avoid``, each attempt a pass
    over ``layout`` (`embedding_layout(emb)`, built here if not given)."""
    layout = layout or embedding_layout(emb)
    return _first_regular(lambda d: project(emb, d, layout), seed,
                          "no regular projection direction found", avoid)


@dataclass(frozen=True)
class PairEntry:
    j: Circuit
    k: Circuit
    lk: int

    @property
    def omega(self) -> int:
        return self.lk & 1

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

    @property
    def odd_pair_count(self) -> int:
        return sum(p.omega for p in self.pairs)

    @property
    def total(self) -> int:
        return self.odd_pair_count & 1

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
    return _omega_with_pairs(emb, graph_pairs(emb.graph), direction=direction, seed=seed)


def graph_pairs(graph: MultiGraph) -> PairIndex:
    """The vertex-disjoint circuit pairs of a graph, indexed for `link_tables`."""
    return pair_index(edge_endpoints(graph), disjoint_circuit_pairs(graph))


def _omega_with_pairs(
    emb: SpatialEmbedding,
    index: PairIndex,
    direction: Point3 | None = None,
    seed: int = 0,
) -> OmegaReport:
    return _report(emb, index, *_diagrams(emb, direction, seed))


def _diagrams(emb: SpatialEmbedding, direction: Point3 | None,
              seed: int) -> tuple[ProjectedDiagram, ProjectedDiagram]:
    # the main projection (along ``direction`` if given, where non-regular
    # raises) and the check projection, which avoids the main direction
    layout = embedding_layout(emb)
    diag = (project(emb, direction, layout) if direction is not None
            else regular_projection(emb, seed, (), layout))
    return diag, regular_projection(emb, seed + 1, [diag.direction], layout)


def _report(emb: SpatialEmbedding, index: PairIndex, diag: ProjectedDiagram,
            check: ProjectedDiagram) -> OmegaReport:
    entries = []
    table, check_table = link_tables([diag, check], index)
    for (j, k), lk, lk2 in zip(index.pairs, table, check_table):
        if lk2 != lk:
            raise AssertionError(
                f"lk differs between projections ({lk} vs {lk2}); kernel bug")
        entries.append(PairEntry(j, k, lk))
    name = emb.graph.name or f"graph<n={emb.graph.n},m={emb.graph.m}>"
    return OmegaReport(name, diag.direction, check.direction, tuple(entries))


@dataclass(frozen=True)
class RerouteTable:
    """A graph's pair index prepared once for reroutes of edge ``eid``:
    ``before`` reads a `project_reroute` diagram as the embedding, and
    ``after`` as the moved one for the pairs through the edge only, which
    sit at ``positions`` among the pairs, followed by one pair (D, K) for
    each of them: the loop D, out along the edge and back along the new
    path, and the pair's circuit K opposite the edge."""

    eid: int
    before: PairIndex
    after: PairIndex
    positions: tuple[int, ...]


def reroute_table(index: PairIndex, eid: int) -> RerouteTable:
    """The `RerouteTable` of edge ``eid`` of the graph ``index`` indexes."""
    arc = max(index.endpoints) + 1  # the new path's key
    ends = index.endpoints[eid]
    before = replace(index, endpoints={**index.endpoints, arc: ends})
    positions = tuple(at for at, (j, k) in enumerate(index.pairs)
                      if eid in j.edge_ids or eid in k.edge_ids)
    pairs = [index.pairs[at] for at in positions]
    slots = [index.slots[at] for at in positions]
    loop = Circuit(ends, (eid, arc))  # D, in a slot after every circuit of the graph
    for (j, k), (at_j, at_k) in list(zip(pairs, slots)):
        pairs.append((loop, k) if eid in j.edge_ids else (loop, j))
        slots.append((len(index.signs), at_k if eid in j.edge_ids else at_j))
    after = replace(before, pairs=tuple(pairs), slots=tuple(slots),
                    signs=(*(tuple((arc if e == eid else e, sign) for e, sign in signs)
                             for signs in index.signs), ((eid, 1), (arc, -1))))
    return RerouteTable(eid, before, after, positions)


def _reroute_reports(emb: SpatialEmbedding, moved: SpatialEmbedding, table: RerouteTable,
                     seed: int) -> tuple[OmegaReport, OmegaReport, list[int]]:
    """The omega reports of ``emb`` and of ``moved``, which differs from it
    only in the path of edge ``table.eid``, and lk(D, K) of the loop pairs
    of the table's ``after`` view, from two `project_reroute` passes: the main
    pass along the first direction from ``seed`` where it is regular, the
    check pass along the first from ``seed + 1`` where it is regular and
    that is not parallel to the main one.  The report of ``moved``
    recomputes only the pairs through the edge, on both diagrams, and
    shares every other entry with ``emb``'s."""
    layout = embedding_layout(emb, moved.edge_paths[table.eid])
    attempt = partial(project_reroute, emb, moved, table.eid, layout=layout)
    failure = "no regular projection direction found"
    main = _first_regular(attempt, seed, failure)
    check = _first_regular(attempt, seed + 1, failure, [main.direction])
    before = _report(emb, table.before, main, check)
    after = _report(moved, table.after, main, check).pairs
    entries = list(before.pairs)
    for at, entry in zip(table.positions, after):
        entries[at] = entry
    loop_links = [entry.lk for entry in after[len(table.positions):]]
    return before, replace(before, pairs=tuple(entries)), loop_links


def loop_pair_link(
    loop_a: Sequence[Point3],
    loop_b: Sequence[Point3],
    seed: int = 0,
) -> tuple[int, int]:
    """(lk, lk mod 2) for two disjoint closed polylines, retrying directions.
    Each loop is drawn as a one-edge circuit on a vertex of its own, and lk
    is read off the checked lk table."""
    strands = [(0, [*loop_a, loop_a[0]]), (1, [*loop_b, loop_b[0]])]  # each loop closed
    diagram = _first_regular(
        lambda d: ProjectedDiagram(d, {0: (0, 0), 1: (1, 1)}, strand_crossings(strands, d)),
        seed, "no regular projection for the loop pair")
    lk = linking_number(diagram, Circuit((0,), (0,)), Circuit((1,), (1,)))
    return lk, lk & 1
