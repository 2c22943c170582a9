"""The mod-2 linking invariant of an embedded graph.

omega(G) sums lk(J, K) mod 2 over all unordered pairs of vertex-disjoint
circuits of the embedding.  Each report is computed from one regular
projection and revalidated against a second, independent one; any
disagreement would mean a bug in the exact kernel, so it raises instead
of being smoothed over.  A nonzero total certifies the embedding is
linked; a zero total is inconclusive.

Each diagram is ``projection.project`` of a strand layout along one
direction.  ``checked_links`` draws a layout's main diagram and the check
diagram that avoids it, reads the lk of every pair of a pair index off
both in one checked pass over their crossing records
(``projection.link_tables``) and returns the one lk list; every caller
reads its omega values and totals off that list.  Only `omega_graph`
builds an `OmegaReport`, which keeps the pair index's pairs and that
list as they are and writes each pair's row from the two.
``graph_pairs`` indexes a graph's pairs, listed by ``circuits``.  A
report lays out the embedding (``projection.embedding_layout``), a
reroute trial the embedding and the new path, so a reroute direction
counts as regular only when the pass over both is.  The lk list of a reroute trial, read through the
``RerouteTable`` built once per moved edge, holds in order the graph's
pairs before the reroute, the pairs through the edge after it, and the
pairs (D, K) of the loop D of the old and new paths.

``regular_projection`` over ``direction_stream`` is the package's only
direction search.  Its ``avoid`` lists directions already drawn: the
check projection avoids the first one, and acceptance criterion 8 avoids
every direction it has drawn for the same embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .circuits import Circuit, disjoint_circuit_pairs
from .embedding import EmbeddingError, RetryLimitExceeded, SpatialEmbedding
from .geometry import (
    Point3,
    check_direction,
    cross3,
    format_point,
    is_zero3,
    segments3_intersect,
)
from .multigraph import MultiGraph
from .projection import (
    NonRegularProjection,
    PairIndex,
    ProjectedDiagram,
    StrandLayout,
    edge_endpoints,
    embedding_layout,
    link_tables,
    new_path_key,
    pair_index,
    project,
    strand_layout,
)

DEFAULT_DIRECTION: Point3 = (0, 0, 1)
DIRECTION_ATTEMPTS = 64


def direction_stream(seed: int) -> Iterator[Point3]:
    """Deterministic stream of candidate projection directions."""
    yield DEFAULT_DIRECTION
    rng = random.Random(seed)
    while True:
        d = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(-999, 999))
        if d != (0, 0, 0):
            yield d


def regular_projection(layout: StrandLayout, seed: int = 0,
                       avoid: Sequence[Point3] = ()) -> ProjectedDiagram:
    """`project` the layout along the first of DIRECTION_ATTEMPTS seeded
    directions where it is regular; RetryLimitExceeded if there is none.
    It is the package's only direction search.  A direction parallel to
    one in ``avoid`` gives a picture already drawn, so it is skipped and
    not counted.  An entry of ``avoid`` that is not three ints or
    Fractions, or a zero vector, parallel to every direction, raises
    GeometryError (`check_direction`)."""
    for a in avoid:
        check_direction(a)
    directions = (d for d in direction_stream(seed)
                  if not any(is_zero3(cross3(d, a)) for a in avoid))
    for d in islice(directions, DIRECTION_ATTEMPTS):
        try:
            return project(layout, d)
        except NonRegularProjection:
            continue
    raise RetryLimitExceeded(
        f"no regular projection direction found in {DIRECTION_ATTEMPTS} attempts")


@dataclass(frozen=True)
class OmegaReport:
    """An embedding's omega table as `checked_links` read it: ``pairs``
    are the graph's disjoint circuit pairs (J, K), in its pair index's
    order, and ``links`` their lk values.  A pair's omega is its lk mod 2,
    and the total is the odd-pair count mod 2; neither is stored."""

    graph_name: str
    direction: Point3
    check_direction: Point3
    pairs: tuple[tuple[Circuit, Circuit], ...]
    links: list[int]

    @property
    def odd_pair_count(self) -> int:
        return sum(lk & 1 for lk in self.links)

    @property
    def total(self) -> int:
        return self.odd_pair_count & 1

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "direction": format_point(self.direction),
            "check_direction": format_point(self.check_direction),
            "pairs": [{"j": list(j.vertex_seq), "k": list(k.vertex_seq), "lk": lk, "omega": lk & 1}
                      for (j, k), lk in zip(self.pairs, self.links)],
            "pair_count": len(self.pairs),
            "omega": self.total,
            "interpretation": "linked" if self.total else "omega=0 (inconclusive)",
        }


def omega_graph(
    emb: SpatialEmbedding,
    direction: Point3 | None = None,
    seed: int = 0,
) -> OmegaReport:
    """The pairs, their checked lk values and the mod-2 total of an embedding."""
    index = graph_pairs(emb.graph)
    diag, check, links = checked_links(embedding_layout(emb), index, seed, direction)
    name = emb.graph.name or f"graph<n={emb.graph.n},m={emb.graph.m}>"
    return OmegaReport(name, diag.direction, check.direction, index.pairs, links)


def graph_pairs(graph: MultiGraph) -> PairIndex:
    """The vertex-disjoint circuit pairs of a graph, indexed for `link_tables`."""
    return pair_index(edge_endpoints(graph), disjoint_circuit_pairs(graph))


def checked_links(layout: StrandLayout, index: PairIndex, seed: int,
                  direction: Point3 | None = None,
                  ) -> tuple[ProjectedDiagram, ProjectedDiagram, list[int]]:
    """(main, check, lk of every indexed pair) for one layout.  The main
    diagram is drawn along ``direction`` if given (non-regular raises),
    else by `regular_projection`; the check diagram avoids its direction.
    Both are read in one `link_tables` call, and a pair whose lk differs
    between them raises AssertionError (a kernel bug)."""
    diag = (project(layout, direction) if direction is not None
            else regular_projection(layout, seed))
    check = regular_projection(layout, seed + 1, [diag.direction])
    table, check_table = link_tables([diag, check], index)
    for lk, lk2 in zip(table, check_table):
        if lk2 != lk:
            raise AssertionError(
                f"lk differs between projections ({lk} vs {lk2}); kernel bug")
    return diag, check, table


@dataclass(frozen=True)
class RerouteTable:
    """A graph's pair index prepared once for reroutes of one edge.

    ``index`` runs over the graph's edges and the new path's key
    (`new_path_key`), and holds, in order, the three slices of a trial's
    lk list: the graph's pairs as they are; the pairs through the edge,
    which sit at ``positions`` among them, each with its circuit through
    the edge moved onto the new path; and for each of those one pair
    (D, K) of the loop D, out along the edge and back along the new
    path, and the pair's circuit K opposite the edge."""

    index: PairIndex
    positions: tuple[int, ...]


def reroute_table(index: PairIndex, eid: int) -> RerouteTable:
    """The `RerouteTable` of edge ``eid`` of the graph ``index`` indexes."""
    arc = new_path_key(index.endpoints)
    ends = index.endpoints[eid]
    loop = Circuit(ends, (eid, arc))
    copies: dict[int, Circuit] = {}  # one moved copy per circuit, so it keeps one slot
    positions, through, loops = [], [], []
    for at, (j, k) in enumerate(index.pairs):
        if eid in j.edge_ids or eid in k.edge_ids:
            c, opposite = (j, k) if eid in j.edge_ids else (k, j)
            copy = copies.setdefault(id(c), Circuit(
                c.vertex_seq, tuple(arc if e == eid else e for e in c.edge_ids)))
            positions.append(at)
            through.append((copy, k) if c is j else (j, copy))
            loops.append((loop, opposite))
    pairs = pair_index({**index.endpoints, arc: ends}, [*index.pairs, *through, *loops])
    return RerouteTable(pairs, tuple(positions))


def loop_pair_link(
    loop_a: Sequence[Point3],
    loop_b: Sequence[Point3],
    seed: int = 0,
) -> tuple[int, int]:
    """(lk, lk mod 2) for two disjoint closed polylines, retrying directions.
    Each loop is drawn as a one-edge circuit on a vertex of its own, and lk
    is read through `checked_links`.  Loops that meet raise EmbeddingError
    before any projection: the layout would merge a shared point into one
    point id, which the pass takes for a common end, and a point on the
    other loop's segment is non-regular along every direction."""
    closed = [[*loop_a, loop_a[0]], [*loop_b, loop_b[0]]]
    layout = strand_layout(list(enumerate(closed)), {0: (0, 0), 1: (1, 1)})
    segs_a, segs_b = (list(zip(loop, loop[1:])) for loop in closed)
    if any(segments3_intersect(*s, *t) for s in segs_a for t in segs_b):
        raise EmbeddingError("the loops meet")
    index = pair_index(layout.ends, [(Circuit((0,), (0,)), Circuit((1,), (1,)))])
    (lk,) = checked_links(layout, index, seed)[2]
    return lk, lk & 1
