"""The mod-2 linking invariant of an embedded graph.

omega(G) sums lk(J, K) mod 2 over all unordered pairs of vertex-disjoint
circuits of the embedding.  Each report is computed from one regular
projection and revalidated against a second, independent one; any
disagreement would mean a bug in the exact kernel, so it raises instead
of being smoothed over.  A nonzero total certifies the embedding is
linked; a zero total is inconclusive.

Each diagram is ``projection.project`` of a strand layout along one
direction.  Its lk table comes from one checked pass over its crossing
records (``projection.link_tables``), and each omega and the total are
read off it.  ``graph_pairs`` indexes a graph's pairs, listed by
``circuits``.  A report builds one layout of the embedding
(``projection.embedding_layout``), a reroute trial one of the embedding
and the new path, so a reroute direction counts as regular only when the
pass over both is; ``_diagrams`` draws the main and the check diagram of
either.  The reports before and after a reroute (``_reroute_reports``)
and lk(D, K) of the loop D of the old and new paths are read off those
two diagrams in one table call, through the one index of a
``RerouteTable`` built once per moved edge, and every lk is checked
between the diagrams.

``regular_projection`` over ``direction_stream`` is the package's only
direction search.  Its ``avoid`` lists directions already drawn: the
check projection avoids the first one, and acceptance criterion 8 avoids
every direction it has drawn for the same embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, Sequence

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
    GeometryError."""
    if any(is_zero3(check_direction(a)) for a in avoid):
        raise GeometryError("projection direction must be nonzero")
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
    diag, check = _diagrams(embedding_layout(emb), direction, seed)
    return _report(emb, index.pairs, _checked_links(index, diag, check), diag, check)


def _diagrams(layout: StrandLayout, direction: Point3 | None,
              seed: int) -> tuple[ProjectedDiagram, ProjectedDiagram]:
    # the main projection (along ``direction`` if given, where non-regular
    # raises) and the check projection, which avoids the main direction
    diag = (project(layout, direction) if direction is not None
            else regular_projection(layout, seed))
    return diag, regular_projection(layout, seed + 1, [diag.direction])


def _checked_links(index: PairIndex, diag: ProjectedDiagram,
                   check: ProjectedDiagram) -> list[int]:
    # lk of every indexed pair, which the two diagrams must give alike
    table, check_table = link_tables([diag, check], index)
    for lk, lk2 in zip(table, check_table):
        if lk2 != lk:
            raise AssertionError(
                f"lk differs between projections ({lk} vs {lk2}); kernel bug")
    return table


def _report(emb: SpatialEmbedding, pairs: Sequence[tuple[Circuit, Circuit]],
            links: Sequence[int], diag: ProjectedDiagram,
            check: ProjectedDiagram) -> OmegaReport:
    entries = tuple(PairEntry(j, k, lk) for (j, k), lk in zip(pairs, links))
    name = emb.graph.name or f"graph<n={emb.graph.n},m={emb.graph.m}>"
    return OmegaReport(name, diag.direction, check.direction, entries)


@dataclass(frozen=True)
class RerouteTable:
    """A graph's pair index prepared once for reroutes of edge ``eid``.

    ``index`` runs over the graph's edges and the new path's key
    (`new_path_key`), and holds, in order: the graph's pairs as they
    are; the pairs through the edge, which sit at ``positions`` among
    them, each with its circuit through the edge moved onto the new path;
    and for each of those one pair (D, K) of the loop D, out along the
    edge and back along the new path, and the pair's circuit K opposite
    the edge."""

    eid: int
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
    return RerouteTable(eid, pairs, tuple(positions))


def _reroute_reports(emb: SpatialEmbedding, moved: SpatialEmbedding, table: RerouteTable,
                     seed: int) -> tuple[OmegaReport, OmegaReport, list[int]]:
    """The omega reports of ``emb`` and of ``moved``, which differs from it
    only in the path of edge ``table.eid``, and lk(D, K) of the table's
    loop pairs, read off the two `_diagrams` of one layout of ``emb`` and
    the new path in one `link_tables` call.  The report of ``moved`` takes
    a new entry only for the pairs through the edge and shares every
    other entry with ``emb``'s."""
    layout = embedding_layout(emb, (table.eid, moved.edge_paths[table.eid]))
    main, check = _diagrams(layout, None, seed)
    links = _checked_links(table.index, main, check)
    through = len(table.positions)
    graph = len(links) - 2 * through
    before = _report(emb, table.index.pairs[:graph], links[:graph], main, check)
    entries = list(before.pairs)
    for at, lk in zip(table.positions, links[graph:graph + through]):
        entries[at] = PairEntry(entries[at].j, entries[at].k, lk)
    return before, replace(before, pairs=tuple(entries)), links[graph + through:]


def loop_pair_link(
    loop_a: Sequence[Point3],
    loop_b: Sequence[Point3],
    seed: int = 0,
) -> tuple[int, int]:
    """(lk, lk mod 2) for two disjoint closed polylines, retrying directions.
    Each loop is drawn as a one-edge circuit on a vertex of its own, and lk
    is read off the checked lk table."""
    strands = [(0, [*loop_a, loop_a[0]]), (1, [*loop_b, loop_b[0]])]  # each loop closed
    diagram = regular_projection(strand_layout(strands, {0: (0, 0), 1: (1, 1)}), seed)
    lk = linking_number(diagram, Circuit((0,), (0,)), Circuit((1,), (1,)))
    return lk, lk & 1
