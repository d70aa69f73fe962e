"""Integer-lattice points and supergrid graphs with implicit 8-neighborhood.

A supergrid graph is a finite set of lattice points; two points are adjacent
exactly when they differ by at most 1 in each coordinate (king moves).  Edges
are never materialized: every adjacency query goes through point arithmetic
and set membership, which keeps graphs cheap to build, copy and transform.

The y axis grows downward ("up" is y-1), matching the lattice-text and SVG
orientation used by :mod:`supergrid.lattice_io`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import VertexNotInGraph

# Coordinates are plain machine integers; behaviour is only guaranteed for
# |coordinate| <= 2**30 (documented contract limit, not enforced per call).
MAX_COORD = 1 << 30


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Point:
    """Lattice point; equality is coordinate equality, order is (y, x) lex."""

    x: int
    y: int

    def key(self) -> tuple[int, int]:
        """Sort key realizing the total (y, then x) order."""
        return (self.y, self.x)

    def __lt__(self, other: "Point") -> bool:
        return (self.y, self.x) < (other.y, other.x)

    def translate(self, dx: int, dy: int) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def __repr__(self) -> str:
        return f"({self.x},{self.y})"


class Direction(Enum):
    """The eight neighbor offsets, in the fixed scan order UL..DR."""

    UL = (-1, -1)
    U = (0, -1)
    UR = (1, -1)
    L = (-1, 0)
    R = (1, 0)
    DL = (-1, 1)
    D = (0, 1)
    DR = (1, 1)

    @property
    def dx(self) -> int:
        return self.value[0]

    @property
    def dy(self) -> int:
        return self.value[1]

    def opposite(self) -> "Direction":
        return Direction((-self.dx, -self.dy))


# Offset tuples in Direction order; used by hot loops to avoid enum overhead.
OFFSETS: tuple[tuple[int, int], ...] = tuple(d.value for d in Direction)

# Offsets (a, b, c): in a linearly convex graph, a vertex's two opposite corner
# neighbours a and b force the side neighbour c between them.
FORCED_VERTEX_PATTERNS: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(Direction[name].value for name in pattern.split())
    for pattern in ("UL UR U", "UL DL L", "UR DR R", "DL DR D")
)


def ring_cuts(ul: int, u: int, ur: int, l: int, r: int, dl: int, d: int, dr: int) -> int:
    """Nonzero where the neighbourhood N(v) with these members (Direction order) is disconnected.

    The side cells of N(v) form a 4-cycle and each corner touches only its two
    flanking sides, so N(v) is disconnected iff some present corner has neither
    flank and N(v) has another cell, or its present sides are exactly one
    opposite pair.  Works bitwise: on 0/1 bits for one vertex, or on masks
    holding one bit per vertex; every ``~`` is ANDed with a non-negative term.
    """
    lone = ul & ~(u | l) | ur & ~(u | r) | dl & ~(d | l) | dr & ~(d | r)
    another = u | l | r | d | (ul | dr) & (ur | dl) | ul & dr | ur & dl
    return lone & another | (u & d | l & r) & ~((u | d) & (l | r))


def adjacent(u: Point, v: Point) -> bool:
    """True iff u and v are distinct and differ by at most 1 in x and in y."""
    if u.x == v.x and u.y == v.y:
        return False
    return abs(u.x - v.x) <= 1 and abs(u.y - v.y) <= 1


class SupergridGraph:
    """Immutable finite vertex set with implicit 8-neighborhood adjacency."""

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[Point]):
        self._vertices = frozenset(vertices)

    @property
    def vertices(self) -> frozenset[Point]:
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, p: Point) -> bool:
        return p in self._vertices

    def __iter__(self) -> Iterator[Point]:
        return iter(self.sorted_vertices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupergridGraph):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"SupergridGraph({list(self.sorted_vertices())!r})"

    def sorted_vertices(self) -> tuple[Point, ...]:
        """Vertices in (y, x) lexicographic order, sorted per call (see :func:`vertex_ids`)."""
        return tuple(sorted(self._vertices, key=Point.key))

    def bounding_box(self) -> tuple[int, int, int, int] | None:
        """(min_x, min_y, max_x, max_y), or None for the empty graph."""
        if not self._vertices:
            return None
        xs = [p.x for p in self._vertices]
        ys = [p.y for p in self._vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def degree(self, v: Point) -> int:
        return len(neighbors(self, v))

    def translate(self, dx: int, dy: int) -> "SupergridGraph":
        return SupergridGraph(Point(p.x + dx, p.y + dy) for p in self._vertices)


def from_points(points: Iterable[Point]) -> SupergridGraph:
    """Build a graph from points, deduplicating; empty input is allowed."""
    return SupergridGraph(points)


def neighbors(g: SupergridGraph, v: Point) -> list[Point]:
    """Neighbors of v present in g, in Direction scan order UL..DR."""
    verts = g.vertices
    if v not in verts:
        raise VertexNotInGraph(f"{v} is not a vertex of the graph")
    return [w for dx, dy in OFFSETS if (w := Point(v.x + dx, v.y + dy)) in verts]


VertexTable = tuple[tuple[Point, ...], list[list[int]]]


def vertex_ids(g: SupergridGraph) -> VertexTable:
    """Vertex ids in (y, x) order: the points and their neighbour ids.

    A point's key is ``(y - y0) * W + (x - x0)`` over g's bounding box plus a
    one-cell margin, so keys sort in (y, x) order and key k's neighbours are
    k plus eight fixed offsets; a dict, not an array, so sparse graphs cost O(V).
    ``nbrs[i]`` lists the ids of :func:`neighbors` of ``points[i]``, in Direction
    order.  Not cached on the graph: a solve builds one and shares it.
    """
    box = g.bounding_box()
    if box is None:
        return (), []
    x0, y0, x1, _ = box
    width = x1 - x0 + 3
    by_key = {(p.y - y0 + 1) * width + p.x - x0 + 1: p for p in g.vertices}
    keys = sorted(by_key)
    ident = dict(zip(keys, range(len(keys))))
    get, offsets = ident.get, [dy * width + dx for dx, dy in OFFSETS]
    nbrs = [[j for d in offsets if (j := get(k + d)) is not None] for k in keys]
    return tuple(map(by_key.__getitem__, keys)), nbrs


def induced_neighborhood(g: SupergridGraph, v: Point) -> SupergridGraph:
    """Subgraph induced by the neighbors of v (adjacency stays implicit)."""
    return SupergridGraph(neighbors(g, v))
