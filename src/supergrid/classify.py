"""Structural predicates: linear convexity, connectivity, 2-connectivity,
local connectivity, and a combined per-graph report with witnesses.

Conventions for degenerate inputs (the underlying theory never evaluates
these, so they are library choices, stated here and tested):

* the empty graph is connected (vacuously) but not 2-connected;
* 2-connectivity additionally requires at least 3 vertices (the smallest
  cycle has 3), and is decided via the articulation-vertex characterization:
  one iterative lowpoint DFS over the integer neighbour lists of
  :func:`~supergrid.grid.vertex_ids` reports both whether it reached every
  vertex and whether it met a cut vertex; connectivity is the same DFS;
* empty and singleton induced neighborhoods count as connected, so vertices
  of degree 0 or 1 do not by themselves fail local connectivity, which is
  decided per vertex by the ring rule :func:`~supergrid.grid.ring_cuts`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .grid import OFFSETS, Point, SupergridGraph, ring_cuts, vertex_ids


class LineDirection(Enum):
    """The four edge directions of the infinite lattice."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"          # constant y - x, traced upper-left to lower-right
    ANTIDIAGONAL = "antidiagonal"  # constant y + x, traced lower-left to upper-right


@dataclass(frozen=True, slots=True)
class LineKey:
    """Identifies one lattice line: direction plus its integer index.

    The index is y for horizontal lines, x for vertical, y-x for diagonal and
    y+x for antidiagonal; two points share a line iff they share a LineKey.
    """

    direction: LineDirection
    index: int


def point_on_line(key: LineKey, parameter: int) -> Point:
    """The lattice point at the given parameter on the given line."""
    if key.direction is LineDirection.HORIZONTAL:
        return Point(parameter, key.index)
    if key.direction is LineDirection.VERTICAL:
        return Point(key.index, parameter)
    if key.direction is LineDirection.DIAGONAL:
        return Point(parameter, key.index + parameter)
    return Point(parameter, key.index - parameter)


@dataclass(frozen=True, slots=True)
class ViolationWitness:
    """Concrete evidence for a failed predicate.

    For linear convexity: ``points`` holds two same-line vertices, ``missing``
    the absent lattice point strictly between them, ``line`` the shared line.
    For local connectivity: ``points`` holds the single vertex whose induced
    neighborhood is disconnected.
    """

    predicate: str
    points: tuple[Point, ...]
    missing: Point | None = None
    line: LineKey | None = None


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    vertex_count: int
    connected: bool
    two_connected: bool
    linear_convex: bool
    locally_connected: bool
    violation_witness: ViolationWitness | None = None


def line_gaps(points: Iterable[Point]) -> Iterator[tuple[LineKey, int, int]]:
    """Every line gap (line, a, b): points at parameters a and b, none between, b > a + 1.

    Points come in (y, x) order and are bucketed per direction by line index
    (y, x, y - x, y + x) at their :func:`point_on_line` parameter (x, but y
    on vertical lines), so buckets arrive sorted (antidiagonals reversed); a
    bucket whose ends lie further apart than its length has a gap.  Gaps come
    in a fixed order (direction, line index, then parameter).
    """
    buckets = (defaultdict(list), defaultdict(list), defaultdict(list), defaultdict(list))
    horizontal, vertical, diagonal, antidiagonal = buckets
    for p in points:
        x, y = p.x, p.y
        horizontal[y].append(x)
        vertical[x].append(y)
        diagonal[y - x].append(x)
        antidiagonal[y + x].append(x)
    for direction, bucket in zip(LineDirection, buckets):
        for index in sorted(bucket):
            params = bucket[index]
            if abs(params[-1] - params[0]) >= len(params):
                if params[0] > params[-1]:
                    params = params[::-1]
                for a, b in zip(params, params[1:]):
                    if b - a > 1:
                        yield LineKey(direction, index), a, b


def linear_convexity_violation(g: SupergridGraph) -> ViolationWitness | None:
    """First line gap (see :func:`line_gaps`), or None if g is linearly convex."""
    for key, a, b in line_gaps(g.sorted_vertices()):
        return ViolationWitness(
            predicate="linear_convex",
            points=(point_on_line(key, a), point_on_line(key, b)),
            missing=point_on_line(key, a + 1),
            line=key,
        )
    return None


def is_linear_convex(g: SupergridGraph, points: Sequence[Point] | None = None) -> bool:
    """True iff every lattice line meets g in a run (``points``: g's built id table's)."""
    return next(line_gaps(g.sorted_vertices() if points is None else points), None) is None


def lowpoint_dfs(nbrs: Sequence[Sequence[int]]) -> tuple[bool, bool]:
    """(reaches every vertex, meets a cut vertex) for one DFS from id 0.

    ``nbrs`` is a neighbour-id table such as :func:`~supergrid.grid.vertex_ids`
    builds, so id 0 is the smallest vertex.  Iterative lowpoint DFS (Hopcroft
    and Tarjan, "Algorithm 447: efficient algorithms for graph manipulation",
    CACM 1973): a non-root vertex p is a cut vertex iff some DFS child v has
    low[v] >= index[p], and the root is one iff it has more than one DFS child.
    The tree edge back to p may count towards low[v]: it lowers low[v] at
    most to index[p], which leaves that test as it was.
    """
    n = len(nbrs)
    if not n:
        return True, False
    index, low = [-1] * n, [0] * n
    index[0] = 0
    reached = 1
    root_children = 0
    cut = False
    # Explicit stack of (vertex, neighbour iterator) frames.
    stack = [(0, iter(nbrs[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if index[w] < 0:
                index[w] = low[w] = reached
                reached += 1
                root_children += v == 0
                stack.append((w, iter(nbrs[w])))
                break
            if index[w] < low[v]:
                low[v] = index[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                cut = cut or (p != 0 and low[v] >= index[p])
    return reached == n, cut or root_children > 1


def is_connected(g: SupergridGraph) -> bool:
    """True iff g has at most one vertex or one traversal reaches all of them."""
    return lowpoint_dfs(vertex_ids(g)[1])[0]


def is_two_connected(g: SupergridGraph, nbrs: Sequence[Sequence[int]] | None = None) -> bool:
    """True iff |V| >= 3 and g is connected with no cut vertex (``nbrs``: g's built id table)."""
    connected, cut = lowpoint_dfs(vertex_ids(g)[1] if nbrs is None else nbrs)
    return len(g) >= 3 and connected and not cut


def local_connectivity_violation(g: SupergridGraph) -> ViolationWitness | None:
    """First vertex (lex order) whose induced neighborhood is disconnected.

    A vertex's eight neighbour memberships, in Direction order and as 0 or 1
    (``~`` on a bool is deprecated), go through the ring rule
    :func:`~supergrid.grid.ring_cuts`.
    """
    cells = dict.fromkeys(((p.x, p.y) for p in g.vertices), 1)
    for v in g.sorted_vertices():
        if ring_cuts(*[cells.get((v.x + dx, v.y + dy), 0) for dx, dy in OFFSETS]):
            return ViolationWitness(predicate="locally_connected", points=(v,))
    return None


def is_locally_connected(g: SupergridGraph) -> bool:
    """True iff the induced neighborhood of every vertex is connected."""
    return local_connectivity_violation(g) is None


def classify(g: SupergridGraph) -> ClassificationReport:
    """Evaluate all four predicates; keep the first failing witness.

    Witnesses exist only for linear convexity and local connectivity; when
    both fail, the linear-convexity witness wins.
    """
    convexity = linear_convexity_violation(g)
    locality = local_connectivity_violation(g)
    connected, cut = lowpoint_dfs(vertex_ids(g)[1])
    return ClassificationReport(
        vertex_count=len(g),
        connected=connected,
        two_connected=len(g) >= 3 and connected and not cut,
        linear_convex=convexity is None,
        locally_connected=locality is None,
        violation_witness=convexity if convexity is not None else locality,
    )
