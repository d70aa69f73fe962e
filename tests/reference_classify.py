"""Slow reference: the ``Point`` connectivity predicates, kept verbatim.

Connectivity was a BFS and 2-connectivity a lowpoint DFS, both walking
``Point`` objects through ``grid.neighbors`` and hashing every one they
met; local connectivity ran that BFS on each vertex's induced neighbourhood.
The library now runs one lowpoint DFS over the integer neighbour lists of
``grid.vertex_ids`` and applies the ring rule ``grid.ring_cuts`` to each
vertex's eight neighbour memberships; the differential tests check that it
answers exactly as these do, and that the solver's precheck fails the same
predicate first.

``line_gaps`` sorted every line's bucket; the library's takes the points in
(y, x) order instead, so that its buckets arrive ordered.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Iterator

from supergrid.classify import (
    ClassificationReport,
    LineDirection,
    LineKey,
    ViolationWitness,
    linear_convexity_violation,
    point_on_line,
)
from supergrid.grid import Point, SupergridGraph, induced_neighborhood, neighbors


def is_connected(g: SupergridGraph) -> bool:
    """True iff g has at most one vertex or one traversal reaches all of them."""
    n = len(g)
    if n <= 1:
        return True
    start = g.sorted_vertices()[0]
    seen = {start}
    queue = deque([start])
    while queue:
        for w in neighbors(g, queue.popleft()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def _lowpoint_dfs(g: SupergridGraph) -> tuple[bool, bool]:
    """(reaches every vertex, meets a cut vertex) for one DFS from the smallest vertex.

    Iterative lowpoint DFS (Hopcroft and Tarjan, "Algorithm 447: efficient
    algorithms for graph manipulation", CACM 1973): a non-root vertex p is a
    cut vertex iff some DFS child v has low[v] >= index[p], and the root is
    one iff it has more than one DFS child.
    """
    if not len(g):
        return True, False
    root = g.sorted_vertices()[0]
    index = {root: 0}
    low = {root: 0}
    parent: dict[Point, Point | None] = {root: None}
    root_children = 0
    cut = False
    # Explicit stack of (vertex, neighbor iterator) frames.
    stack = [(root, iter(neighbors(g, root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in index:
                parent[w] = v
                index[w] = low[w] = len(index)
                root_children += v == root
                stack.append((w, iter(neighbors(g, w))))
                break
            if w != parent[v]:
                low[v] = min(low[v], index[w])
        else:
            stack.pop()
            p = parent[v]
            if p is not None:
                low[p] = min(low[p], low[v])
                cut = cut or (p != root and low[v] >= index[p])
    return len(index) == len(g), cut or root_children > 1


def is_two_connected(g: SupergridGraph) -> bool:
    """True iff |V| >= 3, g is connected, and g has no articulation vertex."""
    connected, cut = _lowpoint_dfs(g)
    return len(g) >= 3 and connected and not cut


def local_connectivity_violation(g: SupergridGraph) -> ViolationWitness | None:
    """First vertex (lex order) whose induced neighborhood is disconnected."""
    for v in g.sorted_vertices():
        if not is_connected(induced_neighborhood(g, v)):
            return ViolationWitness(predicate="locally_connected", points=(v,))
    return None


def classify(g: SupergridGraph) -> ClassificationReport:
    """Evaluate all four predicates; keep the first failing witness."""
    convexity = linear_convexity_violation(g)
    locality = local_connectivity_violation(g)
    connected, cut = _lowpoint_dfs(g)
    return ClassificationReport(
        vertex_count=len(g),
        connected=connected,
        two_connected=len(g) >= 3 and connected and not cut,
        linear_convex=convexity is None,
        locally_connected=locality is None,
        violation_witness=convexity if convexity is not None else locality,
    )


def failed_precondition(two_connected: bool, linear_convex: bool, strict: bool) -> str | None:
    """The solver's precheck order: 2-connectivity, then (strict) linear convexity."""
    if not two_connected:
        return "two_connected"
    if strict and not linear_convex:
        return "linear_convex"
    return None


def line_gaps(points: Iterable[Point]) -> Iterator[tuple[LineKey, int, int]]:
    """Every line gap (line, a, b): points at parameters a and b, none between, b > a + 1.

    Points are bucketed per direction by line index (y, x, y - x, y + x) at
    their :func:`point_on_line` parameter (x, but y on vertical lines); a
    sorted bucket that skips a parameter has a gap.  Gaps come in a fixed
    order (direction, line index, then parameter), so the first one is
    deterministic.
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
            params = sorted(bucket[index])
            for a, b in zip(params, params[1:]):
                if b - a > 1:
                    yield LineKey(direction, index), a, b


def linear_convex_closure(points: Iterable[Point]) -> tuple[SupergridGraph, frozenset[Point]]:
    """``enumeration.linear_convex_closure`` on the reference :func:`line_gaps`."""
    current: set[Point] = set(points)
    added: set[Point] = set()
    while fresh := {
        point_on_line(key, t) for key, a, b in line_gaps(current) for t in range(a + 1, b)
    }:
        current |= fresh
        added |= fresh
    return SupergridGraph(current), frozenset(added)
