"""Shared builders and independent brute-force oracles.

The oracles below deliberately avoid the library's own code paths: adjacency
is recomputed from coordinates, connectivity runs on an explicit edge list
built by a double loop, linear convexity walks every lattice point between
same-line pairs, and 2-connectivity enumerates vertex-disjoint path pairs.
Library results are checked against these, never against themselves.
"""

from __future__ import annotations

import itertools

import pytest

from supergrid import Point, SupergridGraph, from_points


def P(x: int, y: int) -> Point:
    return Point(x, y)


def pts(*pairs: tuple[int, int]) -> list[Point]:
    return [Point(x, y) for x, y in pairs]


def cell_point(i: int, width: int) -> Point:
    """The point of cell i of a row-major box mask."""
    return Point(i % width, i // width)


def block(width: int, height: int, dx: int = 0, dy: int = 0) -> SupergridGraph:
    """Full width x height rectangle of vertices, optionally translated."""
    return from_points(
        Point(x + dx, y + dy) for y in range(height) for x in range(width)
    )


# ---------------------------------------------------------------- oracles --


def oracle_adjacent(a: Point, b: Point) -> bool:
    return max(abs(a.x - b.x), abs(a.y - b.y)) == 1


def oracle_edge_list(points: list[Point]) -> list[tuple[Point, Point]]:
    return [
        (a, b)
        for a, b in itertools.combinations(points, 2)
        if oracle_adjacent(a, b)
    ]


def oracle_connected(points: list[Point]) -> bool:
    if len(points) <= 1:
        return True
    adj: dict[Point, set[Point]] = {p: set() for p in points}
    for a, b in oracle_edge_list(points):
        adj[a].add(b)
        adj[b].add(a)
    seen = {points[0]}
    stack = [points[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(points)


def oracle_linear_convex(points: list[Point]) -> bool:
    """Pair scan: every lattice point strictly between same-line members exists."""
    have = set(points)
    for a, b in itertools.combinations(points, 2):
        dx, dy = b.x - a.x, b.y - a.y
        if a.y == b.y:
            step = (1 if dx > 0 else -1, 0)
        elif a.x == b.x:
            step = (0, 1 if dy > 0 else -1)
        elif dx == dy:
            step = (1 if dx > 0 else -1, 1 if dy > 0 else -1)
        elif dx == -dy:
            step = (1 if dx > 0 else -1, -1 if dx > 0 else 1)
        else:
            continue
        cur = Point(a.x + step[0], a.y + step[1])
        while cur != b:
            if cur not in have:
                return False
            cur = Point(cur.x + step[0], cur.y + step[1])
    return True


def _simple_paths(adj: dict[Point, set[Point]], s: Point, t: Point):
    """Yield interiors (frozensets) of simple s-t paths, DFS order."""
    stack: list[tuple[Point, set[Point]]] = [(s, {s})]
    path = [s]

    def walk(v: Point, visited: set[Point]):
        for w in sorted(adj[v], key=lambda p: (p.y, p.x)):
            if w == t:
                yield frozenset(path[1:])
            elif w not in visited:
                path.append(w)
                visited.add(w)
                yield from walk(w, visited)
                visited.remove(w)
                path.pop()

    yield from walk(s, {s})


def oracle_two_connected(points: list[Point]) -> bool:
    """Vertex-disjoint path-pair enumeration between every vertex pair."""
    if len(points) < 3 or not oracle_connected(points):
        return False
    adj: dict[Point, set[Point]] = {p: set() for p in points}
    for a, b in oracle_edge_list(points):
        adj[a].add(b)
        adj[b].add(a)
    for s, t in itertools.combinations(points, 2):
        interiors: list[frozenset[Point]] = []
        found = False
        for interior in _simple_paths(adj, s, t):
            if any(interior.isdisjoint(prev) for prev in interiors):
                found = True
                break
            interiors.append(interior)
        if not found:
            return False
    return True


def oracle_locally_connected(points: list[Point]) -> bool:
    for v in points:
        hood = [p for p in points if oracle_adjacent(p, v)]
        if not oracle_connected(hood):
            return False
    return True


def oracle_cycle_valid(seq: list[Point], graph_points: set[Point]) -> bool:
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if any(v not in graph_points for v in seq):
        return False
    return all(
        oracle_adjacent(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
    )


# --------------------------------------------------------------- fixtures --


@pytest.fixture(scope="session")
def block2() -> SupergridGraph:
    return block(2, 2)


@pytest.fixture(scope="session")
def block3() -> SupergridGraph:
    return block(3, 3)
