"""Shared builders and independent brute-force oracles.

The oracles below deliberately avoid the library's own code paths: adjacency
is recomputed from coordinates, connectivity runs on an explicit edge list
built by a double loop, linear convexity walks every lattice point between
same-line pairs, and 2-connectivity enumerates vertex-disjoint path pairs.
Library results are checked against these, never against themselves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter

import pytest

from supergrid import (
    Point,
    SupergridGraph,
    from_points,
    is_linear_convex,
    is_locally_connected,
    is_two_connected,
)
from supergrid.bitboard import mask_to_graph


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


def disc(radius: float, seed: int) -> SupergridGraph:
    """Lattice points within ``radius`` of a seeded centre in the unit cell at the origin.

    A digitised convex set meets every line in a run, so discs are linearly
    convex; from a radius of about 2 on they are also 2-connected.
    """
    rng = random.Random(seed)
    cx, cy = rng.random(), rng.random()
    span = range(-int(radius) - 1, int(radius) + 2)
    return from_points(
        Point(x, y) for y in span for x in span if (x - cx) ** 2 + (y - cy) ** 2 <= radius**2
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


@dataclass
class BoxSweep:
    elapsed: float
    linear_convex_masks: list[int] = field(default_factory=list)
    two_connected_masks: set[int] = field(default_factory=set)
    strict_masks: list[int] = field(default_factory=list)
    local_connectivity_violations: list[int] = field(default_factory=list)


@pytest.fixture(scope="session")
def box_sweep() -> BoxSweep:
    """The Point predicates over every 4x4 mask, shared by the acceptance and engine tests."""
    start = perf_counter()
    sweep = BoxSweep(elapsed=0.0)
    for mask in range(1 << 16):
        g = mask_to_graph(mask, 4)
        lc = is_linear_convex(g)
        tc = is_two_connected(g)
        if lc:
            sweep.linear_convex_masks.append(mask)
        if tc:
            sweep.two_connected_masks.add(mask)
        if lc and tc:
            sweep.strict_masks.append(mask)
            if not is_locally_connected(g):
                sweep.local_connectivity_violations.append(mask)
    sweep.elapsed = perf_counter() - start
    return sweep
