"""Seeded sewing regions: linearly convex, 2-connected pixel sets of a set size.

Four shape kinds stand in for the regions a sewing pattern is cut into:
digital discs, rectangles, octagons (a rectangle with its corners cut), and
the linear-convex closure of a random point cloud.  The seed picks each
shape's free parameters (centre offset, aspect ratio, corner cut, the cloud);
the size is then fitted so the vertex count lands as close to the target as
the shape allows, so every seed gives regions of about the same sizes and
the solver's Θ(V²) cost stays comparable across seeds.  Every region is
checked to be linearly convex and 2-connected before use.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

_CLOUD_POINTS = 40
_BISECTION_STEPS = 20
_MAX_DRAWS = 20

Cells = set[tuple[int, int]]


def _bisect(cells_at, target: int) -> Cells:
    """Fit a shape whose cell count grows with its scale s (about s*s cells)."""
    lo, hi = 1.0, 4.0 * math.sqrt(target)
    seen = []
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2
        cells = cells_at(mid)
        seen.append(cells)
        if len(cells) < target:
            lo = mid
        else:
            hi = mid
    return min(seen, key=lambda cells: abs(len(cells) - target))


def _disc(rng: random.Random, target: int, lib) -> Cells:
    cx, cy = rng.random(), rng.random()

    def cells_at(r: float) -> Cells:
        r /= math.sqrt(math.pi)
        span = range(-math.ceil(r) - 1, math.ceil(r) + 2)
        return {(x, y) for x in span for y in span if (x - cx) ** 2 + (y - cy) ** 2 <= r * r}

    return _bisect(cells_at, target)


def _rectangle(rng: random.Random, target: int, lib) -> Cells:
    aspect = rng.uniform(0.6, 1.6)
    h0 = math.sqrt(target / aspect)
    sizes = [
        (round(target / h), h)
        for h in range(max(2, int(h0 / 1.2)), int(h0 * 1.2) + 2)
    ]
    w, h = min(sizes, key=lambda wh: (abs(wh[0] * wh[1] - target), abs(wh[0] / wh[1] - aspect)))
    return {(x, y) for x in range(w) for y in range(h)}


def _octagon(rng: random.Random, target: int, lib) -> Cells:
    """|x| <= a, |y| <= b, |x| + |y| <= c, with a/b and c/(a+b) near seeded values."""
    aspect, cut = rng.uniform(0.7, 1.4), rng.uniform(0.6, 0.85)

    def count(a: int, b: int, c: int) -> int:
        return sum(2 * min(b, c - abs(x)) + 1 for x in range(-a, a + 1) if c >= abs(x))

    best = None
    for a in range(2, math.isqrt(target) + 2):
        for b in range(max(2, round(a / aspect) - 1), round(a / aspect) + 2):
            for c in range(round(cut * (a + b)) - 2, round(cut * (a + b)) + 3):
                key = (abs(count(a, b, c) - target), abs(a / b - aspect), a, b, c)
                if best is None or key < best[0]:
                    best = (key, a, b, c)
    _, a, b, c = best
    return {
        (x, y)
        for x in range(-a, a + 1)
        for y in range(-b, b + 1)
        if abs(x) + abs(y) <= c
    }


def _closure(rng: random.Random, target: int, lib) -> Cells:
    aspect = rng.uniform(0.7, 1.4)
    cloud = []
    while len(cloud) < _CLOUD_POINTS:
        u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if u * u + v * v <= 1.0:
            cloud.append((u * aspect, v / aspect))
    Point = lib.grid.Point

    def cells_at(s: float) -> Cells:
        points = {Point(round(u * s * 0.6), round(v * s * 0.6)) for u, v in cloud}
        closed, _ = lib.enumeration.linear_convex_closure(points)
        return {(p.x, p.y) for p in closed.vertices}

    return _bisect(cells_at, target)


_MAKERS = {"disc": _disc, "rectangle": _rectangle, "octagon": _octagon, "closure": _closure}


def make_region(kind: str, target: int, rng: random.Random, lib: SimpleNamespace):
    """A region of the given kind with about ``target`` vertices, corner at the origin.

    Raises ValueError if no draw gives a linearly convex, 2-connected region,
    which the strict solver would refuse.
    """
    for _ in range(_MAX_DRAWS):
        cells = _MAKERS[kind](rng, target, lib)
        min_x = min(x for x, _ in cells)
        min_y = min(y for _, y in cells)
        g = lib.grid.SupergridGraph(lib.grid.Point(x - min_x, y - min_y) for x, y in cells)
        if lib.classify.is_linear_convex(g) and lib.classify.is_two_connected(g):
            return g
    raise ValueError(f"no linearly convex 2-connected {kind} of about {target} vertices")
