"""Slow reference: the ``Point``-set random graph generator, kept verbatim.

Every growth step rescans the neighbours of the whole blob, closes line gaps
with ``reference_classify.linear_convex_closure`` (so the differential shares
no closure code with the library) and re-runs the ``Point`` predicates of
``require``, so a graph of n cells costs O(n^2) neighbour scans.  The
library's mask-native ``random_graph`` must return the same graph, or raise
the same exception with the same message, for every spec; the differential
tests compare the two.
"""

from __future__ import annotations

import random

from supergrid.enumeration import GROWTH_BUDGET, PREDICATES, EnumSpec
from supergrid.errors import GenerationBudgetExhausted
from supergrid.grid import Point, SupergridGraph, neighbors

from reference_classify import linear_convex_closure


# The order this generator tests ``require`` in, cheap predicates first.
PREDICATE_ORDER = ("linear_convex", "connected", "two_connected", "locally_connected")


def _satisfies(g: SupergridGraph, require: frozenset[str]) -> bool:
    return all(PREDICATES[name](g) for name in PREDICATE_ORDER if name in require)


def random_graph(spec: EnumSpec) -> SupergridGraph:
    """Seeded growth inside the box, repaired to linear convexity each step.

    Starting from one random cell, each iteration adds a uniformly random box
    cell adjacent to the current set and then closes all line gaps, until
    ``min_vertices`` and every predicate in ``require`` hold.  Deterministic
    for a fixed seed; raises GenerationBudgetExhausted after 1000 iterations
    or when the blob cannot grow further.
    """
    rng = random.Random(spec.seed)
    box = SupergridGraph(Point(x, y) for y in range(spec.height) for x in range(spec.width))
    cells = box.sorted_vertices()
    current: set[Point] = {cells[rng.randrange(len(cells))]}
    for _ in range(GROWTH_BUDGET):
        g = SupergridGraph(current)
        if len(g) >= spec.min_vertices and _satisfies(g, spec.require):
            return g
        fringe = {w for p in current for w in neighbors(box, p)} - current
        candidates = sorted(fringe, key=Point.key)
        if not candidates:
            break
        current.add(candidates[rng.randrange(len(candidates))])
        closed, _ = linear_convex_closure(current)
        current = set(closed.vertices)
    raise GenerationBudgetExhausted(
        f"no {sorted(spec.require)} graph of >= {spec.min_vertices} vertices "
        f"found in {spec.width}x{spec.height} with seed {spec.seed}"
    )
