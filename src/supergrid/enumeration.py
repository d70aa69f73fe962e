"""Exhaustive and randomized generation of supergrid graphs in a box.

Exhaustive mode walks subsets of a width x height cell box as bitmasks in
row-major order (bit i = cell (i % width, i // width)), ascending, which
makes the enumeration order part of the external contract.  With
``linear_convex`` required it walks only the box's generated list of
linearly convex masks, flooding each for connectivity; otherwise every
subset, with its byte of the box's subset table.  The box is capped at 25
cells; the README's timings table gives what ``verify`` and ``enumerate``
take.  Unlike ``verify``, the pass stays in one process: ``--dedup`` keeps
the first mask of each class, so the masks must be met in ascending order.

Randomized mode grows a connected blob cell by cell and then repairs it to
linear convexity by closing every line gap; uniform subsets of useful size
are almost never linearly convex, so repair-by-addition is what makes the
sampler productive.  The blob is a subset mask too, grown, closed and tested
on the kernel; :func:`linear_convex_closure` is that closure on ``Point`` sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import bitboard
from .bitboard import mask_to_graph
from .classify import (
    is_connected,
    is_linear_convex,
    is_locally_connected,
    is_two_connected,
    line_gaps,
    point_on_line,
)
from .errors import BoxTooLarge, GenerationBudgetExhausted
from .grid import Point, SupergridGraph, from_points

EXHAUSTIVE_CELL_CAP = 25
GROWTH_BUDGET = 1000

PREDICATES: dict[str, Callable[[SupergridGraph], bool]] = {
    "connected": is_connected,
    "two_connected": is_two_connected,
    "linear_convex": is_linear_convex,
    "locally_connected": is_locally_connected,
}


@dataclass(frozen=True)
class EnumSpec:
    """Parameters shared by the exhaustive and randomized generators."""

    width: int
    height: int
    min_vertices: int = 0
    require: frozenset[str] = field(default_factory=frozenset)
    dedup_symmetry: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "require", frozenset(self.require))
        unknown = self.require - set(PREDICATES)
        if unknown:
            raise ValueError(f"unknown predicates: {sorted(unknown)}")


def box_masks(width: int, height: int) -> range:
    """Every subset mask of the box, ascending; raises BoxTooLarge past the cap."""
    cells = width * height
    if cells > EXHAUSTIVE_CELL_CAP:
        raise BoxTooLarge(f"{width}x{height} exceeds {EXHAUSTIVE_CELL_CAP} cells")
    return range(1 << cells)


def _box_subsets(spec: EnumSpec) -> Iterator[tuple[int, int, int, bool, SupergridGraph | None]]:
    """(mask, connected, two_connected, linear_convex, canonical form or None) of each subset kept.

    Ascending.  With ``linear_convex`` in ``require`` only the box's
    ``linear_convex_masks`` are walked, each flooded by ``is_two_connected``
    and, if not 2-connected, ``is_connected``; otherwise every mask, with its
    subset table byte and a pointer into that list.  The kernel is asked only
    about local connectivity.  With ``dedup_symmetry`` only the first mask of
    each class is kept, with its ``canonical_form``.
    """
    box_masks(spec.width, spec.height)  # the cap check comes before any table is built
    kernel = bitboard.box(spec.width, spec.height)
    # The least table byte that passes: 2-connected (3) implies connected (1).
    need = 3 if "two_connected" in spec.require else int("connected" in spec.require)
    local = "locally_connected" in spec.require
    min_vertices, dedup, seen = spec.min_vertices, spec.dedup_symmetry, set()
    convex = kernel.linear_convex_masks
    at = 0  # convex[at] is the least linearly convex mask not below the last one kept
    walk = (((m, 3 if kernel.is_two_connected(m) else kernel.is_connected(m)) for m in convex)
            if "linear_convex" in spec.require else enumerate(kernel.two_connected_sweep()))
    for mask, flags in walk:
        if (flags < need or mask.bit_count() < min_vertices
                or local and not kernel.is_locally_connected(mask)):
            continue
        canon = None
        if dedup:
            canon = canonical_form(mask_to_graph(mask, spec.width))
            if canon in seen:
                continue
            seen.add(canon)
        while convex[at] < mask:  # the full box is last, so this stops within the list
            at += 1
        yield mask, flags & 1, flags >> 1, convex[at] == mask, canon


def enumerate_graphs(spec: EnumSpec) -> Iterator[SupergridGraph]:
    """Stream every box subset meeting ``min_vertices`` and ``require``, as a graph.

    Only kept subsets are decoded; with ``dedup_symmetry`` each class yields
    its ``canonical_form(g)`` once, under the dihedral group plus translation.
    """
    for mask, _, _, _, canon in _box_subsets(spec):
        yield mask_to_graph(mask, spec.width) if canon is None else canon


# The dihedral group of the square: rotations by 90 degrees and reflections.
_SYMMETRIES: tuple[Callable[[int, int], tuple[int, int]], ...] = (
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
)


def canonical_form(g: SupergridGraph) -> SupergridGraph:
    """Smallest translated image of g under the eight square symmetries.

    The encoding compared is the (y, x)-sorted coordinate tuple after moving
    the bounding-box corner to the origin; the result is idempotent and
    invariant under any input symmetry or translation.
    """
    if not len(g):
        return g
    best: tuple[tuple[int, int], ...] | None = None
    for sym in _SYMMETRIES:
        pts = [sym(p.x, p.y) for p in g.vertices]
        min_x = min(x for x, _ in pts)
        min_y = min(y for _, y in pts)
        encoded = tuple(sorted(((y - min_y, x - min_x) for x, y in pts)))
        if best is None or encoded < best:
            best = encoded
    return SupergridGraph(Point(x, y) for y, x in best)


def linear_convex_closure(
    points: SupergridGraph | list[Point] | frozenset[Point],
) -> tuple[SupergridGraph, frozenset[Point]]:
    """Smallest linearly convex superset, plus the vertices that were added.

    Repeatedly fills every missing lattice point that lies strictly between
    two same-line members until no line has a gap.  Every added vertex sits
    between two vertices that remain in the result, so removing any one of
    them re-opens a gap: the closure is minimal point by point.
    """
    current: set[Point] = set(points.vertices if isinstance(points, SupergridGraph) else points)
    added: set[Point] = set()
    while fresh := {
        point_on_line(key, t)
        for key, a, b in line_gaps(sorted(current, key=Point.key)) for t in range(a + 1, b)
    }:
        current |= fresh
        added |= fresh
    return SupergridGraph(current), frozenset(added)


def random_graph(spec: EnumSpec) -> SupergridGraph:
    """Seeded growth inside the box, repaired to linear convexity each step.

    Starting from one random cell, each iteration adds a uniformly random box
    cell adjacent to the current set and then closes all line gaps, until
    ``min_vertices`` and every predicate in ``require`` hold.  Deterministic
    for a fixed seed; raises GenerationBudgetExhausted after 1000 iterations
    or when the blob cannot grow further.

    The blob is a box mask; the fringe's ascending set bits are the candidate
    cells in (y, x) order.  Every blob is connected and linearly convex (a
    fringe cell is a king move from it, a filled gap a run of king moves), so
    the kernel tests only ``two_connected`` and ``locally_connected``.
    """
    rng = random.Random(spec.seed)
    kernel = bitboard.box(spec.width, spec.height)
    checks = [getattr(kernel, "is_" + name) for name in ("two_connected", "locally_connected")
              if name in spec.require]
    mask = 1 << rng.randrange(spec.width * spec.height)
    for _ in range(GROWTH_BUDGET):
        if mask.bit_count() >= spec.min_vertices and all(check(mask) for check in checks):
            return mask_to_graph(mask, spec.width)
        fringe = kernel.dilate(mask, kernel.full) & ~mask
        if not fringe:
            break
        for _ in range(rng.randrange(fringe.bit_count())):
            fringe &= fringe - 1  # drop the lowest candidate
        mask = kernel.close(fringe & -fringe, mask)
    raise GenerationBudgetExhausted(
        f"no {sorted(spec.require)} graph of >= {spec.min_vertices} vertices "
        f"found in {spec.width}x{spec.height} with seed {spec.seed}"
    )


__all__ = [
    "EnumSpec",
    "PREDICATES",
    "canonical_form",
    "enumerate_graphs",
    "linear_convex_closure",
    "random_graph",
    "from_points",
]
