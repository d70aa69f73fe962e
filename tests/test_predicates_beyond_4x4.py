"""``Point`` predicates and closure against the bitboard kernel on seeded 6x6 and 7x7 masks.

The exhaustive tests stop at 4x4 (and 5x3 oblongs).  Here each box gets
1,200 seeded masks: a third uniform at a random density, two thirds grown
by ``random_graph`` (connected and linearly convex) to about half the box at
most, then perturbed by toggling up to two cells, so every predicate is seen both holding and
failing.  Each graph is translated to negative coordinates before the
``Point`` predicates see it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from supergrid import bitboard
from supergrid.bitboard import mask_to_graph
from supergrid.classify import (
    classify,
    is_connected,
    is_linear_convex,
    is_locally_connected,
    is_two_connected,
)
from supergrid.enumeration import EnumSpec, linear_convex_closure, random_graph

MASKS_PER_BOX = 1200


def _seeded_masks(width: int, height: int, seed: int):
    rng = random.Random(seed)
    cells = width * height
    for i in range(MASKS_PER_BOX):
        if i % 3 == 0:
            density = rng.uniform(0.5, 1.0)
            yield sum(1 << c for c in range(cells) if rng.random() < density)
            continue
        size = rng.randint(3, cells // 2)
        spec = EnumSpec(width, height, min_vertices=size, seed=rng.randrange(1 << 30))
        mask = sum(1 << (p.y * width + p.x) for p in random_graph(spec).vertices)
        for _ in range(rng.randint(0, 2)):
            mask ^= 1 << rng.randrange(cells)
        yield mask


@pytest.mark.parametrize("width, height, seed", [(6, 6, 6), (7, 7, 7)])
def test_point_predicates_match_kernel_on_seeded_masks(width, height, seed):
    box = bitboard.box(width, height)
    dx, dy = -3 * width, -2 * height - 1
    seen = Counter()
    for mask in _seeded_masks(width, height, seed):
        g = mask_to_graph(mask, width).translate(dx, dy)
        connected = box.is_connected(mask)
        two_connected = box.is_two_connected(mask)
        linear_convex = box.is_linear_convex(mask)
        locally_connected = box.is_locally_connected(mask)
        assert is_connected(g) == connected, mask
        assert is_two_connected(g) == two_connected, mask
        assert is_linear_convex(g) == linear_convex, mask
        assert is_locally_connected(g) == locally_connected, mask
        report = classify(g)
        assert (report.connected, report.two_connected) == (connected, two_connected), mask
        assert report.linear_convex == linear_convex, mask
        assert report.locally_connected == locally_connected, mask
        closed, added = linear_convex_closure(g)
        kernel_closed = box.close(mask)
        assert closed == mask_to_graph(kernel_closed, width).translate(dx, dy), mask
        assert added == mask_to_graph(kernel_closed & ~mask, width).translate(dx, dy).vertices
        seen.update({("connected", connected), ("two_connected", two_connected),
                     ("linear_convex", linear_convex), ("locally_connected", locally_connected),
                     ("closure_adds", kernel_closed != mask)})
    # Every predicate was exercised on both sides, and the closure both
    # added cells and left a subset alone.
    assert len(seen) == 10 and min(seen.values()) >= 100, seen
