"""The backtracking oracle against its unpruned reference, answer for answer.

The library's oracle prunes a branch as soon as no free vertex neighbours
the anchor, and gives up at once on an anchor with fewer than two
neighbours.  Those prunes remove only subtrees without a cycle, and the
children are still tried in ascending order, so the first cycle found, or
None, must be exactly the reference's (``tests/reference_oracle.py``).  The
library's search is also one loop over an explicit stack where the
reference recurses, which the last test checks at the supported depth.
"""

from __future__ import annotations

import inspect
import random
import sys

import pytest

from supergrid import bitboard
from supergrid.enumeration import EnumSpec, random_graph
from supergrid.grid import vertex_ids
from supergrid.hamiltonian import MAX_ORACLE_BOUND, brute_force_hamiltonian_mask

import reference_oracle


def _assert_same_answers(neighbours, masks, bound: int = 24) -> int:
    """Compare both oracles on every mask; return how many have a cycle."""
    found = 0
    for mask in masks:
        expected = reference_oracle.brute_force_hamiltonian_mask(neighbours, mask, bound)
        assert brute_force_hamiltonian_mask(neighbours, mask, bound) == expected, mask
        found += expected is not None
    return found


@pytest.mark.parametrize("width, height, cycles", [
    (3, 3, 144), (3, 5, 3040), (5, 3, 3040), (2, 8, 224), (8, 2, 224),
])
def test_oracle_matches_reference_on_box_universe(width, height, cycles):
    neighbours = bitboard.box(width, height).neighbours
    assert _assert_same_answers(neighbours, range(1 << (width * height))) == cycles


def test_oracle_matches_reference_on_4x4_universe():
    # Every subset, as ``verify --box 4x4 --oracle-limit 16`` checks them:
    # 8,433 have a cycle, 7,896 of them among the 64,839 of at most 12 cells.
    neighbours = bitboard.box(4, 4).neighbours
    small = [m for m in range(1 << 16) if m.bit_count() <= 12]
    assert len(small) == 64839
    assert _assert_same_answers(neighbours, small) == 7896
    large = (m for m in range(1 << 16) if m.bit_count() > 12)
    assert _assert_same_answers(neighbours, large) == 537


def test_oracle_matches_reference_on_seeded_5x5_masks():
    # Uniform subsets of 12-18 cells (mostly without a cycle) and seeded
    # 2-connected blobs of 8-18 vertices (all with one); the reference takes
    # seconds per graph on denser 5x5 subsets, which is what the prune fixes.
    neighbours = bitboard.box(5, 5).neighbours
    rng = random.Random(5)
    masks = [sum(1 << c for c in rng.sample(range(25), rng.randint(12, 18))) for _ in range(1000)]
    assert 100 < _assert_same_answers(neighbours, masks, 25) < 900

    found = 0
    for seed in range(200):
        g = random_graph(EnumSpec(5, 5, min_vertices=8 + seed % 11,
                                  require=frozenset({"two_connected"}), seed=seed))
        verts, nbrs = vertex_ids(g)
        adjacency = [sum(1 << j for j in row) for row in nbrs]
        found += _assert_same_answers(adjacency, [(1 << len(verts)) - 1], 25)
    assert found > 100


def test_oracle_runs_at_supported_depth_without_recursing():
    # The cycle of a 2x250 ladder has MAX_ORACLE_BOUND vertices; a search that
    # took a frame per path vertex would overflow the lowered limit.
    neighbours = bitboard.box(250, 2).neighbours
    ladder = (1 << 500) - 1
    expected = reference_oracle.brute_force_hamiltonian_mask(neighbours, ladder, MAX_ORACLE_BOUND)
    assert expected is not None and len(expected) == 500
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        found = brute_force_hamiltonian_mask(neighbours, ladder, MAX_ORACLE_BOUND)
    finally:
        sys.setrecursionlimit(limit)
    assert found == expected
