"""Strict solver and backtracking oracle agree past the 4x4 sweep.

The theorem says every 2-connected, linearly convex supergrid graph is
Hamiltonian.  Beyond 4x4 each such graph here must be solved by the strict
solver and found cyclable by the oracle: every one in the 5x4 and 6x3 boxes
(found with the bitboard kernel), and seeded ones of up to 49 vertices in
6x6 and 7x7.
"""

from __future__ import annotations

import pytest

from supergrid import bitboard, brute_force_hamiltonian, find_hamiltonian_cycle
from supergrid.bitboard import mask_to_graph
from supergrid.enumeration import EnumSpec, random_graph
from supergrid.hamiltonian import brute_force_hamiltonian_mask

from conftest import cell_point, oracle_cycle_valid


def _assert_solved(g) -> None:
    result = find_hamiltonian_cycle(g, strict=True)
    assert result.status == "cycle", g
    assert result.cycle.vertex_set() == g.vertices


@pytest.mark.parametrize(("width", "height", "strict_count"), [(5, 4, 5939), (6, 3, 1939)])
def test_every_strict_box_subset_solved_and_cyclable(width, height, strict_count):
    box = bitboard.box(width, height)
    strict = [m for m in range(1 << (width * height))
              if box.is_linear_convex(m) and box.is_two_connected(m)]
    assert len(strict) == strict_count
    for mask in strict:
        g = mask_to_graph(mask, width)
        _assert_solved(g)
        path = brute_force_hamiltonian_mask(box.neighbours, mask)
        assert path is not None, mask
        assert oracle_cycle_valid([cell_point(i, width) for i in path], set(g.vertices)), mask


@pytest.mark.parametrize("width", [6, 7])
def test_seeded_strict_graphs_solved_and_cyclable(width):
    half = width * width // 2
    for seed in range(300):
        g = random_graph(EnumSpec(width, width, min_vertices=half + seed % half,
                                  require=frozenset({"two_connected", "linear_convex"}),
                                  seed=seed))
        _assert_solved(g)
        cycle = brute_force_hamiltonian(g, bound=width * width)
        assert cycle is not None, g
        assert oracle_cycle_valid(list(cycle.verts), set(g.vertices)), g
