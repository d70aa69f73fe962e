"""Differential gate: the integer lowpoint DFS against the ``Point`` reference.

``reference_classify`` keeps, verbatim, the ``Point`` BFS and lowpoint DFS
the library used before connectivity ran on ``grid.vertex_ids`` neighbour
lists, and the local-connectivity pass that built and searched each induced
neighbourhood before it read the 8-bit pattern table.  ``is_connected``,
``is_two_connected``, ``local_connectivity_violation`` and ``classify()``
must answer as the reference and as the ``bitboard.Box`` kernel do, on every
4x4 mask and on seeded 6x6 and 7x7 masks; and the solver's precheck must
fail the same predicate first (2-connectivity, then linear convexity).
"""

from __future__ import annotations

from collections import Counter

import pytest

from supergrid import bitboard, hamiltonian
from supergrid.bitboard import mask_to_graph
from supergrid.classify import (
    classify,
    is_connected,
    is_linear_convex,
    is_two_connected,
    line_gaps,
    local_connectivity_violation,
    lowpoint_dfs,
)
from supergrid.enumeration import linear_convex_closure
from supergrid.errors import PreconditionViolated
from supergrid.grid import vertex_ids
from supergrid.hamiltonian import find_hamiltonian_cycle, seed_cycle

import reference_classify as ref
from test_predicates_beyond_4x4 import _seeded_masks  # 1,200 masks per box


def assert_same_line_gaps(g, label) -> bool:
    """The library's line rule on (y, x)-ordered points against the sorting reference."""
    gaps = list(ref.line_gaps(g.vertices))
    points = g.sorted_vertices()
    assert list(line_gaps(points)) == gaps, label
    assert is_linear_convex(g) == is_linear_convex(g, points) == (not gaps), label
    return not gaps


def test_line_gaps_match_reference_on_translated_4x4_universe():
    # The closure of a 4x4 mask fills gaps inside its box, so every set it
    # passes to line_gaps is another mask checked here: equal gaps give
    # equal closures on this universe.
    convex = sum(assert_same_line_gaps(mask_to_graph(mask, 4).translate(-5, -3), mask)
                 for mask in range(1 << 16))
    assert convex == 2_962


@pytest.mark.parametrize("width, height, seed, convex", [(6, 6, 26, 398), (7, 7, 27, 346)])
def test_line_gaps_match_reference_on_seeded_masks(width, height, seed, convex):
    box, found = bitboard.box(width, height), 0
    for mask in _seeded_masks(width, height, seed):
        g = mask_to_graph(mask, width).translate(3, -height)
        found += assert_same_line_gaps(g, mask)
        assert is_linear_convex(g, vertex_ids(g)[0]) == box.is_linear_convex(mask), mask
        assert linear_convex_closure(g) == ref.linear_convex_closure(g.vertices), mask
    assert found == convex


def test_lowpoint_dfs_on_tiny_tables():
    assert lowpoint_dfs([]) == (True, False)
    assert lowpoint_dfs([[]]) == (True, False)
    assert lowpoint_dfs([[], []]) == (False, False)
    assert lowpoint_dfs([[1], [0, 2], [1]]) == (True, True)  # a path: the middle cuts
    assert lowpoint_dfs([[1, 2], [0, 2], [0, 1]]) == (True, False)  # a triangle
    # Two triangles sharing id 0: the root has two DFS children.
    assert lowpoint_dfs([[1, 2, 3, 4], [0, 2], [0, 1], [0, 4], [0, 3]]) == (True, True)


def test_classify_matches_reference_on_3x3_universe():
    """Whole reports, witnesses included: every induced neighbourhood shape occurs here."""
    for mask in range(1 << 9):
        g = mask_to_graph(mask, 3).translate(-1, -1)
        assert classify(g) == ref.classify(g), mask
        assert is_connected(g) == ref.is_connected(g), mask


def test_integer_dfs_matches_reference_on_4x4_universe():
    box = bitboard.box(4, 4)
    connected_count = two_connected_count = 0
    for mask in range(1 << 16):
        g = mask_to_graph(mask, 4).translate(-6, -9)
        connected, cut = ref._lowpoint_dfs(g)
        two_connected = len(g) >= 3 and connected and not cut
        kernel = box.is_connected(mask), box.is_two_connected(mask)
        assert kernel == (connected, two_connected), mask
        assert is_connected(g) == connected, mask
        assert is_two_connected(g) == two_connected, mask
        report = classify(g)
        assert (report.connected, report.two_connected) == (connected, two_connected), mask
        connected_count += connected
        two_connected_count += two_connected
    assert (connected_count, two_connected_count) == (37_197, 8_433)


def test_local_connectivity_witness_matches_reference_on_4x4_universe():
    """The pattern-table pass names the same first vertex as the induced-graph reference."""
    box = bitboard.box(4, 4)
    failing = 0
    for mask in range(1 << 16):
        g = mask_to_graph(mask, 4).translate(-6, -9)
        witness = local_connectivity_violation(g)
        assert witness == ref.local_connectivity_violation(g), mask
        assert (witness is None) == box.is_locally_connected(mask), mask
        failing += witness is not None
    assert failing == 54_417


@pytest.mark.parametrize("width, height, seed", [(6, 6, 60), (7, 7, 70)])
def test_integer_dfs_matches_reference_on_seeded_masks(width, height, seed):
    box = bitboard.box(width, height)
    seen = Counter()
    for mask in _seeded_masks(width, height, seed):
        g = mask_to_graph(mask, width).translate(-2 * width, 3)
        connected, two_connected = box.is_connected(mask), box.is_two_connected(mask)
        assert is_connected(g) == ref.is_connected(g) == connected, mask
        assert is_two_connected(g) == ref.is_two_connected(g) == two_connected, mask
        report = classify(g)
        assert report == ref.classify(g), mask
        assert (report.connected, report.two_connected) == (connected, two_connected), mask
        seen.update({("connected", connected), ("two_connected", two_connected)})
    assert len(seen) == 4 and min(seen.values()) >= 100, seen


def test_precheck_order_matches_reference_on_4x4_universe(monkeypatch):
    """``failed_predicate`` and ``seed_cycle``'s error follow the reference order.

    The predicates come from the box kernel, which the test above holds to
    the reference on every 4x4 mask.  Graphs that pass go on to the
    seed-and-extend core, stubbed here: the solves themselves are pinned by
    the golden rule table and the permissive probe.
    """
    box = bitboard.box(4, 4)
    solved = object()

    def seed_and_extend(g, reverse_frontier, table):
        assert table[0] == g.sorted_vertices()  # the precheck's table, handed on
        return solved

    monkeypatch.setattr(hamiltonian, "_seed_and_extend", seed_and_extend)
    outcomes = Counter()
    for mask in range(1 << 16):
        g = mask_to_graph(mask, 4)
        two_connected, linear_convex = box.is_two_connected(mask), box.is_linear_convex(mask)
        for strict in (True, False):
            expected = ref.failed_precondition(two_connected, linear_convex, strict)
            result = find_hamiltonian_cycle(g, strict=strict)
            if expected is None:
                assert result is solved, (mask, strict)
            else:
                assert (result.status, result.failed_predicate) == ("no_cycle", expected), mask
            outcomes[strict, expected] += 1
        expected = ref.failed_precondition(two_connected, linear_convex, strict=True)
        if expected is None:
            assert len(seed_cycle(g)) == 3, mask
            continue
        with pytest.raises(PreconditionViolated) as raised:
            seed_cycle(g)
        assert raised.value.predicate == expected, mask
        assert str(raised.value) == f"precondition failed: {expected}", mask
    assert outcomes == Counter({
        (True, "two_connected"): 65_536 - 8_433,
        (True, "linear_convex"): 8_433 - 1_773,
        (True, None): 1_773,
        (False, "two_connected"): 65_536 - 8_433,
        (False, None): 8_433,
    })
