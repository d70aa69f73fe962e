"""Structural predicates and the combined classification report."""

from __future__ import annotations

import random
import warnings

from supergrid import (
    LineDirection,
    classify,
    from_points,
    is_connected,
    is_linear_convex,
    is_locally_connected,
    is_two_connected,
    linear_convexity_violation,
    local_connectivity_violation,
)
from supergrid.verification import mask_to_graph

from conftest import (
    P,
    block,
    oracle_connected,
    oracle_linear_convex,
    oracle_locally_connected,
    oracle_two_connected,
    pts,
)


def test_linear_convex_2x2(block2):
    assert is_linear_convex(block2)


def test_linear_convex_gap_witness():
    g = from_points(pts((0, 0), (2, 0), (1, 1)))
    assert not oracle_linear_convex(list(g.vertices))
    w = linear_convexity_violation(g)
    assert w is not None
    assert w.predicate == "linear_convex"
    assert w.line.direction is LineDirection.HORIZONTAL
    assert w.line.index == 0
    assert set(w.points) == {P(0, 0), P(2, 0)}
    assert w.missing == P(1, 0)


def test_linear_convex_empty_and_singleton():
    assert is_linear_convex(from_points([]))
    assert is_linear_convex(from_points([P(3, -2)]))


def test_linear_convex_diagonal_gap():
    g = from_points(pts((0, 0), (2, 2)))
    w = linear_convexity_violation(g)
    assert w is not None
    assert w.line.direction is LineDirection.DIAGONAL
    assert w.missing == P(1, 1)


def test_linear_convex_antidiagonal_gap():
    g = from_points(pts((0, 2), (2, 0)))
    w = linear_convexity_violation(g)
    assert w is not None
    assert w.line.direction is LineDirection.ANTIDIAGONAL
    assert w.missing == P(1, 1)


def test_is_connected_examples():
    assert is_connected(from_points(pts((0, 0), (1, 1))))
    assert not is_connected(from_points(pts((0, 0), (2, 2))))
    assert is_connected(from_points([]))
    assert is_connected(from_points([P(0, 0)]))


def test_is_two_connected_examples(block2):
    assert is_two_connected(block2)
    assert not is_two_connected(from_points(pts((0, 0), (1, 0), (2, 0))))
    assert not is_two_connected(from_points(pts((0, 0), (1, 0))))
    assert not is_two_connected(from_points([]))


def test_is_locally_connected_examples(block2, block3):
    assert is_locally_connected(block2)
    g = from_points(pts((0, 0), (1, 0), (2, 0)))
    assert not is_locally_connected(g)
    w = local_connectivity_violation(g)
    assert w.predicate == "locally_connected"
    assert w.points == (P(1, 0),)
    # Brute-force all nine neighborhoods of the full 3x3 block.
    assert oracle_locally_connected(list(block3.vertices))
    assert is_locally_connected(block3)


def test_local_connectivity_check_passes_ints_to_the_ring_rule(block3):
    # ring_cuts applies ~ to its arguments, which Python 3.12 and later warn
    # about on a bool; with warnings as errors a bool argument fails here.
    graphs = [block3, from_points(pts((0, 0), (1, 0), (2, 0))),
              from_points(pts((0, 0), (1, 1), (2, 2))),
              from_points(pts((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))),
              mask_to_graph(0b0110_1111_1111_0110, 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [is_locally_connected(g) for g in graphs] == [True, False, False, False, True]
        assert classify(graphs[2]).violation_witness.points == (P(1, 1),)


def test_classify_2x2(block2):
    r = classify(block2)
    assert (r.vertex_count, r.connected, r.two_connected, r.linear_convex,
            r.locally_connected) == (4, True, True, True, True)
    assert r.violation_witness is None


def test_classify_gap_graph():
    r = classify(from_points(pts((0, 0), (2, 0), (1, 1))))
    assert not r.linear_convex
    assert r.violation_witness.predicate == "linear_convex"
    assert r.violation_witness.missing == P(1, 0)


def test_classify_empty_conventions():
    r = classify(from_points([]))
    assert (r.vertex_count, r.connected, r.two_connected, r.linear_convex,
            r.locally_connected) == (0, True, False, True, True)
    assert r.violation_witness is None


def test_classify_witness_priority_prefers_linear_convexity():
    # Fails both predicates; the linear-convexity witness is reported.
    r = classify(from_points(pts((0, 0), (1, 0), (2, 0), (4, 0))))
    assert not r.linear_convex and not r.locally_connected
    assert r.violation_witness.predicate == "linear_convex"


def test_two_connected_implies_connected_on_3x3_universe():
    for mask in range(1 << 9):
        g = mask_to_graph(mask, 3)
        if is_two_connected(g):
            assert is_connected(g)


def test_predicates_match_oracles_on_3x3_universe():
    for mask in range(1 << 9):
        g = mask_to_graph(mask, 3)
        points = list(g.sorted_vertices())
        assert is_connected(g) == oracle_connected(points)
        assert is_linear_convex(g) == oracle_linear_convex(points)
        assert is_locally_connected(g) == oracle_locally_connected(points)


def test_two_connected_matches_disjoint_path_oracle_small():
    # Whitney characterization against literal two-vertex-disjoint-paths
    # search: all graphs on <= 9 vertices from the 3x3 universe plus a
    # seeded sample of <= 9-vertex subsets of 4x4.
    for mask in range(1 << 9):
        g = mask_to_graph(mask, 3)
        assert is_two_connected(g) == oracle_two_connected(list(g.sorted_vertices()))
    rng = random.Random(20260811)
    checked = 0
    while checked < 400:
        mask = rng.randrange(1 << 16)
        g = mask_to_graph(mask, 4)
        if len(g) > 9:
            continue
        checked += 1
        assert is_two_connected(g) == oracle_two_connected(list(g.sorted_vertices()))


def test_degree_seven_and_eight_neighborhoods_always_connected():
    # Lemma used by the local-connectivity proof machinery.
    rng = random.Random(5)
    graphs = [block(3, 3), block(4, 4), block(5, 3)]
    for _ in range(300):
        points = {
            P(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(6, 22))
        }
        graphs.append(from_points(points))
    from supergrid import induced_neighborhood, neighbors

    for g in graphs:
        for v in g.sorted_vertices():
            if len(neighbors(g, v)) >= 7:
                assert is_connected(induced_neighborhood(g, v))


def test_predicates_are_translation_invariant():
    rng = random.Random(13)
    for _ in range(40):
        points = {
            P(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 14))
        }
        g = from_points(points)
        t = g.translate(rng.randint(-30, 30), rng.randint(-30, 30))
        assert is_connected(g) == is_connected(t)
        assert is_two_connected(g) == is_two_connected(t)
        assert is_linear_convex(g) == is_linear_convex(t)
        assert is_locally_connected(g) == is_locally_connected(t)


def test_witness_soundness_on_random_graphs():
    rng = random.Random(99)
    seen_violations = 0
    for _ in range(300):
        points = {
            P(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(2, 16))
        }
        g = from_points(points)
        w = linear_convexity_violation(g)
        if w is None:
            assert oracle_linear_convex(list(points))
            continue
        seen_violations += 1
        a, b = w.points
        assert a in g.vertices and b in g.vertices
        assert w.missing not in g.vertices
        # The three points really are collinear on the named line, with the
        # missing one strictly between the present two.
        dx1, dy1 = w.missing.x - a.x, w.missing.y - a.y
        dx2, dy2 = b.x - w.missing.x, b.y - w.missing.y
        assert (dx1 * dy2 == dy1 * dx2)
        assert dx1 * dx2 >= 0 and dy1 * dy2 >= 0
    assert seen_violations > 50
