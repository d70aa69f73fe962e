"""Paths, cycles, canonical forms, and the four merge operations."""

from __future__ import annotations

import pytest

from supergrid import (
    Cycle,
    NoBridgeEdges,
    NoConcatenationEdge,
    NoInsertionEdge,
    NoPivotEdge,
    NoSharedVertex,
    PathSeq,
    concat_cycle_path,
    concat_cycles_edges,
    concat_cycles_shared_vertex,
    from_points,
    insert_vertex,
    reverse_path,
    validate_cycle,
)

from conftest import P, block, oracle_adjacent, oracle_cycle_valid, pts


def test_cycle_constructor_enforces_invariants():
    Cycle(pts((0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Cycle(pts((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        Cycle(pts((0, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError):
        Cycle(pts((0, 0), (1, 0), (3, 0)))


def test_validate_cycle_examples(block2):
    assert validate_cycle(block2, pts((0, 0), (1, 0), (1, 1), (0, 1)))
    assert not validate_cycle(block2, pts((0, 0), (1, 0), (0, 0)))
    assert not validate_cycle(block2, pts((0, 0), (1, 0), (3, 0)))
    # membership in the host graph is part of validity
    assert not validate_cycle(block2, pts((0, 0), (1, 0), (1, 1), (2, 1)))
    assert not validate_cycle(block2, Cycle(pts((1, 0), (2, 0), (1, 1))))
    # non-Point members are not vertices: False, not an exception
    assert not validate_cycle(block2, [1, 2, 3])
    assert not validate_cycle(block2, [])


def test_reverse_path_examples():
    assert reverse_path(PathSeq(pts((0, 0)))).verts == tuple(pts((0, 0)))
    assert reverse_path(PathSeq(pts((0, 0), (1, 1)))).verts == tuple(pts((1, 1), (0, 0)))
    p = PathSeq(pts((0, 0), (1, 0), (2, 1)))
    assert reverse_path(p).verts == tuple(pts((2, 1), (1, 0), (0, 0)))
    assert reverse_path(reverse_path(p)) == p


def test_path_invariants():
    with pytest.raises(ValueError):
        PathSeq(())
    with pytest.raises(ValueError):
        PathSeq(pts((0, 0), (2, 0)))
    p = PathSeq(pts((0, 0), (1, 0)))
    assert p.start == P(0, 0) and p.end == P(1, 0)


def test_cycle_canonical_form_invariant_under_rotation_and_reversal():
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    for i in range(len(c)):
        assert c.rotated_to(i).canonical() == c.canonical()
        assert c.rotated_to(i).reversed_cycle().canonical() == c.canonical()
    assert c.canonical().canonical() == c.canonical()


def test_insert_vertex_first_qualifying_edge(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    out = insert_vertex(block2, c, P(0, 1))
    assert validate_cycle(block2, out)
    assert out.vertex_set() == frozenset(block2.vertices)
    # (0,1) neighbors both ends of the first traversal edge ((0,0),(1,0)).
    assert out.verts == tuple(pts((0, 0), (0, 1), (1, 0), (1, 1)))


def test_insert_vertex_center_into_boundary_ring(block3):
    ring = Cycle(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    out = insert_vertex(block3, ring, P(1, 1))
    assert oracle_cycle_valid(list(out.verts), set(block3.vertices))
    assert out.vertex_set() == frozenset(block3.vertices)
    assert len(out) == 9


def test_insert_vertex_no_edge():
    g = from_points(pts((0, 0), (1, 0), (1, 1), (3, 3), (4, 3), (4, 4)))
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    with pytest.raises(NoInsertionEdge):
        insert_vertex(g, c, P(3, 3))


def test_insert_vertex_grows_length_by_one(block3):
    ring = Cycle(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    out = insert_vertex(block3, ring, P(1, 1))
    assert len(out) == len(ring) + 1


def test_concat_cycle_path_block_pair():
    g = block(3, 2)
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    p = PathSeq(pts((2, 0), (2, 1)))
    out = concat_cycle_path(g, c, p)
    assert validate_cycle(g, out)
    assert out.vertex_set() == c.vertex_set() | {P(2, 0), P(2, 1)}
    assert len(out) == len(c) + len(p)


def test_concat_cycle_path_singleton_path_equals_insert(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    via_path = concat_cycle_path(block2, c, PathSeq([P(0, 1)]))
    via_insert = insert_vertex(block2, c, P(0, 1))
    assert via_path.canonical() == via_insert.canonical()


def test_concat_cycle_path_disjoint_components_fail():
    g = from_points(pts((0, 0), (1, 0), (1, 1), (0, 1), (5, 5), (6, 5), (6, 6)))
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(NoConcatenationEdge):
        concat_cycle_path(g, c, PathSeq(pts((5, 5), (6, 5), (6, 6))))


def test_concat_cycles_edges_adjacent_blocks():
    g = block(4, 2)
    c1 = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    c2 = Cycle(pts((2, 0), (3, 0), (3, 1), (2, 1)))
    out = concat_cycles_edges(g, c1, c2)
    assert validate_cycle(g, out)
    assert out.vertex_set() == c1.vertex_set() | c2.vertex_set()
    assert len(out) == 8


def test_concat_cycles_edges_far_apart_fail():
    g = from_points(pts((0, 0), (1, 0), (1, 1), (0, 1), (5, 0), (6, 0), (6, 1), (5, 1)))
    c1 = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    c2 = Cycle(pts((5, 0), (6, 0), (6, 1), (5, 1)))
    with pytest.raises(NoBridgeEdges):
        concat_cycles_edges(g, c1, c2)


def test_concat_cycles_edges_adjacent_triangles_outcome_by_brute_force():
    # Expected outcome derived by brute-forcing all edge pairs/orientations.
    c1_pts = pts((0, 0), (1, 0), (0, 1))
    c2_pts = pts((2, 0), (3, 0), (2, 1))
    g = from_points(c1_pts + c2_pts)

    def edges(seq):
        return [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]

    bridgeable = any(
        (oracle_adjacent(u1, u2) and oracle_adjacent(v1, v2))
        or (oracle_adjacent(u1, v2) and oracle_adjacent(v1, u2))
        for (u1, v1) in edges(c1_pts)
        for (u2, v2) in edges(c2_pts)
    )
    assert not bridgeable
    with pytest.raises(NoBridgeEdges):
        concat_cycles_edges(g, Cycle(c1_pts), Cycle(c2_pts))


def test_concat_cycles_shared_vertex_example():
    c1 = Cycle(pts((0, 0), (1, 0), (1, 1)))
    c2 = Cycle(pts((1, 1), (2, 1), (2, 2)))
    g = from_points(list(c1.verts) + list(c2.verts))
    out = concat_cycles_shared_vertex(g, c1, c2)
    assert validate_cycle(g, out)
    assert out.vertex_set() == c1.vertex_set() | c2.vertex_set()
    assert len(out) == 5  # shared vertex appears once


def test_concat_cycles_shared_vertex_requires_single_shared():
    c1 = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    c2 = Cycle(pts((1, 0), (2, 0), (2, 1), (1, 1)))
    g = from_points(list(c1.verts) + list(c2.verts))
    with pytest.raises(NoSharedVertex):
        concat_cycles_shared_vertex(g, c1, c2)


def test_concat_cycles_shared_vertex_no_pivot_edge():
    # Constructed so no flanking pair (u, w) is adjacent; confirmed by
    # brute force over all four candidate pairs.
    c1 = Cycle(pts((1, 1), (0, 0), (0, 1)))
    c2 = Cycle(pts((1, 1), (2, 1), (2, 2)))
    g = from_points(list(c1.verts) + list(c2.verts))
    u_candidates = [c1.verts[1], c1.verts[-1]]
    w_candidates = [c2.verts[1], c2.verts[-1]]
    assert not any(
        oracle_adjacent(u, w) for u in u_candidates for w in w_candidates
    )
    with pytest.raises(NoPivotEdge):
        concat_cycles_shared_vertex(g, c1, c2)


def test_merge_operations_reject_invalid_hosts(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    stranger = from_points(pts((9, 9), (10, 9), (10, 10)))
    with pytest.raises(ValueError):
        insert_vertex(stranger, c, P(9, 9))


def test_insert_rejects_vertex_already_on_cycle(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        insert_vertex(block2, c, P(1, 0))
