"""The box-mask kernel against the naive oracles and the Point predicates."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from supergrid import (
    EnumSpec,
    SizeBoundExceeded,
    brute_force_hamiltonian,
    is_connected,
    is_linear_convex,
    is_locally_connected,
    is_two_connected,
    linear_convex_closure,
    random_graph,
)
from supergrid import bitboard
from supergrid.bitboard import mask_to_graph
from supergrid.grid import OFFSETS, ring_cuts
from supergrid.hamiltonian import brute_force_hamiltonian_mask
from supergrid.verification import forced_vertex_violations

from conftest import (
    P,
    cell_point,
    oracle_connected,
    oracle_cycle_valid,
    oracle_linear_convex,
    oracle_locally_connected,
    oracle_two_connected,
)

import reference_bitboard as ref


def test_tables_for_3x3():
    box = bitboard.box(3, 3)
    assert box.neighbours[4] == 0b111_101_111
    assert box.neighbours[0] == 0b000_011_010
    # 3 rows, 3 columns, the main diagonal and the main antidiagonal.
    assert len(box.lines) == 8
    assert bitboard.box(3, 3) is box


def per_bit_lines(width: int, height: int) -> list[int]:
    """Every lattice line's mask, one bit at a time; lines under three cells dropped."""
    lines: dict[tuple[str, int], int] = {}
    for y in range(height):
        for x in range(width):
            for key in (("h", y), ("v", x), ("d", y - x), ("a", y + x)):
                lines[key] = lines.get(key, 0) | 1 << (y * width + x)
    return [m for m in lines.values() if m.bit_count() >= 3]


@pytest.mark.parametrize(
    "width,height",
    [(w, h) for w in range(1, 10) for h in range(1, 10)]
    + [(1, n) for n in (10, 17, 64)] + [(n, 1) for n in (10, 17, 64)],
)
def test_line_masks_match_per_bit_construction(width, height):
    lines = bitboard.Box(width, height).lines
    expected = per_bit_lines(width, height)
    assert len(lines) == len(set(lines)) == len(expected)
    assert set(lines) == set(expected)


def test_local_table_matches_oracle():
    # The ring rule on every 8-bit pattern, against the naive oracle and the
    # table of 3x3 floods it replaced.
    for pattern in range(256):
        points = [P(dx, dy) for d, (dx, dy) in enumerate(OFFSETS) if pattern >> d & 1]
        connected = not ring_cuts(*(pattern >> d & 1 for d in range(8)))
        assert connected == oracle_connected(points) == ref.local_table()[pattern], pattern
    assert ring_cuts(1, 0, 0, 0, 0, 0, 0, 1)  # UL and DR alone
    assert ring_cuts(0, 1, 0, 0, 0, 0, 1, 0)  # U and D alone


@pytest.mark.parametrize("width,height", [(4, 4), (5, 3), (3, 5), (2, 6), (6, 2), (1, 7)])
def test_ring_rule_matches_local_table_on_whole_boxes(width, height):
    box = bitboard.box(width, height)
    for mask in range(1 << (width * height)):
        assert box.is_locally_connected(mask) == ref.is_locally_connected(box, mask), mask


@pytest.mark.parametrize("width,height", [(5, 3), (3, 5), (2, 6), (6, 2), (1, 7)])
def test_two_connected_matches_one_flood_per_vertex_on_whole_boxes(width, height):
    box = bitboard.box(width, height)
    for mask in range(1 << (width * height)):
        assert box.is_two_connected(mask) == ref.is_two_connected(box, mask), mask


@pytest.mark.parametrize("width,height,subsets", [(4, 4, 3913), (5, 3, 1791), (2, 6, 115)])
def test_connected_locally_connected_subsets_are_two_connected(width, height, subsets):
    # The converse of the paper's first theorem, for any graph (Chartrand and
    # Pippert, 1974), read off the sweep's flood-based 2-connected flags.
    box = bitboard.box(width, height)
    checked = 0
    for mask, flags in enumerate(box.two_connected_sweep()):
        if flags & 1 and mask.bit_count() >= 3 and box.is_locally_connected(mask):
            assert flags >> 1, mask
            checked += 1
    assert checked == subsets


def test_ring_cut_vertices_that_cut_and_that_do_not():
    box = bitboard.box(3, 3)
    # The 3x3 ring: each side cell's neighbourhood is two corner-side pairs
    # the ring rule cuts apart, yet the ring has no cut vertex.
    ring = 0b111_101_111
    assert ring_cuts(*box._near(ring)) & ring == 0b010_101_010
    assert box.is_two_connected(ring) and ref.is_two_connected(box, ring)
    # A bowtie: triangles (0, 0), (0, 1), (1, 1) and (1, 1), (2, 1), (2, 2)
    # share the centre, which cuts them apart.
    bowtie = 0b100_111_001
    assert box.is_connected(bowtie)
    assert ring_cuts(*box._near(bowtie)) & bowtie == 1 << 4
    assert not box.is_two_connected(bowtie) and not ref.is_two_connected(box, bowtie)


def test_kernel_matches_oracles_on_3x3_universe():
    box = bitboard.box(3, 3)
    for mask in range(1 << 9):
        points = list(mask_to_graph(mask, 3).sorted_vertices())
        assert box.is_connected(mask) == oracle_connected(points), mask
        assert box.is_two_connected(mask) == oracle_two_connected(points), mask
        assert box.is_linear_convex(mask) == oracle_linear_convex(points), mask
        assert box.is_locally_connected(mask) == oracle_locally_connected(points), mask


@pytest.mark.parametrize("width,height", [(1, 5), (5, 1), (2, 5), (5, 2), (3, 4)])
def test_kernel_matches_point_predicates_on_oblong_boxes(width, height):
    box = bitboard.box(width, height)
    for mask in range(1 << (width * height)):
        g = mask_to_graph(mask, width)
        assert box.is_connected(mask) == is_connected(g), mask
        assert box.is_two_connected(mask) == is_two_connected(g), mask
        assert box.is_linear_convex(mask) == is_linear_convex(g), mask
        assert box.is_locally_connected(mask) == is_locally_connected(g), mask


def test_two_connected_sweep_matches_point_predicates_on_4x4(box_sweep):
    table = bitboard.box(4, 4).two_connected_sweep()
    found = {mask for mask, flags in enumerate(table) if flags >> 1}
    assert found == box_sweep.two_connected_masks


@pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (1, 7), (2, 6), (5, 3), (3, 5), (4, 4)])
def test_two_connected_sweep_matches_floods(width, height):
    # One byte per subset: bit 0 connected, bit 1 2-connected.
    box = bitboard.box(width, height)
    assert list(box.two_connected_sweep()) == [
        box.is_connected(m) | ref.is_two_connected(box, m) << 1 for m in range(1 << width * height)]


@pytest.mark.parametrize("chunk", [1, 64, 1024])
@pytest.mark.parametrize("width,height", [(w, h) for w in range(1, 5) for h in range(1, 5)] + [(5, 3)])
def test_chunks_filled_in_level_order_equal_the_ascending_sweep(width, height, chunk):
    # fill_two_connected needs each mask's one-smaller submasks filled.  With
    # chunks of a power of two, chunk i's lie in it or in the chunks whose
    # index is i with one set bit cleared, which come first in level order:
    # by the popcount of i, then by i.
    box = bitboard.box(width, height)
    n = min(chunk, box.full + 1)
    table = bytearray(box.full + 1)
    for i in sorted(range((box.full + 1) // n), key=lambda i: (i.bit_count(), i)):
        box.fill_two_connected(table, range(i * n, (i + 1) * n))
    assert table == box.two_connected_sweep()


GENERATED_BOXES = sorted({(w, h) for w in range(1, 5) for h in range(1, 5)}
                         | {(5, 3), (3, 5), (2, 6), (6, 2)}
                         | {(1, n) for n in range(1, 11)} | {(n, 1) for n in range(1, 11)})


@pytest.mark.parametrize("width,height", GENERATED_BOXES)
def test_linear_convex_masks_are_the_filter_of_every_mask(width, height):
    # Equal to the ascending filter, so ascending and free of duplicates too.
    box = bitboard.Box(width, height)
    masks = box.linear_convex_masks
    assert masks == [m for m in range(box.full + 1) if box.is_linear_convex(m)]
    assert box.linear_convex_masks is masks


@pytest.mark.parametrize("width,height,count", [(5, 5, 36_947), (6, 6, 428_187)])
def test_linear_convex_mask_counts(width, height, count):
    masks = bitboard.Box(width, height).linear_convex_masks
    assert len(masks) == count
    assert masks[0] == 0 and masks[-1] == (1 << width * height) - 1


def test_forced_vertex_patterns_match_point_checker_on_3x3_universe():
    # Also every mask of larger and non-square boxes, where the kernel's
    # column masks matter; counts of flagged masks are the Point checker's.
    for (width, height), flagged_masks in {
        (3, 3): 175, (4, 4): 43_326, (5, 3): 19_952, (3, 5): 19_952, (2, 6): 1_512, (1, 5): 0,
    }.items():
        box = bitboard.box(width, height)
        flagged = 0
        for mask in range(1 << (width * height)):
            expected = forced_vertex_violations(mask_to_graph(mask, width))
            got = [(cell_point(v, width), cell_point(c, width))
                   for v, c in box.forced_vertex_violations(mask)]
            assert got == expected, (width, height, mask)
            flagged += bool(expected)
        assert flagged == flagged_masks, (width, height)


def _assert_same_oracle_answer(width: int, mask: int) -> None:
    g = mask_to_graph(mask, width)
    expected = brute_force_hamiltonian(g)
    path = brute_force_hamiltonian_mask(bitboard.box(width, width).neighbours, mask)
    if expected is None:
        assert path is None, mask
        return
    got = [cell_point(i, width) for i in path]
    assert tuple(got) == expected.verts, mask
    assert len(got) == len(g) and oracle_cycle_valid(got, set(g.vertices))


def test_mask_oracle_matches_point_oracle():
    for mask in range(1 << 9):
        _assert_same_oracle_answer(3, mask)
    rng = random.Random(20261018)
    checked = 0
    while checked < 400:
        mask = rng.randrange(1 << 16)
        if mask.bit_count() > 12:
            continue
        checked += 1
        _assert_same_oracle_answer(4, mask)


def test_mask_oracle_bound_and_tiny_inputs():
    neighbours = bitboard.box(4, 4).neighbours
    assert brute_force_hamiltonian_mask(neighbours, 0b11) is None
    assert brute_force_hamiltonian_mask(neighbours, 0b0011_0011) == [0, 1, 4, 5]
    with pytest.raises(SizeBoundExceeded):
        brute_force_hamiltonian_mask(neighbours, 0b1111, bound=3)


def point_mask(points, width: int) -> int:
    return sum(1 << (p.y * width + p.x) for p in points)


def test_closure_matches_point_closure_on_4x4_universe():
    box = bitboard.box(4, 4)
    grew = 0
    for mask in range(1 << 16):
        closed = box.close(mask)
        want, added = linear_convex_closure(mask_to_graph(mask, 4))
        assert closed == point_mask(want.vertices, 4), mask
        assert closed & ~mask == point_mask(added, 4), mask
        grew += closed != mask
    assert grew > 30000


CLOSURE_BOXES = [(1, 9), (9, 1), (2, 7), (7, 2), (5, 3), (13, 5)]


@pytest.mark.parametrize("width,height", CLOSURE_BOXES)
def test_closure_matches_all_lines_reference_on_seeded_masks(width, height):
    box = bitboard.box(width, height)
    cells = width * height
    rng = random.Random(f"closure/{width}x{height}")
    grew = 0
    for _ in range(3000):
        # The smaller of two uniform sizes: mostly sparse masks, whose closures vary most.
        size = min(rng.randint(1, cells), rng.randint(1, cells))
        mask = sum(1 << i for i in rng.sample(range(cells), size))
        closed = box.close(mask)
        assert closed == ref.close(box, mask), mask
        grew += closed != mask
    assert grew > 300


@pytest.mark.parametrize("width,height", [(4, 4), (5, 3)])
def test_closure_from_one_fresh_cell_matches_reference(width, height):
    box = bitboard.box(width, height)
    cells = [1 << i for i in range(width * height)]
    convex = [mask for mask in range(1 << width * height) if ref.close(box, mask) == mask]
    grew = 0
    for mask in convex:
        for cell in cells:
            if not mask & cell:
                closed = box.close(cell, mask)
                assert closed == ref.close(box, mask | cell), (mask, cell)
                grew += closed != mask | cell
    assert grew > 1000


@pytest.mark.parametrize("width,height", [(4, 4), *CLOSURE_BOXES])
def test_line_families_index_the_lines_through_each_cell(width, height):
    box = bitboard.box(width, height)
    rows, cols, diagonals, antidiagonals = box.line_families
    assert [len(f) for f in box.line_families] == [height, width] + [width + height - 1] * 2
    for i in range(width * height):
        y, x = divmod(i, width)
        indexed = [rows[y], cols[x], diagonals[y - x + width - 1], antidiagonals[x + y]]
        assert sorted(filter(None, indexed)) == sorted(ln for ln in box.lines if ln >> i & 1), i


def _random_graph_peak(require: set[str]):
    """A seeded 128x128 random_graph and its tracemalloc peak, box tables built afresh."""
    bitboard.box.cache_clear()
    tracemalloc.start()
    try:
        g = random_graph(EnumSpec(128, 128, min_vertices=10, require=frozenset(require), seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) >= 10 and is_two_connected(g) and is_linear_convex(g)
    return g, peak


def test_random_graph_on_a_large_box_keeps_tables_linear():
    # Per-cell neighbour tables would take O((W*H)**2) bits, about 170 MB
    # here; growing on the line masks alone peaks near 1.3 MB.
    _, peak = _random_graph_peak({"two_connected", "linear_convex"})
    assert peak < 10 * 2**20, peak


def test_local_connectivity_on_a_large_box_keeps_tables_linear():
    # Local connectivity reads each vertex's 8 neighbour bits off the mask;
    # a per-cell table of neighbour bits peaked at 141.7 MiB here.
    g, peak = _random_graph_peak({"two_connected", "linear_convex", "locally_connected"})
    assert is_locally_connected(g)
    assert peak < 10 * 2**20, peak
