"""Exhaustive enumeration, canonical forms, and randomized generation."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from supergrid import (
    BoxTooLarge,
    EnumSpec,
    GenerationBudgetExhausted,
    canonical_form,
    enumerate_graphs,
    from_points,
    is_connected,
    is_linear_convex,
    is_two_connected,
    linear_convex_closure,
    random_graph,
)
from supergrid import bitboard
from supergrid.bitboard import mask_to_graph
from supergrid.enumeration import PREDICATES, _box_subsets

from conftest import (
    P,
    oracle_connected,
    oracle_linear_convex,
    oracle_locally_connected,
    oracle_two_connected,
    pts,
)


def test_enumerate_2x2_strict_instances():
    spec = EnumSpec(width=2, height=2, min_vertices=3,
                    require=frozenset({"two_connected", "linear_convex"}))
    graphs = list(enumerate_graphs(spec))
    assert len(graphs) == 5
    sizes = sorted(len(g) for g in graphs)
    assert sizes == [3, 3, 3, 3, 4]


def test_enumerate_2x2_strict_matches_independent_filter():
    # Second, separately coded filter: brute-force all 16 subsets.
    cells = pts((0, 0), (1, 0), (0, 1), (1, 1))
    expected = 0
    for r in range(5):
        for combo in itertools.combinations(cells, r):
            if len(combo) >= 3 and oracle_two_connected(list(combo)) \
                    and oracle_linear_convex(list(combo)):
                expected += 1
    spec = EnumSpec(width=2, height=2, min_vertices=3,
                    require=frozenset({"two_connected", "linear_convex"}))
    assert sum(1 for _ in enumerate_graphs(spec)) == expected


def test_enumerate_1x3_two_connected_is_empty():
    spec = EnumSpec(width=1, height=3, min_vertices=3, require=frozenset({"two_connected"}))
    assert list(enumerate_graphs(spec)) == []


def test_enumerate_2x2_all_nonempty():
    spec = EnumSpec(width=2, height=2, min_vertices=1)
    assert sum(1 for _ in enumerate_graphs(spec)) == 15


def test_enumerate_counts_cross_check_2x3():
    # Independent recount of the filtered totals for the 2x3 box.
    cells = [P(x, y) for y in range(3) for x in range(2)]
    expected = {"connected": 0, "two_connected": 0, "linear_convex": 0, "locally_connected": 0}
    for mask in range(1 << 6):
        combo = [cells[i] for i in range(6) if mask >> i & 1]
        if oracle_connected(combo) and combo:
            expected["connected"] += 1
        if oracle_two_connected(combo):
            expected["two_connected"] += 1
        if combo and oracle_linear_convex(combo):
            expected["linear_convex"] += 1
        if combo and oracle_locally_connected(combo):
            expected["locally_connected"] += 1
    for name, want in expected.items():
        spec = EnumSpec(width=2, height=3, min_vertices=1, require=frozenset({name}))
        assert sum(1 for _ in enumerate_graphs(spec)) == want, name


def test_enumerate_order_is_ascending_bitmask():
    spec = EnumSpec(width=2, height=2, min_vertices=1)
    first = next(iter(enumerate_graphs(spec)))
    assert first.vertices == frozenset([P(0, 0)])  # mask 1 = cell (0,0)


def test_enumerate_box_cap():
    # With two_connected the cap must raise before the subset table (2**30 bytes) is made.
    for require in (frozenset(), frozenset({"two_connected"})):
        with pytest.raises(BoxTooLarge):
            list(enumerate_graphs(EnumSpec(width=6, height=5, require=require)))


def _masks_4x4(graphs) -> list[int]:
    return [sum(1 << (p.y * 4 + p.x) for p in g.vertices) for g in graphs]


@pytest.mark.parametrize("flood", ["kept", "raises"])
def test_enumerate_two_connected_reads_the_subset_table(box_sweep, monkeypatch, flood):
    # The whole-box walk reads 2-connectivity from the subset table, checked
    # against the Point predicates over every 4x4 mask, and floods no mask on
    # its own.  The listed pass floods each linearly convex mask by design, so
    # the strict spec is checked without the stub.
    strict = EnumSpec(4, 4, require={"two_connected", "linear_convex"})
    assert _masks_4x4(enumerate_graphs(strict)) == box_sweep.strict_masks
    if flood == "raises":
        def no_flood(self, mask):
            raise AssertionError("enumerate_graphs flooded a mask for 2-connectivity")
        monkeypatch.setattr(bitboard.Box, "is_two_connected", no_flood)
    two_connected = sorted(box_sweep.two_connected_masks)
    for min_vertices in (0, 5):
        spec = EnumSpec(4, 4, min_vertices=min_vertices, require={"two_connected"})
        assert _masks_4x4(enumerate_graphs(spec)) == [
            m for m in two_connected if m.bit_count() >= min_vertices]


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("width,height", [(4, 4), (5, 3), (3, 5)])
def test_listed_pass_reads_no_subset_table(monkeypatch, width, height, dedup):
    # With linear_convex required, the walk over the generated list floods
    # each mask instead of building the table, and keeps exactly the whole
    # walk's convex tuples, flags and canonical forms included.  A class's
    # masks share their size, so --min 5 keeps the whole walk's tuples of
    # five or more cells.
    others = [set(), {"connected"}, {"two_connected"}, {"locally_connected"}]
    whole = [list(_box_subsets(EnumSpec(width, height, 0, require, dedup))) for require in others]

    def no_table(*args):
        raise AssertionError("the listed pass built a subset table")

    monkeypatch.setattr(bitboard.Box, "two_connected_sweep", no_table)
    monkeypatch.setattr(bitboard.Box, "fill_two_connected", no_table)
    for require, kept in zip(others, whole):
        for min_vertices in (0, 5):
            spec = EnumSpec(width, height, min_vertices, require | {"linear_convex"}, dedup)
            assert list(_box_subsets(spec)) == [
                t for t in kept if t[3] and t[0].bit_count() >= min_vertices], require


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("min_vertices", [0, 5])
@pytest.mark.parametrize("width,height", [(4, 4), (5, 3)])
def test_linear_convex_enumeration_is_the_filter(width, height, min_vertices, dedup):
    # The enumeration walks the box's generated list; the filter tests every mask.
    box, want, seen = bitboard.box(width, height), [], set()
    for mask in range(box.full + 1):
        if box.is_linear_convex(mask) and mask.bit_count() >= min_vertices:
            g = mask_to_graph(mask, width)
            if dedup:
                if (g := canonical_form(g)) in seen:
                    continue
                seen.add(g)
            want.append(g.vertices)
    spec = EnumSpec(width, height, min_vertices, {"linear_convex"}, dedup)
    assert [g.vertices for g in enumerate_graphs(spec)] == want


@pytest.mark.parametrize("require", [set(), {"connected"}, {"two_connected"}])
def test_box_subsets_flag_linear_convexity(require):
    box = bitboard.box(4, 4)
    kept = list(_box_subsets(EnumSpec(4, 4, min_vertices=3, require=require)))
    assert any(lc for _, _, _, lc, _ in kept)
    assert [lc for _, _, _, lc, _ in kept] == [box.is_linear_convex(m) for m, *_ in kept]


def test_canonical_form_translation():
    assert canonical_form(from_points(pts((5, 5), (6, 5)))).vertices == frozenset(
        pts((0, 0), (1, 0))
    )


def test_canonical_form_rotation_of_domino():
    vertical = from_points(pts((0, 0), (0, 1)))
    assert canonical_form(vertical).vertices == frozenset(pts((0, 0), (1, 0)))


def test_canonical_form_l_tromino_orientations():
    # All four orientations (and their reflections) canonicalize identically.
    base = pts((0, 0), (0, 1), (1, 1))
    symmetries = [
        lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
        lambda x, y: (y, -x), lambda x, y: (-x, y), lambda x, y: (x, -y),
        lambda x, y: (y, x), lambda x, y: (-y, -x),
    ]
    forms = {
        tuple(
            sorted(
                canonical_form(from_points([P(*sym(p.x, p.y)) for p in base])).vertices,
                key=lambda p: (p.y, p.x),
            )
        )
        for sym in symmetries
    }
    assert len(forms) == 1


def test_canonical_form_idempotent_and_invariant_on_3x3_universe():
    from supergrid.verification import mask_to_graph

    symmetries = [
        lambda x, y: (-y, x), lambda x, y: (y, x), lambda x, y: (-x, -y),
    ]
    for mask in range(1, 1 << 9):
        g = mask_to_graph(mask, 3)
        canon = canonical_form(g)
        assert canonical_form(canon) == canon
        for sym in symmetries:
            image = from_points(P(*sym(p.x, p.y)) for p in g.vertices)
            assert canonical_form(image) == canon
        shifted = g.translate(4, -7)
        assert canonical_form(shifted) == canon


def test_dedup_symmetry_reduces_counts():
    plain = EnumSpec(width=2, height=2, min_vertices=1)
    dedup = EnumSpec(width=2, height=2, min_vertices=1, dedup_symmetry=True)
    all_count = sum(1 for _ in enumerate_graphs(plain))
    unique = list(enumerate_graphs(dedup))
    assert all_count == 15
    # 1 single, 2 dominoes (axis/diagonal), 2 trominoes (L/diagonal-ish), 1 block
    assert len(unique) == len({tuple(g.sorted_vertices()) for g in unique})
    assert len(unique) < all_count
    for g in unique:
        assert canonical_form(g) == g


def test_random_graph_meets_required_predicates():
    spec = EnumSpec(width=8, height=8, min_vertices=10,
                    require=frozenset({"two_connected", "linear_convex"}), seed=42)
    g = random_graph(spec)
    assert len(g) >= 10
    assert is_two_connected(g)
    assert is_linear_convex(g)


def test_random_graph_deterministic_per_seed():
    spec = EnumSpec(width=8, height=8, min_vertices=12,
                    require=frozenset({"two_connected", "linear_convex"}), seed=7)
    assert random_graph(spec) == random_graph(spec)
    other = EnumSpec(width=8, height=8, min_vertices=12,
                     require=frozenset({"two_connected", "linear_convex"}), seed=8)
    assert random_graph(other) != random_graph(spec) or len(random_graph(other)) >= 12


STRICT = frozenset({"two_connected", "linear_convex"})


def test_random_graph_pinned_on_large_strict_boxes():
    # Boxes where the Point reference generator is too slow to compare with;
    # the values are those of a 2-connectivity check flooding once per vertex.
    small = random_graph(EnumSpec(128, 128, min_vertices=10, require=STRICT, seed=0))
    assert small == from_points(pts(
        (78, 97), (79, 97), (78, 98), (79, 98), (80, 98), (78, 99), (79, 99), (80, 99),
        (78, 100), (79, 100), (80, 100)))
    large = random_graph(EnumSpec(64, 64, min_vertices=600, require=STRICT, seed=1))
    listing = repr(sorted((p.x, p.y) for p in large.vertices)).encode()
    assert len(large) == 601
    assert hashlib.sha256(listing).hexdigest() == (
        "6dd18058ed250f1455517e5515a1441733f7e1d74faa095dbbe1f4893d54d0b7")


@pytest.mark.parametrize("width,height", [(8, 8), (5, 3), (12, 12)])
def test_growth_keeps_every_blob_connected_and_linearly_convex(monkeypatch, width, height):
    # Growth guarantees both, which is why random_graph tests neither name in
    # require and never asks the kernel whether a mask is linearly convex.
    def no_test(self, mask):
        raise AssertionError("random_graph tested a mask for linear convexity")

    monkeypatch.setattr(bitboard.Box, "is_linear_convex", no_test)
    for seed in range(200):
        spec = EnumSpec(width, height, min_vertices=1 + seed % (width * height), seed=seed)
        g = random_graph(spec)
        assert len(g) >= spec.min_vertices
        assert is_connected(g) and is_linear_convex(g), seed
        both = EnumSpec(width, height, spec.min_vertices, {"connected", "linear_convex"}, seed=seed)
        assert random_graph(both) == g, seed


def test_random_graph_budget_exhausted_on_impossible_spec():
    with pytest.raises(GenerationBudgetExhausted):
        random_graph(EnumSpec(width=1, height=1, require=frozenset({"two_connected"})))


def test_linear_convex_closure_output_is_convex_and_minimal():
    import random as _random

    rng = _random.Random(20260811)
    checked = 0
    while checked < 100:
        points = {
            P(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(2, 12))
        }
        closed, added = linear_convex_closure(from_points(points))
        assert is_linear_convex(closed)
        assert oracle_linear_convex(list(closed.vertices))
        for extra in added:
            reduced = [p for p in closed.vertices if p != extra]
            assert not oracle_linear_convex(reduced)
        checked += 1


def test_predicate_registry_matches_classify_functions():
    g = from_points(pts((0, 0), (1, 0), (2, 0)))
    assert PREDICATES["connected"](g)
    assert not PREDICATES["two_connected"](g)
    assert PREDICATES["linear_convex"](g)
    assert not PREDICATES["locally_connected"](g)
