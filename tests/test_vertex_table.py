"""Differential gate: the packed-key vertex table against the tuple-keyed reference.

``reference_grid`` keeps, verbatim, the ``vertex_ids`` that keyed each vertex
by an ``(x, y)`` tuple.  The library's table keys it by one packed int over
the bounding box; both must give the same points, in the same order, and
the same neighbour-id lists, also far from the origin and on graphs whose
vertices lie up to ``2 * MAX_COORD`` apart.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from supergrid.bitboard import mask_to_graph
from supergrid.grid import MAX_COORD, Point, SupergridGraph, vertex_ids

import reference_grid as ref
from conftest import block
from test_predicates_beyond_4x4 import _seeded_masks  # 1,200 masks per box

ROOT = Path(__file__).resolve().parents[1]


def assert_same_table(g: SupergridGraph, label=None) -> None:
    points, nbrs = vertex_ids(g)
    want_points, _, want_nbrs = ref.vertex_ids(g)
    assert points == want_points, label
    assert nbrs == want_nbrs, label


def sewing_regions(seed: int) -> list[SupergridGraph]:
    """The benchmark's five sewing regions for one seed (``perfbench/regions.py``)."""
    spec = importlib.util.spec_from_file_location("regions", ROOT / "perfbench" / "regions.py")
    regions = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regions)
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))
    lib = SimpleNamespace(**{name: importlib.import_module("supergrid." + name)
                             for name in ("grid", "classify", "enumeration")})
    rng = random.Random(f"sewing-regions/{seed}")
    slots = catalog["workloads"]["sewing-regions"]["regions"]
    return [regions.make_region(kind, target, rng, lib) for kind, target in slots]


def test_vertex_ids_matches_reference_on_translated_4x4_universe():
    for mask in range(1 << 16):
        assert_same_table(mask_to_graph(mask, 4).translate(-5, -3), mask)


@pytest.mark.parametrize("width, height, seed", [(6, 6, 16), (7, 7, 17)])
def test_vertex_ids_matches_reference_on_seeded_masks(width, height, seed):
    for mask in _seeded_masks(width, height, seed):
        assert_same_table(mask_to_graph(mask, width).translate(-width, 2 * height), mask)


def test_vertex_ids_matches_reference_on_sewing_regions():
    regions = sewing_regions(0)
    assert [len(g) for g in regions] == [200, 319, 440, 563, 680]
    for g in regions:
        assert_same_table(g, len(g))


def test_vertex_ids_matches_reference_near_max_coord():
    dx, dy = MAX_COORD - 10, -MAX_COORD
    for width, height in ((1, 1), (1, 5), (5, 1), (3, 3), (10, 4)):
        assert_same_table(block(width, height, dx, dy), (width, height))
    ring = [p for p in block(5, 5, dx, dy).vertices if p != Point(dx + 2, dy + 2)]
    assert_same_table(SupergridGraph(ring), "ring")


def test_vertex_ids_is_sparse_on_far_apart_blocks():
    # Two 3x3 blocks at opposite corners of the coordinate range: a dense
    # index over their bounding box would need about 2**62 slots.
    g = SupergridGraph([*block(3, 3, -MAX_COORD, -MAX_COORD).vertices,
                        *block(3, 3, MAX_COORD - 2, MAX_COORD - 2).vertices])
    tracemalloc.start()
    try:
        points, nbrs = vertex_ids(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert points == ref.vertex_ids(g)[0] and nbrs == ref.vertex_ids(g)[2]
    assert [len(row) for row in nbrs] == [3, 5, 3, 5, 8, 5, 3, 5, 3] * 2
