"""Acceptance suite: exhaustive machine verification at stated tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The heavyweight artifacts (the 4x4 box sweep and the strict
solves) are computed once per session and shared across criteria; criteria
with stated runtime bounds time their own computation.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import pytest

from supergrid import (
    Cycle,
    EnumSpec,
    PathSeq,
    brute_force_hamiltonian,
    concat_cycle_path,
    concat_cycles_edges,
    concat_cycles_shared_vertex,
    enumerate_graphs,
    find_hamiltonian_cycle,
    from_points,
    insert_vertex,
    random_graph,
    validate_cycle,
)
from supergrid import bitboard
from supergrid.cli import run_cli
from supergrid.lattice_io import parse_cycle, parse_lattice
from supergrid.verification import forced_vertex_violations, mask_to_graph

from conftest import BoxSweep, P, cell_point, oracle_adjacent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BOX_BITS = 16  # the 4x4 acceptance box


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


@dataclass
class StrictSolves:
    elapsed: float
    failures: list[int] = field(default_factory=list)
    growth_violations: list[int] = field(default_factory=list)
    found_masks: set[int] = field(default_factory=set)
    rule_counts: dict[str, int] = field(default_factory=dict)


@pytest.fixture(scope="session")
def strict_solves(box_sweep: BoxSweep) -> StrictSolves:
    start = perf_counter()
    out = StrictSolves(elapsed=0.0, rule_counts={
        "DIRECT_INSERT": 0, "CLAIM1_REWIRE": 0, "CLAIM2_REWIRE": 0, "FALLBACK_SEARCH": 0,
    })
    for mask in box_sweep.strict_masks:
        g = mask_to_graph(mask, 4)
        result = find_hamiltonian_cycle(g, strict=True)
        if result.status != "cycle" or not validate_cycle(g, result.cycle) \
                or result.cycle.vertex_set() != g.vertices:
            out.failures.append(mask)
            continue
        out.found_masks.add(mask)
        expected = 3
        for step in result.trace.steps:
            if step.cycle_length_before != expected:
                out.growth_violations.append(mask)
                break
            expected += 1
        else:
            if expected != len(g):
                out.growth_violations.append(mask)
        for name, count in result.trace.rule_counts().items():
            out.rule_counts[name] += count
    out.elapsed = perf_counter() - start
    return out


def test_criterion_1_local_connectivity_over_4x4(box_sweep: BoxSweep):
    ok = (
        not box_sweep.local_connectivity_violations
        and len(box_sweep.linear_convex_masks) > 0
        and box_sweep.elapsed < 30.0
    )
    _report(
        "criterion 1 (2-connected + linearly convex => locally connected, 4x4)",
        ok,
        f"{len(box_sweep.strict_masks)} qualifying graphs, "
        f"{len(box_sweep.local_connectivity_violations)} violations, "
        f"{box_sweep.elapsed:.1f}s",
    )
    assert box_sweep.local_connectivity_violations == []
    assert box_sweep.elapsed < 30.0


def test_criterion_2_forced_vertex_implications(box_sweep: BoxSweep):
    bad = []
    for mask in box_sweep.linear_convex_masks:
        if forced_vertex_violations(mask_to_graph(mask, 4)):
            bad.append(mask)
    _report(
        "criterion 2 (forced side-vertex implications on linearly convex graphs)",
        not bad,
        f"{len(box_sweep.linear_convex_masks)} graphs, {len(bad)} violations",
    )
    assert bad == []


def test_kernel_matches_point_sweep_over_4x4(box_sweep: BoxSweep):
    # The box-mask kernel that ``verify`` runs on must reproduce, mask for
    # mask, the sets the fixture computed with the Point predicates.
    box = bitboard.box(4, 4)
    lc, tc, strict, local_bad = [], set(), [], []
    for mask in range(1 << BOX_BITS):
        is_lc = box.is_linear_convex(mask)
        is_tc = box.is_two_connected(mask)
        if is_lc:
            lc.append(mask)
        if is_tc:
            tc.add(mask)
        if is_lc and is_tc:
            strict.append(mask)
            if not box.is_locally_connected(mask):
                local_bad.append(mask)
    assert lc == box_sweep.linear_convex_masks
    assert tc == box_sweep.two_connected_masks
    assert strict == box_sweep.strict_masks
    assert local_bad == box_sweep.local_connectivity_violations
    for mask in box_sweep.linear_convex_masks:
        got = [(cell_point(v, 4), cell_point(c, 4))
               for v, c in box.forced_vertex_violations(mask)]
        assert got == forced_vertex_violations(mask_to_graph(mask, 4)), mask


def test_criterion_3_extendability_and_hamiltonicity(
    box_sweep: BoxSweep, strict_solves: StrictSolves
):
    random_failures = []
    start = perf_counter()
    for seed in range(1000):
        spec = EnumSpec(
            width=8, height=8,
            min_vertices=8 + (seed % 45),
            require=frozenset({"two_connected", "linear_convex"}),
            seed=seed,
        )
        g = random_graph(spec)
        result = find_hamiltonian_cycle(g, strict=True)
        if result.status != "cycle" or result.cycle.vertex_set() != g.vertices:
            random_failures.append(seed)
    random_elapsed = perf_counter() - start
    total_elapsed = strict_solves.elapsed + random_elapsed
    ok = (
        not strict_solves.failures
        and not strict_solves.growth_violations
        and len(strict_solves.found_masks) == len(box_sweep.strict_masks)
        and not random_failures
        and total_elapsed < 120.0
    )
    _report(
        "criterion 3 (100% strict solves, +1 growth per step, 1000 random 8x8)",
        ok,
        f"{len(box_sweep.strict_masks)} exhaustive + 1000 random solves, "
        f"{total_elapsed:.1f}s",
    )
    assert strict_solves.failures == []
    assert strict_solves.growth_violations == []
    assert len(strict_solves.found_masks) == len(box_sweep.strict_masks)
    assert random_failures == []
    assert total_elapsed < 120.0


def test_criterion_4_oracle_equivalence(box_sweep: BoxSweep, strict_solves: StrictSolves):
    forward = []   # strict success but the oracle finds nothing
    backward = []  # oracle finds a cycle in a graph failing 2-connectivity
    checked = 0
    for mask in range(1 << BOX_BITS):
        g = mask_to_graph(mask, 4)
        if len(g) > 12:
            continue
        checked += 1
        oracle = brute_force_hamiltonian(g)
        if mask in strict_solves.found_masks and oracle is None:
            forward.append(mask)
        if mask not in box_sweep.two_connected_masks and oracle is not None:
            backward.append(mask)
    ok = not forward and not backward
    _report(
        "criterion 4 (oracle equivalence on all graphs with <= 12 vertices)",
        ok,
        f"{checked} graphs checked, {len(forward) + len(backward)} discrepancies",
    )
    assert forward == []
    assert backward == []


def test_criterion_5_rule_frequency_golden(box_sweep: BoxSweep, strict_solves: StrictSolves):
    with open(os.path.join(GOLDEN, "rule_frequencies_4x4.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    recomputed = dict(sorted(strict_solves.rule_counts.items()))
    recomputed["strict_instances"] = len(box_sweep.strict_masks)
    fallback = strict_solves.rule_counts["FALLBACK_SEARCH"]
    ok = recomputed == golden and fallback == 0
    _report(
        "criterion 5 (rule-frequency table matches golden; fallback fired 0 times)",
        ok,
        ", ".join(f"{k}={v}" for k, v in recomputed.items()),
    )
    assert fallback == 0, "fallback fired; trace flagged for audit"
    assert recomputed == golden


@pytest.fixture(scope="session")
def tour_pool() -> list[tuple]:
    """Solved (graph, Hamiltonian cycle) pairs used to build merge instances."""
    pool = []
    for width, height in ((3, 3), (4, 3), (3, 4)):
        spec = EnumSpec(
            width=width, height=height, min_vertices=4,
            require=frozenset({"two_connected", "linear_convex"}),
        )
        for g in itertools.islice(enumerate_graphs(spec), 500):
            result = find_hamiltonian_cycle(g, strict=True)
            assert result.found
            pool.append((g, result.cycle))
    return pool


def _translated_cycle(c: Cycle, dx: int, dy: int) -> Cycle:
    return Cycle(tuple(P(p.x + dx, p.y + dy) for p in c.verts))


def test_criterion_6_merge_operations_randomized(tour_pool):
    rng = random.Random(20260811)
    per_op = 2500
    violations = 0

    done = 0
    while done < per_op:  # insert_vertex
        g, ham = tour_pool[rng.randrange(len(tour_pool))]
        if len(ham) < 4:
            continue
        k = len(ham)
        candidates = [
            i for i in range(k)
            if oracle_adjacent(ham.verts[(i - 1) % k], ham.verts[(i + 1) % k])
        ]
        if not candidates:
            continue
        i = candidates[rng.randrange(len(candidates))]
        x = ham.verts[i]
        reduced = Cycle(ham.verts[:i] + ham.verts[i + 1 :])
        out = insert_vertex(g, reduced, x)
        if not validate_cycle(g, out) or out.vertex_set() != reduced.vertex_set() | {x} \
                or len(out) != len(reduced) + 1:
            violations += 1
        done += 1

    done = 0
    while done < per_op:  # concat_cycle_path
        g, ham = tour_pool[rng.randrange(len(tour_pool))]
        k = len(ham)
        if k < 5:
            continue
        s = rng.randrange(k)
        m = rng.randint(1, k - 3)
        doubled = ham.verts + ham.verts
        arc = doubled[s : s + m]
        rest = doubled[s + m : s + k]
        if not oracle_adjacent(rest[-1], rest[0]):
            continue
        out = concat_cycle_path(g, Cycle(rest), PathSeq(arc))
        if not validate_cycle(g, out) or out.vertex_set() != ham.vertex_set() \
                or len(out) != k:
            violations += 1
        done += 1

    done = 0
    while done < per_op:  # concat_cycles_edges
        g1, h1 = tour_pool[rng.randrange(len(tour_pool))]
        g2, h2 = tour_pool[rng.randrange(len(tour_pool))]
        dx = g1.bounding_box()[2] - g2.bounding_box()[0] + 1
        dy = rng.randint(-2, 2)
        moved = _translated_cycle(h2, dx, dy)
        bridgeable = any(
            (oracle_adjacent(a1, a2) and oracle_adjacent(b1, b2))
            or (oracle_adjacent(a1, b2) and oracle_adjacent(b1, a2))
            for a1, b1 in h1.edges()
            for a2, b2 in moved.edges()
        )
        if not bridgeable:
            continue
        combined = from_points(list(h1.verts) + list(moved.verts))
        out = concat_cycles_edges(combined, h1, moved)
        expected = h1.vertex_set() | moved.vertex_set()
        if not validate_cycle(combined, out) or out.vertex_set() != expected \
                or len(out) != len(h1) + len(moved):
            violations += 1
        done += 1

    done = 0
    while done < per_op:  # concat_cycles_shared_vertex
        g1, h1 = tour_pool[rng.randrange(len(tour_pool))]
        g2, h2 = tour_pool[rng.randrange(len(tour_pool))]
        v1 = h1.verts[rng.randrange(len(h1))]
        v2 = h2.verts[rng.randrange(len(h2))]
        moved = _translated_cycle(h2, v1.x - v2.x, v1.y - v2.y)
        if len(h1.vertex_set() & moved.vertex_set()) != 1:
            continue
        i1, i2 = h1.verts.index(v1), moved.verts.index(v1)
        k1, k2 = len(h1), len(moved)
        flank1 = (h1.verts[(i1 - 1) % k1], h1.verts[(i1 + 1) % k1])
        flank2 = (moved.verts[(i2 - 1) % k2], moved.verts[(i2 + 1) % k2])
        if not any(oracle_adjacent(u, w) for u in flank1 for w in flank2):
            continue
        combined = from_points(list(h1.verts) + list(moved.verts))
        out = concat_cycles_shared_vertex(combined, h1, moved)
        expected = h1.vertex_set() | moved.vertex_set()
        if not validate_cycle(combined, out) or out.vertex_set() != expected \
                or len(out) != len(h1) + len(moved) - 1:
            violations += 1
        done += 1

    _report(
        "criterion 6 (10,000 randomized merge applications)",
        violations == 0,
        f"{4 * per_op} applications, {violations} violations",
    )
    assert violations == 0


def test_property_frontier_choice_independence_full(box_sweep: BoxSweep):
    # Not a numbered criterion, but a stated solver property: success must
    # not depend on the frontier tie-break, over the whole exhaustive set.
    failures = [
        mask
        for mask in box_sweep.strict_masks
        if not find_hamiltonian_cycle(
            mask_to_graph(mask, 4), strict=True, reverse_frontier=True
        ).found
    ]
    _report(
        "property (frontier-choice independence over the full 4x4 strict set)",
        not failures,
        f"{len(box_sweep.strict_masks)} graphs re-solved largest-first",
    )
    assert failures == []


def test_criterion_7_cli_end_to_end(capsys, tmp_path):
    code = run_cli(["verify", "--box", "4x4"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, "verify_4x4.txt"), encoding="utf-8") as fh:
        verify_ok = code == 0 and "violations: 0" in out and out == fh.read()

    code = run_cli(["hamcycle", os.path.join(FIXTURES, "block3x3.txt")])
    captured = capsys.readouterr().out
    graph = parse_lattice(open(os.path.join(FIXTURES, "block3x3.txt")).read())
    hamcycle_ok = code == 0 and validate_cycle(graph, parse_cycle(captured))

    out_svg = tmp_path / "block2x2.svg"
    code = run_cli([
        "trace", os.path.join(FIXTURES, "block2x2.txt"),
        "--svg", str(out_svg), "--cell", "10",
    ])
    capsys.readouterr()
    golden_svg = open(os.path.join(GOLDEN, "block2x2_trace.svg"), encoding="utf-8").read()
    svg_ok = code == 0 and out_svg.read_text() == golden_svg

    with capsys.disabled():
        _report(
            "criterion 7 (CLI verify/hamcycle/SVG end to end)",
            verify_ok and hamcycle_ok and svg_ok,
            f"verify={'ok' if verify_ok else 'FAIL'}, "
            f"hamcycle={'ok' if hamcycle_ok else 'FAIL'}, svg={'ok' if svg_ok else 'FAIL'}",
        )
    assert verify_ok
    assert hamcycle_ok
    assert svg_ok
