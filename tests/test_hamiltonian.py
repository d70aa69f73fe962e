"""Seed-and-extend solver, rule cascade, trace soundness, brute-force oracle."""

from __future__ import annotations

import dataclasses
import random
from time import perf_counter

import pytest

import supergrid.hamiltonian
from supergrid import (
    AlreadyHamiltonian,
    Cycle,
    ExtensionRule,
    ExtensionStep,
    ExtensionTrace,
    PreconditionViolated,
    SizeBoundExceeded,
    bitboard,
    brute_force_hamiltonian,
    classify,
    extend_cycle,
    extension_steps,
    find_hamiltonian_cycle,
    from_points,
    is_linear_convex,
    seed_cycle,
    trace_to_jsonl,
    validate_cycle,
)
from supergrid.cli import run_cli
from supergrid.hamiltonian import MAX_ORACLE_BOUND
from supergrid.verification import mask_to_graph

from conftest import P, block, disc, oracle_adjacent, oracle_cycle_valid, pts


def lattice(*rows: str):
    """The graph of the ``#`` cells of lattice rows, top row at y = 0."""
    return from_points(P(x, y) for y, row in enumerate(rows) for x, c in enumerate(row) if c == "#")


# ---------------------------------------------------------------- seeding --


def test_seed_cycle_2x2(block2):
    c = seed_cycle(block2)
    assert validate_cycle(block2, c)
    assert len(c) == 3
    assert c.verts[0] == P(0, 0)  # lexicographically smallest vertex
    # derived from the documented neighbor-pair order: R and D are the first
    # adjacent pair of (0,0)'s neighbor list.
    assert c.verts == tuple(pts((0, 0), (1, 0), (0, 1)))


def test_seed_cycle_rejects_path():
    with pytest.raises(PreconditionViolated) as err:
        seed_cycle(from_points(pts((0, 0), (1, 0), (2, 0))))
    assert err.value.predicate == "two_connected"


def test_seed_cycle_rejects_non_convex():
    # 3x3 boundary ring: 2-connected but the middle line has a gap.
    ring = from_points(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    with pytest.raises(PreconditionViolated) as err:
        seed_cycle(ring)
    assert err.value.predicate == "linear_convex"


def test_seed_cycle_triangle_is_identity():
    tri = from_points(pts((0, 0), (1, 0), (1, 1)))
    c = seed_cycle(tri)
    assert c.vertex_set() == tri.vertices
    assert len(c) == 3


# -------------------------------------------------------------- extension --


def test_extend_cycle_2x2_direct_insert(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    new, step = extend_cycle(block2, c)
    assert step.rule is ExtensionRule.DIRECT_INSERT
    assert step.attached_vertex == P(0, 1)
    assert step.cycle_length_before == 3
    assert new.vertex_set() == block2.vertices
    assert validate_cycle(block2, new)


def test_extend_cycle_3x3_center_direct_insert(block3):
    ring = Cycle(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    new, step = extend_cycle(block3, ring)
    assert step.rule is ExtensionRule.DIRECT_INSERT
    assert step.attached_vertex == P(1, 1)
    assert len(new) == 9
    assert oracle_cycle_valid(list(new.verts), set(block3.vertices))


def test_extend_cycle_already_hamiltonian(block2):
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(AlreadyHamiltonian):
        extend_cycle(block2, c)


def test_extend_cycle_rejects_foreign_cycle(block2):
    with pytest.raises(ValueError):
        extend_cycle(block2, Cycle(pts((5, 5), (6, 5), (6, 6))))


def test_extension_steps_rejects_foreign_cycle_as_long_as_graph(block2):
    # A valid cycle of another graph, as long as g: it must not pass as an
    # already-complete cycle of g.
    foreign = Cycle(pts((5, 5), (6, 5), (6, 6), (5, 6)))
    with pytest.raises(ValueError):
        list(extension_steps(block2, foreign))
    with pytest.raises(ValueError):
        extend_cycle(block2, foreign)
    complete = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    assert list(extension_steps(block2, complete)) == []


@pytest.mark.parametrize("fault", ["cycle unchanged", "on-cycle vertex named", "wrong vertex named"])
def test_rewire_gate_rejects_a_wrong_result(monkeypatch, fault):
    # Rewired cycles are checked once, by the engine: a result that is not
    # the old cycle plus the one vertex its step names is a stuck step.
    g = mask_to_graph(307, 4)  # its permissive solve takes a claim rewire
    assert find_hamiltonian_cycle(g, strict=False).trace.rule_counts()["CLAIM1_REWIRE"]
    claim_rewire = supergrid.hamiltonian._claim_rewire
    calls = []

    def wrong_once(g, c, x, depth=0):
        calls.append(x)
        if len(calls) > 1:
            return None
        if fault != "wrong vertex named":
            named = x if fault == "cycle unchanged" else c.verts[1]
            return c, ExtensionStep(len(c), named, ExtensionRule.CLAIM1_REWIRE, c.verts[0])
        new, step = claim_rewire(g, c, x, depth)
        return new, dataclasses.replace(step, attached_vertex=c.verts[0])

    monkeypatch.setattr(supergrid.hamiltonian, "_claim_rewire", wrong_once)
    monkeypatch.setattr(supergrid.hamiltonian, "_fallback_search", lambda *a, **k: None)
    r = find_hamiltonian_cycle(g, strict=False)
    assert r.status == "extension_failed"
    assert {step.rule for step in r.trace.steps} == {ExtensionRule.DIRECT_INSERT}
    assert r.witness.cycle is not None and r.witness.frontier_vertex == calls[0]


def test_first_claim_rewire_instance_in_enumeration_order():
    # Discovered and pinned by the harness: the first 4x4 subset (ascending
    # bitmask order) whose strict solve cannot proceed on direct insertions
    # alone is mask 307; its second step rewires around pivot z.
    g = mask_to_graph(307, 4)
    assert g.vertices == frozenset(pts((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)))
    result = find_hamiltonian_cycle(g, strict=True)
    assert result.found
    rules = [step.rule for step in result.trace.steps]
    assert rules[0] is ExtensionRule.DIRECT_INSERT
    assert rules[1] is ExtensionRule.CLAIM1_REWIRE
    step = result.trace.steps[1]
    assert step.attached_vertex == P(0, 2)
    assert step.anchor_u1 == P(1, 1)
    assert step.pivot_z == P(0, 1)
    assert oracle_cycle_valid(list(result.cycle.verts), set(g.vertices))

    for mask in range(307):
        g_prior = mask_to_graph(mask, 4)
        if len(g_prior) < 3:
            continue
        r = find_hamiltonian_cycle(g_prior, strict=True)
        if r.status == "cycle" and r.trace.steps:
            assert all(s.rule is ExtensionRule.DIRECT_INSERT for s in r.trace.steps)


# ----------------------------------------------------------- full pipeline --


def test_find_hamiltonian_2x2(block2):
    r = find_hamiltonian_cycle(block2, strict=True)
    assert r.found and len(r.cycle) == 4
    assert validate_cycle(block2, r.cycle)


def test_find_hamiltonian_3x3(block3):
    r = find_hamiltonian_cycle(block3, strict=True)
    assert r.found and len(r.cycle) == 9
    assert oracle_cycle_valid(list(r.cycle.verts), set(block3.vertices))
    # independent existence check, plus the known witness tour
    assert brute_force_hamiltonian(block3) is not None
    witness = pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (1, 1))
    assert oracle_cycle_valid(witness, set(block3.vertices))


def test_find_hamiltonian_path_rejected():
    r = find_hamiltonian_cycle(from_points(pts((0, 0), (1, 0), (2, 0))), strict=True)
    assert r.status == "no_cycle"
    assert r.failed_predicate == "two_connected"


def test_find_hamiltonian_non_convex_rejected_in_strict_mode():
    ring = from_points(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    r = find_hamiltonian_cycle(ring, strict=True)
    assert r.status == "no_cycle"
    assert r.failed_predicate == "linear_convex"


def test_permissive_mode_probes_non_convex_graphs():
    # The 3x3 boundary ring is Hamiltonian (it is a cycle) yet not cycle
    # extendable: no 4-cycle contains the seed triangle.  Permissive mode
    # must therefore surface the stuck witness while the oracle still finds
    # the tour - Hamiltonicity without extendability.
    ring = from_points(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    r = find_hamiltonian_cycle(ring, strict=False)
    assert r.status == "extension_failed"
    assert r.witness is not None
    assert r.witness.graph == ring
    assert len(r.witness.cycle) == 3
    assert r.witness.frontier_vertex is not None
    assert brute_force_hamiltonian(ring) is not None


# The diamond and every 2-connected 4x4 mask with no triangle: all are
# Hamiltonian, so the failure is the missing seed, not a missing cycle.
@pytest.mark.parametrize("g", [
    pytest.param(from_points(pts((0, 0), (1, 1), (0, 2), (-1, 1))), id="diamond"),
    *(pytest.param(mask_to_graph(mask, 4), id=f"4x4-{mask}")
      for mask in (594, 1188, 1686, 9504, 9554, 9622, 9636, 19008,
                   19026, 19094, 19108, 26962, 26976, 27030, 27044)),
])
def test_permissive_mode_without_any_triangle(g):
    r = find_hamiltonian_cycle(g, strict=False)
    assert r.status == "extension_failed"
    assert r.trace == ExtensionTrace()
    assert trace_to_jsonl(r.trace) == ""
    assert r.witness.cycle is None
    assert brute_force_hamiltonian(g) is not None


def test_permissive_mode_still_requires_two_connected():
    r = find_hamiltonian_cycle(from_points(pts((0, 0), (1, 0), (2, 0))), strict=False)
    assert r.status == "no_cycle"
    assert r.failed_predicate == "two_connected"


def corner_pendant(n: int):
    """An n x n block and one vertex diagonally off its last corner.

    The pendant's one neighbour is a cut vertex, so the graph is linearly
    convex but not 2-connected, and DIRECT_INSERT covers all of it but the
    pendant.
    """
    return from_points([*block(n, n).vertices, P(n, n)])


@pytest.mark.parametrize("strict", [True, False])
def test_rejected_input_reaches_no_rare_rule(monkeypatch, strict):
    # The DFS runs once DIRECT_INSERT stalls, before a claim rewire or the
    # O(k^3) fallback could run on the 16,384-vertex cycle.
    def refuse(*args):
        raise AssertionError("a rare rule ran on a graph that is not 2-connected")

    g = corner_pendant(128)
    assert is_linear_convex(g)
    monkeypatch.setattr(supergrid.hamiltonian, "_claim_rewire", refuse)
    monkeypatch.setattr(supergrid.hamiltonian, "_fallback_search", refuse)
    r = find_hamiltonian_cycle(g, strict=strict)
    assert (r.status, r.failed_predicate, r.trace) == ("no_cycle", "two_connected", None)


@pytest.fixture
def dfs_calls(monkeypatch):
    """The sizes of the graphs the solver hands the 2-connectivity DFS, in call order."""
    calls, dfs = [], supergrid.hamiltonian.is_two_connected

    def counted(g, nbrs=None):
        calls.append(len(g))
        return dfs(g, nbrs)

    monkeypatch.setattr(supergrid.hamiltonian, "is_two_connected", counted)
    return calls


@pytest.mark.parametrize("g", [block(24, 24), disc(14.7, 0)], ids=["block576", "disc677"])
def test_covering_cycle_certifies_two_connectivity(dfs_calls, g):
    r = find_hamiltonian_cycle(g, strict=True)
    assert r.found and r.trace.rule_counts()["DIRECT_INSERT"] == len(g) - 3
    assert dfs_calls == []


def test_dfs_runs_once_before_the_first_rare_rule(monkeypatch, dfs_calls):
    claim, seen = supergrid.hamiltonian._claim_rewire, []

    def claim_rewire(*args):
        seen.append(len(dfs_calls))
        return claim(*args)

    monkeypatch.setattr(supergrid.hamiltonian, "_claim_rewire", claim_rewire)
    g = mask_to_graph(20159, 4)
    r = find_hamiltonian_cycle(g, strict=False)
    assert r.found and r.trace.rule_counts()["CLAIM1_REWIRE"] == 1
    assert dfs_calls == [len(g)] and seen and set(seen) == {1}


# No seed triangle: the DFS runs before the stuck outcome would be reported.
@pytest.mark.parametrize("g", [block(9, 1), block(2, 1), block(1, 1), from_points([])],
                         ids=["strip1x9", "two_vertices", "one_vertex", "empty"])
@pytest.mark.parametrize("strict", [True, False])
def test_no_seed_triangle_and_not_two_connected(g, strict):
    r = find_hamiltonian_cycle(g, strict=strict)
    assert (r.status, r.failed_predicate, r.trace, r.witness) == (
        "no_cycle", "two_connected", None, None)


def test_monotone_growth_checked_after_every_step():
    g = block(4, 3)
    c = seed_cycle(g)
    length = 3
    for cycle, step in extension_steps(g, c):
        assert step.cycle_length_before == length
        assert len(cycle) == length + 1
        assert validate_cycle(g, cycle)
        length += 1
    assert length == len(g)


@pytest.mark.parametrize("g", [block(64, 64), disc(25.2, 1)], ids=["block4096", "disc1997"])
def test_strict_solve_large_regions(g):
    r = find_hamiltonian_cycle(g, strict=True)
    assert r.found
    assert validate_cycle(g, r.cycle)
    assert r.cycle.vertex_set() == g.vertices
    lengths = [step.cycle_length_before for step in r.trace.steps]
    assert lengths == list(range(3, len(g)))


def test_solve_builds_steps_on_first_read_only(monkeypatch):
    built = []

    def counting_step(*args, **kwargs):
        built.append(args)
        return ExtensionStep(*args, **kwargs)

    monkeypatch.setattr(supergrid.hamiltonian, "ExtensionStep", counting_step)
    g = block(64, 64)
    r = find_hamiltonian_cycle(g)
    assert r.found and not built
    counts = r.trace.rule_counts()
    assert r.trace.records[::3].tolist() == list(range(3, len(g)))
    assert not built
    steps = r.trace.steps
    assert len(built) == len(steps) == len(g) - 3
    assert r.trace.steps is steps and len(built) == len(steps)
    assert counts == {rule.value: sum(s.rule is rule for s in steps) for rule in ExtensionRule}
    assert counts["DIRECT_INSERT"] == len(g) - 3
    explicit = ExtensionTrace(steps)
    assert explicit == r.trace and hash(explicit) == hash(r.trace)
    assert repr(explicit) == repr(r.trace)
    assert explicit.rule_counts() == counts and explicit.records[::3] == r.trace.records[::3]
    assert trace_to_jsonl(explicit) == trace_to_jsonl(r.trace)
    assert len(built) == len(steps)


def test_lazy_trace_keeps_rare_steps_at_their_positions():
    g = mask_to_graph(20159, 4)  # a permissive solve with a claim rewire and the fallback
    r = find_hamiltonian_cycle(g, strict=False)
    rules = [step.rule.value for step in r.trace.steps]
    direct = ["DIRECT_INSERT"]
    assert rules == direct * 2 + ["CLAIM1_REWIRE"] + direct * 4 + ["FALLBACK_SEARCH"]
    assert r.trace.records[::3].tolist() == [step.cycle_length_before for step in r.trace.steps]
    assert r.trace.rule_counts() == {rule.value: rules.count(rule.value) for rule in ExtensionRule}
    assert r.trace == ExtensionTrace(r.trace.steps) and ExtensionTrace() != r.trace


def test_jsonl_costs_less_than_the_solve():
    # trace_to_jsonl builds the ExtensionSteps a solve only recorded; on a
    # 128x128 block it takes about 0.7 of the solve's time.
    g = block(128, 128)
    solve = jsonl = float("inf")
    for _ in range(3):
        start = perf_counter()
        r = find_hamiltonian_cycle(g)
        mid = perf_counter()
        trace_to_jsonl(r.trace)
        solve, jsonl = min(solve, mid - start), min(jsonl, perf_counter() - mid)
    assert jsonl < solve, (jsonl, solve)


def test_trace_soundness_of_claim_steps():
    # Replay solves over a slab of the 4x4 universe and check the recorded
    # pivots against the side conditions each rule family requires.
    checked_claims = 0
    for mask in range(0, 1 << 16, 7):
        g = mask_to_graph(mask, 4)
        if len(g) < 3:
            continue
        r = find_hamiltonian_cycle(g, strict=True)
        if r.status != "cycle":
            continue
        # replay to recover the pre-step cycles
        cycle = seed_cycle(g)
        for step in r.trace.steps:
            assert step.cycle_length_before == len(cycle)
            if step.rule in (ExtensionRule.CLAIM1_REWIRE, ExtensionRule.CLAIM2_REWIRE):
                checked_claims += 1
                x, u1, z = step.attached_vertex, step.anchor_u1, step.pivot_z
                assert u1 in cycle.vertex_set()
                assert z in cycle.vertex_set()
                assert oracle_adjacent(x, u1)
                assert oracle_adjacent(z, u1)
                i = cycle.verts.index(u1)
                u2 = cycle.verts[(i + 1) % len(cycle)]
                uk = cycle.verts[(i - 1) % len(cycle)]
                # direct insertion was exhausted first
                assert not oracle_adjacent(x, u2) and not oracle_adjacent(x, uk)
                # the pivot flanks the anchor's cycle neighborhood
                assert oracle_adjacent(z, u2) or oracle_adjacent(z, uk)
                if step.rule is ExtensionRule.CLAIM1_REWIRE:
                    assert oracle_adjacent(z, x)
                else:
                    assert not oracle_adjacent(z, x)
                if step.pivot_y is not None:
                    assert oracle_adjacent(step.pivot_y, x)
                    assert oracle_adjacent(step.pivot_y, z)
            cycle, _ = extend_cycle(g, cycle)
        assert cycle.vertex_set() == g.vertices
    assert checked_claims >= 20


def test_frontier_choice_independence_on_samples():
    rng = random.Random(3)
    masks = [rng.randrange(1 << 16) for _ in range(600)]
    for mask in masks:
        g = mask_to_graph(mask, 4)
        if len(g) < 3:
            continue
        forward = find_hamiltonian_cycle(g, strict=True)
        backward = find_hamiltonian_cycle(g, strict=True, reverse_frontier=True)
        assert forward.status == backward.status
        if forward.found:
            assert validate_cycle(g, backward.cycle)


def test_pivot_diversion_attaches_offcycle_pivot():
    # Mask 870: after the first insertion the cycle is ((1,0),(2,1),(2,0),(1,1))
    # and the smallest frontier vertex (0,2) admits no rewiring on its own;
    # its off-cycle pivot (1,2) (a common neighbor of (0,2) and the side
    # pivot) is attached instead, recorded truthfully in the trace.
    g = mask_to_graph(870, 4)
    assert g.vertices == frozenset(pts((1, 0), (2, 0), (1, 1), (2, 1), (0, 2), (1, 2)))
    r = find_hamiltonian_cycle(g, strict=True)
    assert r.found
    step = r.trace.steps[1]
    assert step.rule is ExtensionRule.CLAIM1_REWIRE
    assert step.attached_vertex == P(1, 2)
    assert step.anchor_u1 == P(2, 1)
    assert step.pivot_z == P(1, 1)
    # (0,2) still gets attached by a later step
    assert P(0, 2) in r.cycle.vertex_set()


def test_pivot_diversion_decides_two_reversed_permissive_5x5_solves():
    # Usually the diverted pivot is itself a frontier vertex that a later
    # step attaches the same way, so switching the diversion off changes
    # nothing; among 6,000 seeded 2-connected 5x5 masks only these two solves
    # (permissive, reversed frontier) come out differently without it.
    def rules(r):
        return tuple(r.trace.rule_counts()[rule.value] for rule in ExtensionRule)

    stuck = mask_to_graph(28237787, 5)
    assert stuck == lattice("##.##", ".####", "###.#", "#.###", ".#.##")
    r = find_hamiltonian_cycle(stuck, strict=False, reverse_frontier=True)
    assert r.status == "extension_failed"
    assert rules(r) == (14, 1, 0, 0)  # 13/2/0/0 without the diversion

    solved = mask_to_graph(24042959, 5)
    assert solved == lattice("####.", ".###.", "###.#", "#.###", ".##.#")
    r = find_hamiltonian_cycle(solved, strict=False, reverse_frontier=True)
    assert r.status == "cycle"
    assert rules(r) == (13, 1, 1, 0)
    assert r.cycle.verts == tuple(pts(
        (3, 1), (2, 2), (2, 1), (3, 0), (2, 0), (1, 0), (0, 0), (1, 1), (0, 2),
        (0, 3), (1, 2), (2, 3), (1, 4), (2, 4), (3, 3), (4, 4), (4, 3), (4, 2),
    ))


def test_permissive_outputs_always_validate():
    # Fuzz over arbitrary 2-connected subsets (convex or not): every cycle
    # outcome must validate, every stuck witness must be a real stuck state.
    rng = random.Random(20260811)
    cycles = stuck = 0
    for _ in range(1500):
        g = mask_to_graph(rng.randrange(1 << 16), 4)
        if len(g) < 3:
            continue
        r = find_hamiltonian_cycle(g, strict=False)
        if r.status == "cycle":
            cycles += 1
            assert validate_cycle(g, r.cycle)
            assert r.cycle.vertex_set() == g.vertices
        elif r.status == "extension_failed":
            stuck += 1
            w = r.witness
            assert w.graph == g
            if w.cycle is not None:
                assert validate_cycle(g, w.cycle)
            if w.frontier_vertex is not None:
                assert w.frontier_vertex not in w.cycle.vertex_set()
                assert any(
                    oracle_adjacent(w.frontier_vertex, v) for v in w.cycle.verts
                )
    assert cycles > 50 and stuck > 50


# ------------------------------------------------------------ brute force --


def test_brute_force_2x2(block2):
    c = brute_force_hamiltonian(block2)
    assert c is not None and len(c) == 4
    assert oracle_cycle_valid(list(c.verts), set(block2.vertices))


def test_brute_force_path_has_no_cycle():
    assert brute_force_hamiltonian(from_points(pts((0, 0), (1, 0), (2, 0)))) is None


def test_brute_force_3x3(block3):
    c = brute_force_hamiltonian(block3)
    assert c is not None and len(c) == 9
    assert oracle_cycle_valid(list(c.verts), set(block3.vertices))


def test_brute_force_deterministic(block3):
    assert brute_force_hamiltonian(block3) == brute_force_hamiltonian(block3)


def test_brute_force_bound():
    g = block(5, 5)
    with pytest.raises(SizeBoundExceeded):
        brute_force_hamiltonian(g)
    assert brute_force_hamiltonian(g, bound=25) is not None


def test_brute_force_bound_capped_at_supported_depth(block2):
    with pytest.raises(SizeBoundExceeded, match="supported depth"):
        brute_force_hamiltonian(block2, bound=MAX_ORACLE_BOUND + 1)
    # The cap itself is reachable: a 2 x 250 ladder searches 500 levels deep.
    ladder = block(250, 2)
    c = brute_force_hamiltonian(ladder, bound=MAX_ORACLE_BOUND)
    assert c is not None and c.vertex_set() == ladder.vertices
    assert validate_cycle(ladder, c)


def test_brute_force_floods_where_the_unvisited_set_can_split():
    # The reachability flood runs only at the root and where a step can cut
    # the unvisited set, but it must run there: without it, two disjoint
    # blocks take about 20 s to give up, and 1 s bounds a regression.
    two_blocks = from_points([*block(5, 5).vertices, *block(5, 5, dx=7).vertices])
    start = perf_counter()
    assert brute_force_hamiltonian(two_blocks, bound=50) is None
    assert perf_counter() - start < 1.0
    g = block(22, 22)
    c = brute_force_hamiltonian(g, bound=len(g))
    assert c is not None and oracle_cycle_valid(list(c.verts), set(g.vertices))


def test_brute_force_anchored_at_smallest_vertex(block2):
    c = brute_force_hamiltonian(block2)
    assert c.verts[0] == P(0, 0)


def test_solver_agrees_with_oracle_on_sample():
    rng = random.Random(17)
    for _ in range(400):
        mask = rng.randrange(1 << 12)
        g = mask_to_graph(mask, 4)
        if len(g) < 3 or len(g) > 12:
            continue
        r = find_hamiltonian_cycle(g, strict=True)
        oracle = brute_force_hamiltonian(g)
        if r.found:
            assert oracle is not None
        if r.status == "no_cycle" and r.failed_predicate == "two_connected":
            assert oracle is None


def test_5x5_diamond_is_two_connected_but_not_hamiltonian(tmp_path, capsys):
    # A 3x3 grid turned 45 degrees: bipartite with sides of 5 and 4, so no
    # Hamiltonian cycle (compare Itai, Papadimitriou and Szwarcfiter 1982).
    # Every 2-connected subset of a 4x4 box is Hamiltonian; this is the
    # smallest witness that linear convexity is needed from 5x5 on.
    rows = ("..#..", ".#.#.", "#.#.#", ".#.#.", "..#..")
    g = lattice(*rows)
    assert len(g) == 9
    report = classify(g)
    assert (report.two_connected, report.linear_convex, report.locally_connected) == (True, False, False)
    box = bitboard.box(5, 5)
    mask = sum(1 << (v.y * 5 + v.x) for v in g.vertices)
    assert box.is_two_connected(mask)
    assert not box.is_linear_convex(mask)
    assert not box.is_locally_connected(mask)

    assert brute_force_hamiltonian(g) is None
    path = tmp_path / "diamond.txt"
    path.write_text("\n".join(rows) + "\n")
    assert run_cli(["oracle", str(path)]) == 2
    assert capsys.readouterr().out == "none\n"
    assert run_cli(["hamcycle", str(path), "--strict"]) == 2
    assert "linear_convex fails" in capsys.readouterr().err

    assert find_hamiltonian_cycle(g, strict=False).status == "extension_failed"
