"""Differential gate: the incremental extension engine against the reference.

``reference_engine`` keeps, verbatim, the per-step rebuild engine the library
used before its incremental one.  Both must return identical
HamiltonianResults: the status, the cycle, every ExtensionStep field, and the
witness's cycle and frontier vertex.  Single ``extend_cycle`` calls on
intermediate cycles must agree as well, including the exceptions they raise,
and so must the rare-path rules and pivot reassemblies, called directly.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from supergrid import (
    AlreadyHamiltonian,
    Cycle,
    EnumSpec,
    ExtensionStuck,
    extend_cycle,
    extension_steps,
    find_hamiltonian_cycle,
    from_points,
    random_graph,
)
from supergrid import bitboard, hamiltonian
from supergrid.bitboard import mask_to_graph
from supergrid.grid import Point, neighbors
from supergrid.hamiltonian import _seed_and_extend, _seed_triangle

import reference_engine as ref
from conftest import block, disc, pts

STRICT = frozenset({"two_connected", "linear_convex"})


def assert_same_solve(g, *, strict: bool = True, reverse: bool = False, label=None):
    got = find_hamiltonian_cycle(g, strict=strict, reverse_frontier=reverse)
    want = ref.find_hamiltonian_cycle(g, strict=strict, reverse_frontier=reverse)
    assert got == want, (label, reverse)


def test_gate_strict_4x4_both_frontier_orders(box_sweep):
    assert len(box_sweep.strict_masks) == 1773
    for mask in box_sweep.strict_masks:
        g = mask_to_graph(mask, 4)
        for reverse in (False, True):
            assert_same_solve(g, reverse=reverse, label=mask)


def test_gate_permissive_4x4(box_sweep):
    # Every graph here is 2-connected, so the library side skips the
    # precheck, which the reference runs and passes.
    statuses: Counter[str] = Counter()
    rules: Counter[str] = Counter()
    for mask in sorted(box_sweep.two_connected_masks):
        g = mask_to_graph(mask, 4)
        result = _seed_and_extend(g)
        assert result == ref.find_hamiltonian_cycle(g, strict=False), mask
        statuses[result.status] += 1
        if result.found:
            rules.update(result.trace.rule_counts())
    assert statuses == {"cycle": 4163, "extension_failed": 4270}
    assert rules == {
        "DIRECT_INSERT": 25715,
        "CLAIM1_REWIRE": 1552,
        "CLAIM2_REWIRE": 127,
        "FALLBACK_SEARCH": 80,
    }


def test_gate_random_8x8_seeds():
    for seed in range(200):
        spec = EnumSpec(width=8, height=8, min_vertices=8 + (seed % 45), require=STRICT, seed=seed)
        assert_same_solve(random_graph(spec), label=seed)


def test_gate_sewing_scale_regions():
    # Seed 3 of the grown region is used because its forward solve makes a
    # claim rewire mid-run, so the engine rebuilds its state on a long cycle.
    grown = random_graph(EnumSpec(width=20, height=20, min_vertices=300, require=STRICT, seed=3))
    assert_same_solve(block(24, 24), label="24x24")
    for name, g in (("disc", disc(9.8, 0)), ("grown", grown)):
        assert 295 <= len(g) <= 310
        for reverse in (False, True):
            assert_same_solve(g, reverse=reverse, label=name)


def _extend_outcome(extend, g, c, reverse):
    try:
        return extend(g, c, reverse_frontier=reverse)
    except ExtensionStuck as stuck:
        return "stuck", stuck.witness
    except (AlreadyHamiltonian, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _reference_cycles(g) -> list[Cycle]:
    """The seed and every cycle the reference grows from it, up to a stuck step."""
    cycles = [_seed_triangle(g)]
    try:
        cycles.extend(c for c, _ in ref.extension_steps(g, cycles[0]))
    except ExtensionStuck:
        pass
    return cycles


# 4x4 masks whose permissive solves take a claim rewire (307, and 870 with a
# diversion), a CLAIM2 rewire (3702), the fallback (20158, 20159) or get stuck
# after three steps (1463).
SINGLE_STEP_MASKS = (307, 870, 3702, 20158, 20159, 1463)


@pytest.mark.parametrize("reverse", [False, True])
def test_gate_single_extend_cycle_calls(reverse):
    ring = from_points(pts((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    graphs = [mask_to_graph(m, 4) for m in SINGLE_STEP_MASKS] + [block(6, 5), ring]
    for g in graphs:
        for c in _reference_cycles(g):
            # Rotations and reversal move verts[0], and with it every position.
            for variant in (c, c.rotated_to(len(c) // 2), c.reversed_cycle()):
                got = _extend_outcome(extend_cycle, g, variant, reverse)
                assert got == _extend_outcome(ref.extend_cycle, g, variant, reverse), (g, variant)
        seed = _seed_triangle(g)
        try:
            want = list(ref.extension_steps(g, seed, reverse_frontier=reverse))
        except ExtensionStuck as stuck:
            with pytest.raises(ExtensionStuck) as err:
                list(extension_steps(g, seed, reverse_frontier=reverse))
            assert err.value.witness == stuck.witness
        else:
            assert list(extension_steps(g, seed, reverse_frontier=reverse)) == want
    foreign = Cycle(pts((5, 5), (6, 5), (6, 6)))
    g = block(3, 3)
    assert _extend_outcome(extend_cycle, g, foreign, reverse) == _extend_outcome(
        ref.extend_cycle, g, foreign, reverse
    )


# The 207 4x4 masks whose permissive solve, frontier in (y, x) order, takes a
# CLAIM2 rewire or the fallback.
RARE_PATH_MASKS = (
    3702, 3710, 3958, 3966, 8054, 8062, 9718, 9726, 10167, 10175, 11894, 11902, 12022, 12030,
    12150, 12158, 12215, 12223, 13814, 13822, 14263, 14271, 15990, 15998, 16118, 16126, 16246,
    16254, 16311, 16319, 18290, 18418, 18426, 19190, 19198, 19446, 19454, 20158, 20159, 20414,
    20415, 22386, 22514, 22522, 23542, 23550, 24510, 24511, 26102, 26110, 27382, 27390, 27506,
    27634, 27642, 28350, 28351, 28580, 28606, 28607, 30198, 30206, 31478, 31486, 31602, 31730,
    31738, 32114, 32115, 32118, 32119, 32126, 32127, 32242, 32243, 32247, 32250, 32251, 32255,
    32446, 32447, 32488, 32504, 32702, 32703, 36470, 36478, 36580, 36599, 36607, 36726, 36734,
    40822, 40830, 44662, 44670, 44772, 44790, 44791, 44798, 44799, 44918, 44926, 44983, 44991,
    48758, 48766, 48868, 48886, 48887, 48894, 48895, 49014, 49022, 49079, 49087, 51058, 51186,
    51194, 51958, 51966, 52214, 52222, 52926, 52927, 53182, 53183, 55154, 55282, 55290, 56310,
    56318, 57278, 57279, 58870, 58878, 59232, 59360, 59382, 59390, 60150, 60158, 60274, 60388,
    60390, 60391, 60396, 60398, 60399, 60402, 60404, 60405, 60406, 60407, 60410, 60412, 60413,
    60414, 60415, 61118, 61119, 61348, 61374, 61375, 62966, 62974, 63328, 63456, 63478, 63486,
    64246, 64254, 64370, 64484, 64486, 64487, 64492, 64494, 64495, 64498, 64500, 64501, 64502,
    64503, 64506, 64508, 64509, 64510, 64511, 64882, 64883, 64886, 64887, 64894, 64895, 65010,
    65011, 65015, 65018, 65019, 65023, 65214, 65215, 65256, 65272, 65470, 65471,
)


# 4x4 masks with a grown cycle on which _claim_rewire(g, c, (1, 3)) depends on
# the pivot compass order: swapping L and R changes its result, while every
# whole-solve gate here still passes.  Their solves take no CLAIM2 or fallback.
PIVOT_ORDER_MASKS = (14328, 30696, 63464)


def test_rare_path_rules_match_reference(monkeypatch):
    # Whole-solve gates see a rule only through the first hit it returns in a
    # stuck state, so a change that alters no first hit (a reversed insertion
    # scan, say) passes them.  Here both rules meet every off-cycle neighbour
    # x of every cycle the reference grows, DIRECT_INSERT states included, and
    # every pivot reassembly the library makes meets the reference's.
    reassemble, calls = hamiltonian._pivot_reassemble, []

    def recorded(verts, x, pivot_indices):
        found = reassemble(verts, x, pivot_indices)
        calls.append((verts, x, pivot_indices, found))
        return found

    monkeypatch.setattr(hamiltonian, "_pivot_reassemble", recorded)
    rules = ((hamiltonian._claim_rewire, ref._claim_rewire),
             (hamiltonian._fallback_search, ref._fallback_search))
    found: Counter[str] = Counter()
    reassembled = 0
    for mask in SINGLE_STEP_MASKS + PIVOT_ORDER_MASKS + RARE_PATH_MASKS:
        g = mask_to_graph(mask, 4)
        steps = _seed_and_extend(g).trace.steps
        assert mask not in RARE_PATH_MASKS or {s.rule.value for s in steps} & {
            "CLAIM2_REWIRE", "FALLBACK_SEARCH"}, mask
        for c in _reference_cycles(g):
            on_cycle = c.vertex_set()
            frontier = {w for v in c.verts for w in neighbors(g, v)} - on_cycle
            for x in sorted(frontier, key=Point.key):
                for rule, reference in rules:
                    got = rule(g, c, x)
                    assert got == reference(g, c, x), (mask, c, x, rule.__name__)
                    found[rule.__name__] += got is not None
            for verts, x, pivot_indices, got in calls:
                assert got == ref._pivot_reassemble(g, verts, x, pivot_indices), (mask, verts, x)
            reassembled += len(calls)
            calls.clear()
    assert found == {"_claim_rewire": 3501, "_fallback_search": 3238}
    assert reassembled == 6186


def _seeded_two_connected_masks(width: int, height: int, seed: int, count: int) -> list[int]:
    box, rng, masks = bitboard.box(width, height), random.Random(seed), []
    while len(masks) < count:
        mask = rng.getrandbits(width * height)
        if box.is_two_connected(mask):
            masks.append(mask)
    return masks


@pytest.mark.parametrize("reverse, statuses, rules, diversions", [
    (False, {"cycle": 54, "extension_failed": 246}, (1642, 70, 9, 3), 18),
    (True, {"cycle": 56, "extension_failed": 244}, (1670, 37, 8, 4), 7),
])
def test_gate_permissive_5x5_seeded(monkeypatch, reverse, statuses, rules, diversions):
    # 300 seeded 2-connected 5x5 masks, on which CLAIM2, FALLBACK and the
    # pass-2 diversion (a step that attaches an off-cycle pivot instead of the
    # frontier vertex it serves) each fire in both frontier orders.
    claim_rewire, diverted = hamiltonian._claim_rewire, []

    def spy(g, c, x, depth=0):
        result = claim_rewire(g, c, x, depth)
        if result is not None and depth == 1:
            diverted.append(result)
        return result

    monkeypatch.setattr(hamiltonian, "_claim_rewire", spy)
    got_statuses: Counter[str] = Counter()
    got_rules: Counter[str] = Counter()
    for mask in _seeded_two_connected_masks(5, 5, 0, 300):
        g = mask_to_graph(mask, 5)
        result = _seed_and_extend(g, reverse)
        assert result == ref.find_hamiltonian_cycle(g, strict=False, reverse_frontier=reverse), mask
        got_statuses[result.status] += 1
        got_rules.update(result.trace.rule_counts())
    assert got_statuses == statuses
    assert tuple(got_rules[rule.value] for rule in hamiltonian.ExtensionRule) == rules
    assert len(diverted) == diversions
