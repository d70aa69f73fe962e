"""Differential gate: the incremental extension engine against the reference.

``reference_engine`` keeps, verbatim, the per-step rebuild engine the library
used before its incremental one.  Both must return identical
HamiltonianResults: the status, the cycle, every ExtensionStep field, and the
witness's cycle and frontier vertex.  Single ``extend_cycle`` calls on
intermediate cycles must agree as well, including the exceptions they raise.
"""

from __future__ import annotations

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
from supergrid.bitboard import mask_to_graph
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
