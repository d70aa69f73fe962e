"""Differential gate: the mask-native ``random_graph`` against the reference.

``reference_random`` keeps, verbatim, the ``Point``-set generator the library
used before it grew graphs on the bitboard kernel.  For every spec both must
return the same graph, or raise the same exception type with the same
message: the RNG is consumed in the same order, the j-th fringe candidate is
the same cell, and the gap closure and ``require`` tests agree.
"""

from __future__ import annotations

import pytest

from supergrid import EnumSpec, GenerationBudgetExhausted, random_graph

import reference_random as ref

STRICT = frozenset({"two_connected", "linear_convex"})


def outcome(generate, spec: EnumSpec):
    """The graph, or (exception type, message) when generation gives up."""
    try:
        return generate(spec)
    except GenerationBudgetExhausted as exc:
        return type(exc), str(exc)


def assert_same(spec: EnumSpec):
    got = outcome(random_graph, spec)
    assert got == outcome(ref.random_graph, spec), spec
    return got


def test_strict_8x8_seeds():
    for s in range(2000):
        g = assert_same(EnumSpec(8, 8, min_vertices=8 + s % 45, require=STRICT, seed=s))
        assert len(g) >= 8 + s % 45


@pytest.mark.parametrize("width, height, min_vertices, require", [
    (1, 9, 5, {"connected"}),
    (3, 7, 12, set()),
    (5, 5, 10, {"connected", "locally_connected"}),
    (10, 10, 60, STRICT),
    (20, 20, 300, STRICT),
])
def test_other_specs(width, height, min_vertices, require):
    for seed in range(10):
        g = assert_same(EnumSpec(width, height, min_vertices=min_vertices,
                                 require=frozenset(require), seed=seed))
        assert len(g) >= min_vertices


@pytest.mark.parametrize("spec", [
    EnumSpec(1, 1, require=frozenset({"two_connected"})),  # cannot grow
    EnumSpec(3, 4, min_vertices=13, seed=3),                # fills the box, then cannot grow
    EnumSpec(2, 9, min_vertices=19, require=STRICT, seed=5),
])
def test_give_up_paths_raise_the_same_message(spec):
    got = assert_same(spec)
    assert got[0] is GenerationBudgetExhausted
    assert f"found in {spec.width}x{spec.height} with seed {spec.seed}" in got[1]


def test_growth_budget_runs_out_on_a_long_strip():
    # One cell per step along a 1002-cell strip: 1000 steps reach 1001 cells.
    # The reference needs about 10 s here, so only the message is compared.
    with pytest.raises(GenerationBudgetExhausted) as info:
        random_graph(EnumSpec(1002, 1, min_vertices=1002, seed=1))
    assert str(info.value) == "no [] graph of >= 1002 vertices found in 1002x1 with seed 1"
