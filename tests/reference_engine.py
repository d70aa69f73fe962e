"""Slow reference: the per-step rebuild extension engine, kept verbatim.

Every step rebuilds the frontier, a position map and the whole cycle tuple
and revalidates the whole cycle, so a solve costs Θ(V²).  The library's
incremental engine must reproduce its results exactly; the differential
tests compare the two.  The rare-path rules (claim rewires, fallback search)
and the seed are unchanged in the library and imported from it.
"""

from __future__ import annotations

from typing import Iterator

from supergrid.classify import is_linear_convex, is_two_connected
from supergrid.cycles import Cycle, validate_cycle
from supergrid.errors import AlreadyHamiltonian, ExtensionStuck
from supergrid.grid import OFFSETS, Point, SupergridGraph, neighbors
from supergrid.hamiltonian import (
    ExtensionRule,
    ExtensionStep,
    ExtensionTrace,
    HamiltonianResult,
    StuckWitness,
    _claim_rewire,
    _fallback_search,
    _seed_triangle,
)


def _frontier(g: SupergridGraph, on_cycle: frozenset[Point], reverse: bool) -> list[Point]:
    """Vertices outside the cycle adjacent to it, lex-sorted (reversed on demand)."""
    out: set[Point] = set()
    verts = g.vertices
    for v in on_cycle:
        for dx, dy in OFFSETS:
            w = Point(v.x + dx, v.y + dy)
            if w in verts and w not in on_cycle:
                out.add(w)
    return sorted(out, key=Point.key, reverse=reverse)


def _direct_insert(g: SupergridGraph, c: Cycle, frontier: list[Point]) -> tuple[Cycle, ExtensionStep] | None:
    """First frontier vertex that neighbors both endpoints of a cycle edge."""
    verts = c.verts
    k = len(verts)
    position = {v: i for i, v in enumerate(verts)}
    for x in frontier:
        nbrs = frozenset(neighbors(g, x))
        best_slot: int | None = None
        for u in nbrs:
            i = position.get(u)
            if i is None:
                continue
            if verts[(i + 1) % k] in nbrs:
                slot = i
                if best_slot is None or slot < best_slot:
                    best_slot = slot
            if verts[(i - 1) % k] in nbrs:
                slot = (i - 1) % k
                if best_slot is None or slot < best_slot:
                    best_slot = slot
        if best_slot is not None:
            new = Cycle(verts[: best_slot + 1] + (x,) + verts[best_slot + 1 :])
            step = ExtensionStep(
                cycle_length_before=k,
                attached_vertex=x,
                rule=ExtensionRule.DIRECT_INSERT,
                anchor_u1=verts[best_slot],
            )
            return new, step
    return None


def extend_cycle(
    g: SupergridGraph,
    c: Cycle,
    *,
    reverse_frontier: bool = False,
) -> tuple[Cycle, ExtensionStep]:
    """Grow the cycle by exactly one vertex; returns (new cycle, step record).

    Frontier vertices are tried smallest-first ((y, x) order; largest-first
    with ``reverse_frontier``), and the rule cascade is strict: every rule is
    exhausted over the whole frontier before the next one is considered.
    Raises AlreadyHamiltonian when nothing is left to add and ExtensionStuck
    (with a verbatim witness) when no rule applies.
    """
    if not validate_cycle(g, c):
        raise ValueError("c is not a valid cycle of the host graph")
    if len(c) == len(g):
        raise AlreadyHamiltonian(f"cycle already covers all {len(g)} vertices")
    frontier = _frontier(g, c.vertex_set(), reverse=reverse_frontier)
    if not frontier:
        raise ExtensionStuck(StuckWitness(g, c, None))

    result = _direct_insert(g, c, frontier)
    if result is None:
        for x in frontier:
            result = _claim_rewire(g, c, x)
            if result is not None:
                break
    if result is None:
        for x in frontier:
            result = _fallback_search(g, c, x)
            if result is not None:
                break
    if result is None:
        raise ExtensionStuck(StuckWitness(g, c, frontier[0]))

    new, step = result
    if not validate_cycle(g, new) or len(new) != len(c) + 1:
        raise ExtensionStuck(StuckWitness(g, c, frontier[0]))
    if new.vertex_set() != c.vertex_set() | {step.attached_vertex}:
        raise ExtensionStuck(StuckWitness(g, c, frontier[0]))
    return new, step


def extension_steps(
    g: SupergridGraph,
    c: Cycle,
    *,
    reverse_frontier: bool = False,
) -> Iterator[tuple[Cycle, ExtensionStep]]:
    """Iterate extend_cycle to full coverage, yielding after every step."""
    while len(c) < len(g):
        c, step = extend_cycle(g, c, reverse_frontier=reverse_frontier)
        yield c, step


def find_hamiltonian_cycle(
    g: SupergridGraph,
    strict: bool = True,
    *,
    reverse_frontier: bool = False,
) -> HamiltonianResult:
    """Seed-and-extend pipeline; every outcome is a HamiltonianResult.

    Strict mode demands 2-connectivity and linear convexity up front and
    reports NoCycleExists naming the failed predicate otherwise; on passing
    inputs an ExtensionFailed outcome would contradict the extendability
    theorem, so its witness is handed through verbatim.  Permissive mode
    runs the same pipeline on any 2-connected graph as a conjecture probe,
    where ExtensionFailed is a legitimate answer.
    """
    if not is_two_connected(g):
        return HamiltonianResult(status="no_cycle", failed_predicate="two_connected")
    if strict and not is_linear_convex(g):
        return HamiltonianResult(status="no_cycle", failed_predicate="linear_convex")
    cycle = _seed_triangle(g)
    if cycle is None:
        return HamiltonianResult(
            status="extension_failed",
            witness=StuckWitness(g, None, None),
        )
    steps: list[ExtensionStep] = []
    try:
        for cycle, step in extension_steps(g, cycle, reverse_frontier=reverse_frontier):
            steps.append(step)
    except ExtensionStuck as stuck:
        return HamiltonianResult(
            status="extension_failed",
            trace=ExtensionTrace(tuple(steps)),
            witness=stuck.witness,
        )
    return HamiltonianResult(status="cycle", cycle=cycle, trace=ExtensionTrace(tuple(steps)))
