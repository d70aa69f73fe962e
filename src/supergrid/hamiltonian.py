"""Constructive Hamiltonian-cycle engine for linear-convex supergrid graphs.

The solver seeds a 3-cycle through the smallest vertex and then grows it one
vertex per step until it covers the graph.  Each step fires exactly one rule
from a strict cascade:

=================  ==============================================================
DIRECT_INSERT      some frontier vertex w neighbors both endpoints of a cycle
                   edge; splice w into that edge.  Tried for every frontier
                   vertex, so after it fails, any vertex adjacent to both ends
                   of a cycle edge is guaranteed to lie on the cycle already.
CLAIM1_REWIRE      for the chosen frontier vertex x and an anchor u1 on the
                   cycle with x ~ u1, pick a side pivot z among the neighbors
                   of u1 (z on the cycle, z adjacent to a cycle neighbor of
                   u1, z ~ x).  Cut the cycle only at edges incident to u1, z
                   and an optional second pivot y (a common neighbor of x and
                   z on the cycle), then reattach the resulting arcs plus x in
                   the first order whose junctions are all edges.  Every
                   rewiring the z ~ x configurations admit is a splice of
                   exactly this pivot-local form.
CLAIM2_REWIRE      the same pivot-guided reattachment when no pivot adjacent
                   to x exists (z is non-adjacent to x); covers the remaining
                   configurations, including the downward-pivot substitutions.
FALLBACK_SEARCH    bounded 3-opt-style search: insert x after one segment
                   reversal, else after two reversals of segments with at
                   least 2 vertices each (O(k^3) per attempt).  A strictly wider
                   net kept as a safety valve; the theory predicts it never
                   fires on 2-connected linear-convex inputs, and the
                   exhaustive suites verify that it does not.
=================  ==============================================================

Pivot candidates follow a fixed priority: candidates adjacent to x first, and
within each class the compass order L, R, U, D, UL, UR, DL, DR (L before R is
a documented tie-break, and the rule-level differential test pins the order).
When a wanted second pivot is adjacent to x and z but lies off the cycle, the
step attaches that pivot instead of x through the same machinery (bounded
diversion); the trace records what was attached.

DIRECT_INSERT picks the first frontier vertex in frontier order ((y, x),
reversed on demand) that has an insertable edge, and on it the edge whose
tail u has the smallest position counted from ``verts[0]``; u is the step's
``anchor_u1``.  One engine keeps its state across steps: the vertex-id table
it shares with the precheck (:func:`~supergrid.grid.vertex_ids`), the cycle as
successor/predecessor arrays with order-maintenance labels for positions,
and a lazy min-heap of candidate frontier vertices.  The heap may hold stale
entries; readiness is decided when a vertex is popped.  Splicing x into the
edge (u, v) pushes only the off-cycle neighbours of x next to u or v, and a
relabel costs O(levels + run), so a DIRECT_INSERT step costs amortised
O(log V) and a solve made of them is near-linear: about 5
label writes per step on a 256x256 block and 11 on a 2x20000 strip.  It
records the step as three ints (see :class:`ExtensionTrace`), and an
``ExtensionStep`` is built only when the trace's steps are read.  The
other rules run unchanged on a materialised ``Cycle`` and the engine is
rebuilt from their result in O(V).  Every cycle is checked
once: a DIRECT_INSERT step checks its splice locally (x off the cycle,
u ~ x ~ v); a rewired cycle is a ``Cycle`` (distinct vertices, every edge
checked) built from the old cycle's vertices plus one vertex of g, and
must hold exactly those; the final cycle is a ``Cycle`` that must cover g.
Only caller-supplied cycles go through :func:`~supergrid.cycles.validate_cycle`.

:func:`find_hamiltonian_cycle` tests linear convexity (strict mode) before
it grows anything, but not 2-connectivity: a Hamiltonian cycle of a graph
on at least 3 vertices proves it, so the final ``Cycle`` certifies it.  The
engine first runs DIRECT_INSERT steps alone (``_Engine.grow`` with
``rare=False``), and the lowpoint DFS runs only if they stall short of
covering g, before any rare rule, or when there is no seed triangle or an
ExtensionFailed outcome is about to be reported.  A graph that fails it
gets NoCycleExists naming ``two_connected``.  :func:`seed_cycle` grows no
cycle, so it still tests both predicates first.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .classify import is_linear_convex, is_two_connected
from .cycles import Cycle, validate_cycle
from .errors import (
    AlreadyHamiltonian,
    ExtensionStuck,
    PreconditionViolated,
    SizeBoundExceeded,
)
from .grid import Direction, Point, SupergridGraph, VertexTable, adjacent, neighbors, vertex_ids

# Compass order for pivot candidates around the anchor.
_PIVOT_OFFSETS = tuple(Direction[name].value for name in "L R U D UL UR DL DR".split())

_DIVERSION_DEPTH = 4

# The largest graph the oracle accepts: its search is exponential in general,
# and it is tested up to this size (a 22x22 block, a 2x250 ladder).
MAX_ORACLE_BOUND = 500


class ExtensionRule(Enum):
    DIRECT_INSERT = "DIRECT_INSERT"
    CLAIM1_REWIRE = "CLAIM1_REWIRE"
    CLAIM2_REWIRE = "CLAIM2_REWIRE"
    FALLBACK_SEARCH = "FALLBACK_SEARCH"


@dataclass(frozen=True, slots=True)
class ExtensionStep:
    """One growth step: which vertex was attached and which rule fired."""

    cycle_length_before: int
    attached_vertex: Point
    rule: ExtensionRule
    anchor_u1: Point
    pivot_z: Point | None = None
    pivot_y: Point | None = None


class ExtensionTrace:
    """The steps of one solve, in order; traces with equal steps are equal.

    ``records`` holds three ints per step: the cycle length before it, then
    the ids (in ``points``) of a DIRECT_INSERT step's attached vertex and u,
    or -1 and the step's index in ``rare``, where ``ExtensionTrace(steps)``
    puts every step.  ``steps`` builds the ``ExtensionStep``s on first read.
    """

    def __init__(self, steps: Sequence[ExtensionStep] = (), *, records: array | None = None,
                 rare: Sequence[ExtensionStep] = (), points: Sequence[Point] = ()):
        if records is None:
            self.steps, rare = steps, steps
            records = array("i", [n for i, step in enumerate(steps)
                                  for n in (step.cycle_length_before, -1, i)])
        self.records, self.rare, self.points = records, rare, points

    @functools.cached_property
    def steps(self) -> tuple[ExtensionStep, ...]:
        it, points, rare = iter(self.records), self.points, self.rare
        direct = ExtensionRule.DIRECT_INSERT
        return tuple([rare[u] if x < 0 else ExtensionStep(k, points[x], direct, points[u])
                      for k, x, u in zip(it, it, it)])

    def rule_counts(self) -> dict[str, int]:
        counts = {rule.value: 0 for rule in ExtensionRule}
        counts[ExtensionRule.DIRECT_INSERT.value] = len(self.records) // 3 - len(self.rare)
        for step in self.rare:
            counts[step.rule.value] += 1
        return counts

    def __eq__(self, other: object) -> bool:
        return self.steps == other.steps if isinstance(other, ExtensionTrace) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"ExtensionTrace(steps={self.steps!r})"


@dataclass(frozen=True)
class StuckWitness:
    """Potential counterexample: the graph, the stuck cycle, a frontier vertex."""

    graph: SupergridGraph
    cycle: Cycle | None
    frontier_vertex: Point | None


@dataclass(frozen=True)
class HamiltonianResult:
    """Tagged outcome of find_hamiltonian_cycle; never raised, always returned.

    ``trace`` is None only for ``no_cycle``; with no seed triangle it is empty.
    """

    status: str  # "cycle" | "no_cycle" | "extension_failed"
    cycle: Cycle | None = None
    trace: ExtensionTrace | None = None
    failed_predicate: str | None = None
    witness: StuckWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == "cycle"


def seed_cycle(g: SupergridGraph) -> Cycle:
    """3-cycle through the smallest vertex of a 2-connected linear-convex graph.

    u is the (y, x)-lexicographically smallest vertex; (v, w) is the first
    adjacent pair of its neighbor list in scan order.  Local connectivity
    (guaranteed by the preconditions) makes that pair exist.  A triangle
    certifies nothing about g, so both preconditions are tested first,
    2-connectivity before linear convexity (PreconditionViolated).
    """
    table = vertex_ids(g)
    failed = _failed_precondition(g, table, strict=True)
    if failed is not None:
        raise PreconditionViolated(failed)
    seed = _seed_triangle(g, table)
    if seed is None:  # unreachable on inputs meeting the preconditions
        raise PreconditionViolated("locally_connected", "no adjacent neighbor pair")
    return seed


def _failed_precondition(g: SupergridGraph, table: VertexTable, strict: bool) -> str | None:
    """The first failed solver precondition: 2-connectivity, then (strict) linear convexity."""
    if not is_two_connected(g, table[1]):
        return "two_connected"
    if strict and not is_linear_convex(g, table[0]):
        return "linear_convex"
    return None


def _seed_triangle(g: SupergridGraph, table: VertexTable | None = None) -> Cycle | None:
    """First triangle in lex order: smallest apex, then neighbor-pair order."""
    points, nbrs = vertex_ids(g) if table is None else table
    ids = _seed_ids(nbrs)
    return None if ids is None else Cycle(tuple(points[v] for v in ids))


def _seed_ids(nbrs: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The ids of :func:`_seed_triangle`'s triangle."""
    for u, row in enumerate(nbrs):
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                if row[j] in nbrs[row[i]]:
                    return u, row[i], row[j]
    return None


def _point_ids(points: Sequence[Point], verts: Sequence[Point]) -> list[int]:
    """The ids of ``verts`` in a vertex table whose points are ``points``."""
    index = dict(zip(points, range(len(points))))
    return [index[p] for p in verts]


def _assemble(pieces: list[tuple[Point, ...]]) -> Cycle | None:
    """First cyclic arrangement of all pieces whose junctions are all edges.

    pieces[0] is the fixed start (orientation pinned); every other piece may
    be flipped.  Depth-first, deterministic order, adjacency-pruned.
    """
    start = pieces[0]
    rest = pieces[1:]
    used = [False] * len(rest)
    sequence: list[tuple[Point, ...]] = [start]

    def extend(tail: Point, remaining: int) -> bool:
        if remaining == 0:
            return adjacent(tail, start[0])
        for idx, piece in enumerate(rest):
            if used[idx]:
                continue
            for oriented in (piece, piece[::-1]) if len(piece) > 1 else (piece,):
                if not adjacent(tail, oriented[0]):
                    continue
                used[idx] = True
                sequence.append(oriented)
                if extend(oriented[-1], remaining - 1):
                    return True
                sequence.pop()
                used[idx] = False
        return False

    if extend(start[-1], len(rest)):
        return Cycle(tuple(p for piece in sequence for p in piece))
    return None


def _pivot_reassemble(verts: tuple[Point, ...], x: Point, pivot_indices: list[int]) -> Cycle | None:
    """Cut both edges at every pivot index, then weave the arcs and x back together.

    Pivot 0 is the anchor u1, so (u1,) is the arc across the wrap; it goes
    first to pin rotation and keep the search small.
    """
    k = len(verts)
    cuts = sorted({s % k for i in pivot_indices for s in (i - 1, i)})
    arcs = [verts[a + 1 : b + 1] for a, b in zip(cuts, cuts[1:])]
    return _assemble([verts[:1], *arcs, (x,)])


def _claim_rewire(
    g: SupergridGraph,
    c: Cycle,
    x: Point,
    depth: int = 0,
) -> tuple[Cycle, ExtensionStep] | None:
    """Pivot-guided rewiring for one frontier vertex (rule families 2 and 3)."""
    verts = c.verts
    k = len(verts)
    on_cycle = c.vertex_set()
    x_nbrs = frozenset(neighbors(g, x))
    anchors = [i for i, v in enumerate(verts) if v in x_nbrs]

    def pivots() -> Iterator[tuple[Point, tuple[Point, ...], Point]]:
        """(u1, the cycle rotated to start at u1, z) for every pivot z on the cycle.

        A pivot z off the cycle would neighbor both ends of a cycle edge at
        u1, which a failed DIRECT_INSERT pass over every frontier vertex
        rules out.
        """
        for i in anchors:
            rot = verts[i:] + verts[:i]
            u1, u2, uk = rot[0], rot[1], rot[-1]
            cands = [w for dx, dy in _PIVOT_OFFSETS
                     if (w := Point(u1.x + dx, u1.y + dy)) in on_cycle and w != u2 and w != uk
                     and (adjacent(w, u2) or adjacent(w, uk))]
            # Condition C1: a pivot adjacent to x is preferred over one that is not.
            for z in [w for w in cands if w in x_nbrs] + [w for w in cands if w not in x_nbrs]:
                yield u1, rot, z

    # Pass 1: both pivots on the cycle.
    for u1, rot, z in pivots():
        rule = ExtensionRule.CLAIM1_REWIRE if z in x_nbrs else ExtensionRule.CLAIM2_REWIRE
        orientations = []
        if adjacent(z, rot[1]):
            orientations.append(rot)
        if adjacent(z, rot[-1]):
            orientations.append((rot[0],) + rot[:0:-1])
        for oriented in orientations:
            j = oriented.index(z)
            found = _pivot_reassemble(oriented, x, [0, j])
            if found is not None:
                return found, ExtensionStep(k, x, rule, u1, pivot_z=z)
            z_nbrs = frozenset(neighbors(g, z))
            for y in sorted((x_nbrs & z_nbrs & on_cycle) - {u1}, key=Point.key):
                found = _pivot_reassemble(oriented, x, [0, j, oriented.index(y)])
                if found is not None:
                    return found, ExtensionStep(k, x, rule, u1, pivot_z=z, pivot_y=y)

    # Pass 2: the wanted second pivot exists but lies off the cycle; attach it
    # instead through the same machinery (its own direct insertion already
    # failed, so the claim conditions hold for it as the new target).
    if depth < _DIVERSION_DEPTH:
        for _, _, z in pivots():
            for y in sorted((x_nbrs & frozenset(neighbors(g, z))) - on_cycle, key=Point.key):
                result = _claim_rewire(g, c, y, depth + 1)
                if result is not None:
                    return result
    return None


def _fallback_search(g: SupergridGraph, c: Cycle, x: Point) -> tuple[Cycle, ExtensionStep] | None:
    """Bounded 3-opt-style net: insert x after up to two segment reversals."""
    verts = c.verts
    k = len(verts)
    x_nbrs = frozenset(neighbors(g, x))
    anchor = next((v for v in verts if v in x_nbrs), verts[0])

    def candidates() -> Iterator[tuple[Point, ...]]:
        # One reversal: O(k^2) variants.
        for i in range(k - 1):
            for j in range(i + 1, k):
                if adjacent(verts[i], verts[j]) and adjacent(verts[i + 1], verts[(j + 1) % k]):
                    yield verts[: i + 1] + verts[i + 1 : j + 1][::-1] + verts[j + 1 :]
        # Two reversals of segments of at least 2 vertices each (a one-vertex
        # segment leaves a one-reversal variant, scanned above): O(k^3) variants.
        for i in range(k - 2):
            for j in range(i + 2, k - 1):
                for m in range(j + 2, k):
                    if (adjacent(verts[i], verts[j]) and adjacent(verts[i + 1], verts[m])
                            and adjacent(verts[j + 1], verts[(m + 1) % k])):
                        yield (verts[: i + 1] + verts[i + 1 : j + 1][::-1]
                               + verts[j + 1 : m + 1][::-1] + verts[m + 1 :])

    # Insertion anywhere on each variant: an O(k) scan.
    for seq in candidates():
        for i in range(k):
            if seq[i] in x_nbrs and seq[(i + 1) % k] in x_nbrs:
                step = ExtensionStep(k, x, ExtensionRule.FALLBACK_SEARCH, anchor)
                return Cycle(seq[: i + 1] + (x,) + seq[i + 1 :]), step
    return None


class _Engine:
    """One cycle growing inside one graph; the state persists across steps.

    ``table`` is g's :func:`~supergrid.grid.vertex_ids`, so id order is (y, x)
    order and ids a, b are adjacent iff b is in ``nbrs[a]``.  The cycle is a
    ring of ``succ``/``pred`` ids from ``head`` (its ``verts[0]``) whose
    order-maintenance ``label``s increase along it, so comparing labels
    compares positions from ``verts[0]``.  Every off-cycle vertex that has
    an insertable edge has an entry in the lazy min-heap ``heap`` (ids,
    negated for ``reverse``); it may hold stale entries too, so readiness is
    decided by ``_tail`` when a vertex is popped.  ``load`` starts the heap as
    the whole frontier, and a splice pushes the vertices its two new edges
    can make ready (see ``grow``).
    """

    def __init__(self, g: SupergridGraph, table: VertexTable, ids: Sequence[int],
                 reverse: bool):
        self.g, self.reverse = g, reverse
        self.points, self.nbrs = table
        self.levels = 2  # labels live in [0, top), with n + 1 <= (4/3)**levels (see _label_after)
        while (len(self.points) + 1) * 3**self.levels > 4**self.levels:
            self.levels += 1
        self.top = 1 << self.levels
        self.trace = ExtensionTrace(records=array("i"), rare=[], points=self.points)
        self.load(ids)

    def load(self, ids: Sequence[int]) -> None:
        """Rebuild ring, labels and heap from a cycle's ids, in O(V)."""
        n = len(self.points)
        self.head, self.k = ids[0], len(ids)
        self.on = on = bytearray(n)
        self.succ, self.pred, self.label = succ, pred, label = [0] * n, [0] * n, [0] * n
        gap = self.top // (len(ids) + 1)
        prev = ids[-1]
        for j, v in enumerate(ids):
            on[v], label[v] = 1, j * gap
            succ[prev], pred[v], prev = v, prev, v
        # Sorted, so already a heap.
        self.heap = [-w for w in self._frontier()] if self.reverse else self._frontier()

    def _ring(self) -> Iterator[int]:
        v = self.head
        for _ in range(self.k):
            yield v
            v = self.succ[v]

    def cycle(self) -> Cycle:
        return Cycle(tuple(self.points[v] for v in self._ring()))

    def _frontier(self) -> list[int]:
        """The off-cycle vertices next to the cycle, in frontier order; O(k)."""
        on, nbrs = self.on, self.nbrs
        return sorted({w for v in self._ring() for w in nbrs[v] if not on[w]}, reverse=self.reverse)

    def _stuck(self, c: Cycle) -> ExtensionStuck:
        first = self._frontier()[:1]
        return ExtensionStuck(StuckWitness(self.g, c, self.points[first[0]] if first else None))

    def _tail(self, w: int) -> int:
        """Tail of w's insertable edge with the smallest position, or -1."""
        on, succ, label, near = self.on, self.succ, self.label, self.nbrs[w]
        best = -1
        for a in near:
            if on[a] and succ[a] in near:
                if best < 0 or label[a] < label[best]:
                    best = a
        return best

    def step(self) -> None:
        """Attach one vertex and record it (see ``grow``)."""
        self.grow(self.k + 1)

    def grow(self, stop: int, rare: bool = True) -> None:
        """Attach vertices until the cycle holds ``stop``, recording each step.

        A DIRECT_INSERT step is taken while the heap holds a ready vertex;
        when none is left the rare rules run (``_rewire``), or, without
        ``rare``, the call returns with the cycle still short of ``stop``.
        The state lives in locals, reloaded after a rewire replaces it.
        """
        records, nbrs, reverse, top, tail = (self.trace.records, self.nbrs, self.reverse,
                                             self.top, self._tail)
        k = self.k
        while True:
            heap, on, succ, pred, label, head = (self.heap, self.on, self.succ, self.pred,
                                                 self.label, self.head)
            while k < stop and heap:
                x = -heappop(heap) if reverse else heappop(heap)
                if on[x]:
                    continue
                u = tail(x)
                if u < 0:
                    continue
                v, near = succ[u], nbrs[x]
                if not (on[u] and u in near and v in near):
                    self.k = k
                    raise self._stuck(self.cycle())
                hi = top if v == head else label[v]
                label[x] = (label[u] + hi) // 2 if hi - label[u] > 1 else self._label_after(u)
                succ[u], pred[x], succ[x], pred[v] = x, u, v, x
                on[x] = 1
                # Only the new edges (u, x) and (x, v) can make a vertex ready.
                for w in near:
                    if not on[w] and (u in nbrs[w] or v in nbrs[w]):
                        heappush(heap, -w if reverse else w)
                records.extend((k, x, u))
                k += 1
            self.k = k
            if k >= stop or not rare:
                return
            self._rewire()
            k = self.k

    def _rewire(self) -> None:
        """No direct insertion: the claim rewires, then the fallback, on a Cycle."""
        g, c = self.g, self.cycle()
        frontier = [self.points[w] for w in self._frontier()]
        found = (r for rule in (_claim_rewire, _fallback_search) for x in frontier
                 if (r := rule(g, c, x)) is not None)
        new, step = next(found, (None, None))
        # new is a Cycle (distinct vertices, every edge checked); one vertex
        # longer than c with this vertex set, it grew by exactly that vertex.
        if (new is None or len(new) != len(c) + 1
                or new.vertex_set() != c.vertex_set() | {step.attached_vertex}):
            raise self._stuck(c)
        self.load(_point_ids(self.points, new.verts))
        self.trace.records.extend((len(c), -1, len(self.trace.rare)))
        self.trace.rare.append(step)

    def _label_after(self, u: int) -> int:
        """A label strictly between u's and its successor's (``top`` after the last).

        When the gap is used up, the smallest aligned range of 2**i labels
        around u that holds at most (4/3)**i - 1 vertices is relabelled
        evenly, leaving gaps of at least 2: the list-labelling scheme of
        Bender et al., "Two simplified algorithms for maintaining order in a
        list" (ESA 2002), O(log V) amortised relabels per insertion.  Each
        level's range holds the one before, so the run from ``first`` to
        ``last`` only grows outward and a call costs O(levels + run).  At
        level ``levels`` the range is [0, top) and holds every k <= V
        vertices, so a correct ring returns by level ``levels + 1``; labels
        out of order raise instead of climbing levels for ever.
        """
        label, succ, pred, head = self.label, self.succ, self.pred, self.head
        first = last = u
        size = 1
        for level in range(1, self.levels + 2):
            nxt = succ[u]
            hi = self.top if nxt == head else label[nxt]
            if hi - label[u] > 1:
                return (label[u] + hi) // 2
            lo = label[u] >> level << level
            hi = lo + (1 << level)
            while first != head and label[pred[first]] >= lo:
                first, size = pred[first], size + 1
            while succ[last] != head and label[succ[last]] < hi:
                last, size = succ[last], size + 1
            if (size + 1) * 3**level <= 4**level:
                gap, w = (1 << level) // (size + 1), first
                for j in range(size):
                    label[w], w = lo + j * gap, succ[w]
        raise RuntimeError(f"order labels around id {u} are out of order")


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
    Raises ValueError when c is not a valid cycle of g, AlreadyHamiltonian
    when nothing is left to add and ExtensionStuck (with a verbatim witness)
    when no rule applies.
    """
    for grown in extension_steps(g, c, reverse_frontier=reverse_frontier):
        return grown
    raise AlreadyHamiltonian(f"cycle already covers all {len(g)} vertices")


def extension_steps(
    g: SupergridGraph,
    c: Cycle,
    *,
    reverse_frontier: bool = False,
) -> Iterator[tuple[Cycle, ExtensionStep]]:
    """Extend to full coverage on one engine, yielding after every step.

    c is validated against g first (ValueError), also when it is as long as g.
    Each step yields a whole ``Cycle``, built and checked in O(V), so running
    to full coverage is Θ(V²); large graphs should use find_hamiltonian_cycle.
    """
    if not validate_cycle(g, c):
        raise ValueError("c is not a valid cycle of the host graph")
    table = vertex_ids(g)
    engine = _Engine(g, table, _point_ids(table[0], c.verts), reverse_frontier)
    while engine.k < len(g):
        engine.step()
        last = ExtensionTrace(records=engine.trace.records[-3:], rare=engine.trace.rare,
                              points=engine.points)
        yield engine.cycle(), last.steps[0]


def find_hamiltonian_cycle(
    g: SupergridGraph,
    strict: bool = True,
    *,
    reverse_frontier: bool = False,
) -> HamiltonianResult:
    """Seed-and-extend pipeline; every outcome is a HamiltonianResult.

    Strict mode requires 2-connectivity and linear convexity and reports
    NoCycleExists naming the failed predicate otherwise; on passing inputs
    an ExtensionFailed outcome would contradict the extendability theorem,
    so its witness is handed through verbatim.  Permissive mode runs the
    same pipeline on any 2-connected graph as a conjecture probe, where
    ExtensionFailed is a legitimate answer.

    Only linear convexity is tested up front; a covering cycle certifies
    2-connectivity, so the DFS runs only when the cycle cannot (see the
    module docstring), and a linearly convex graph that is not 2-connected
    pays for the DIRECT_INSERT steps before it is rejected.
    """
    table = vertex_ids(g)
    if strict and not is_linear_convex(g, table[0]):
        failed = _failed_precondition(g, table, strict=False) or "linear_convex"
        return HamiltonianResult(status="no_cycle", failed_predicate=failed)
    return _seed_and_extend(g, reverse_frontier, table, certify=True)


def _seed_and_extend(g: SupergridGraph, reverse_frontier: bool = False,
                     table: VertexTable | None = None, certify: bool = False) -> HamiltonianResult:
    """find_hamiltonian_cycle after its precheck; builds g's vertex_ids unless given.

    With ``certify``, g's 2-connectivity is not yet known, and the DFS runs
    only when the cycle cannot certify it (see the module docstring).
    """
    table = vertex_ids(g) if table is None else table
    engine = None
    try:
        seed = _seed_ids(table[1])
        if seed is None:
            raise ExtensionStuck(StuckWitness(g, None, None))
        engine = _Engine(g, table, seed, reverse_frontier)
        if certify:
            engine.grow(len(g), rare=False)
            if engine.k < len(g):  # stalled: the rare rules need a 2-connected g
                certify = False
                if not is_two_connected(g, table[1]):
                    return HamiltonianResult(status="no_cycle", failed_predicate="two_connected")
        engine.grow(len(g))
        cycle = engine.cycle()
        if cycle.vertex_set() != g.vertices:
            raise ExtensionStuck(StuckWitness(g, cycle, None))
    except ExtensionStuck as stuck:
        if certify and not is_two_connected(g, table[1]):
            return HamiltonianResult(status="no_cycle", failed_predicate="two_connected")
        trace = ExtensionTrace() if engine is None else engine.trace
        return HamiltonianResult(status="extension_failed", trace=trace, witness=stuck.witness)
    return HamiltonianResult(status="cycle", cycle=cycle, trace=engine.trace)


def brute_force_hamiltonian(g: SupergridGraph, bound: int = 24) -> Cycle | None:
    """Independent oracle: exhaustive backtracking, no rewiring machinery.

    Numbers the vertices in (y, x) order and hands their adjacency masks to
    :func:`brute_force_hamiltonian_mask`; the result (some Hamiltonian cycle
    from the smallest vertex, or None) is deterministic.
    """
    verts, nbrs = vertex_ids(g)
    adjacency = [sum(1 << j for j in row) for row in nbrs]
    path = brute_force_hamiltonian_mask(adjacency, (1 << len(verts)) - 1, bound)
    return None if path is None else Cycle(tuple(verts[i] for i in path))


def brute_force_hamiltonian_mask(
    adjacency: Sequence[int], vertices: int, bound: int = 24
) -> list[int] | None:
    """Backtracking search for a Hamiltonian cycle of a vertex bitmask.

    ``adjacency[i]`` is the neighbour mask of vertex i; bits outside
    ``vertices`` are ignored, so a whole box's neighbour table serves every
    subset of it.  Anchored at the lowest vertex, neighbours tried in
    ascending order; prunes branches where no unvisited vertex neighbours the
    anchor (the cycle could not close), where some unvisited vertex has fewer
    than two usable neighbours, or where the unvisited set is no longer
    reachable from the current endpoint, and returns None at once when the
    anchor has fewer than two neighbours.  The reachability flood runs at the
    root, unless every vertex neighbours the anchor, and after a step whose
    previous endpoint keeps an unvisited neighbour not adjacent to the new
    endpoint; any other step cannot cut what its parent found connected.  A
    prune removes only subtrees that hold no cycle, so it never changes which
    cycle is found first.  Returns the cycle as vertex numbers from the
    anchor, or None.  The search is one loop over an explicit stack, not a
    recursion; a ``bound`` above :data:`MAX_ORACLE_BOUND` raises
    SizeBoundExceeded before it starts.
    """
    if bound > MAX_ORACLE_BOUND:
        raise SizeBoundExceeded(
            f"bound {bound} exceeds the oracle's supported depth of {MAX_ORACLE_BOUND}"
        )
    n = vertices.bit_count()
    if n > bound:
        raise SizeBoundExceeded(f"{n} vertices exceeds the bound of {bound}")
    if n < 3:
        return None
    start = vertices & -vertices
    path = [start.bit_length() - 1]
    closing = adjacency[path[0]]
    if (closing & vertices).bit_count() < 2:
        return None
    # One entry per path vertex past the anchor: its parent's untried
    # options and visited set, restored when the search backs up to the parent.
    stack: list[tuple[int, int]] = []
    cur, visited, touched = path[0], start, vertices
    while True:
        # Only vertices in ``touched`` (the parent's neighbours) can have lost
        # a usable neighbour since the parent's node, which checked every
        # other free vertex already.  At the root ``touched`` is every vertex.
        adj = adjacency[cur]
        free = vertices & ~visited
        options = 0
        if not free:
            if adj & start:
                return path
        elif closing & free:
            avail = free | (1 << cur) | start
            f = free & touched
            while f:
                low = f & -f
                if (adjacency[low.bit_length() - 1] & avail).bit_count() < 2:
                    break
                f ^= low
            else:  # every touched free vertex kept two usable neighbours
                options = adj & free
                # The parent found free, cur and its own endpoint connected,
                # so dropping that endpoint cuts nothing when its other free
                # neighbours (``touched & free``) all neighbour cur.  At the
                # root nothing was found yet.
                if touched & free & ~adj:
                    left, frontier = free, 1 << cur  # left: free, not yet reached
                    while frontier and left:
                        nxt = 0
                        while frontier:
                            low = frontier & -frontier
                            nxt |= adjacency[low.bit_length() - 1]
                            frontier ^= low
                        frontier = nxt & left
                        left ^= frontier
                    if left:
                        options = 0
        while not options:
            if not stack:
                return None
            path.pop()
            options, visited = stack.pop()
            adj = adjacency[path[-1]]
        low = options & -options
        stack.append((options ^ low, visited))
        cur = low.bit_length() - 1
        path.append(cur)
        visited |= low
        touched = adj
