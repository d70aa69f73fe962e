"""Simple paths, simple cycles, and the four cycle-merge operations.

Cycles and paths store an explicit vertex sequence; adjacency of consecutive
vertices is a pure point property and is checked at construction, while
membership in a host graph is re-checked at every operation boundary so that
transcription bugs fail loudly instead of propagating.

When several qualifying edges exist, each merge operation deterministically
uses the first one in traversal order from ``verts[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    NoBridgeEdges,
    NoConcatenationEdge,
    NoInsertionEdge,
    NoPivotEdge,
    NoSharedVertex,
)
from .grid import Point, SupergridGraph, adjacent


def _check_walk(verts: tuple[Point, ...], kind: str) -> None:
    """ValueError unless the vertices are distinct and consecutive ones adjacent."""
    if len(set(verts)) != len(verts):
        raise ValueError(f"{kind} vertices must be distinct")
    for u, v in zip(verts, verts[1:]):
        if not adjacent(u, v):
            raise ValueError(f"non-adjacent consecutive pair {u}, {v}")


@dataclass(frozen=True)
class PathSeq:
    """Simple path: distinct vertices, consecutive pairs adjacent."""

    verts: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "verts", tuple(self.verts))
        if not self.verts:
            raise ValueError("a path has at least one vertex")
        _check_walk(self.verts, "path")

    @property
    def start(self) -> Point:
        return self.verts[0]

    @property
    def end(self) -> Point:
        return self.verts[-1]

    def __len__(self) -> int:
        return len(self.verts)


@dataclass(frozen=True)
class Cycle:
    """Simple cycle: >= 3 distinct vertices, consecutive and closing pairs adjacent."""

    verts: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "verts", tuple(self.verts))
        if len(self.verts) < 3:
            raise ValueError("a cycle has at least three vertices")
        _check_walk(self.verts, "cycle")
        if not adjacent(self.verts[-1], self.verts[0]):
            raise ValueError("closing pair is non-adjacent")

    def __len__(self) -> int:
        return len(self.verts)

    def vertex_set(self) -> frozenset[Point]:
        return frozenset(self.verts)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        """Consecutive pairs in traversal order, closing edge last."""
        for i, u in enumerate(self.verts):
            yield u, self.verts[(i + 1) % len(self.verts)]

    def rotated_to(self, index: int) -> "Cycle":
        """Same cycle starting at position ``index``."""
        return Cycle(self.verts[index:] + self.verts[:index])

    def reversed_cycle(self) -> "Cycle":
        return Cycle(tuple(reversed(self.verts)))

    def canonical(self) -> "Cycle":
        """Rotation/reversal-invariant representative.

        The lexicographically smallest vertex comes first, followed by the
        smaller of its two cycle neighbors; two cycles are equivalent up to
        rotation and reversal iff their canonical forms are equal.
        """
        k = len(self.verts)
        i = min(range(k), key=lambda m: self.verts[m].key())
        rot = self.verts[i:] + self.verts[:i]
        if rot[-1].key() < rot[1].key():
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        return Cycle(rot)


def validate_cycle(g: SupergridGraph, verts: Sequence[Point] | Cycle) -> bool:
    """True iff ``verts`` satisfies every cycle invariant inside g.

    Accepts arbitrary sequences (not just Cycle values) and never raises:
    it is the boolean oracle the merge operations and the extension engine
    re-check their outputs against.  A Cycle holds its invariants already,
    so only its membership in g is checked.
    """
    if isinstance(verts, Cycle):
        return g.vertices.issuperset(verts.verts)
    seq = tuple(verts)
    if not g.vertices.issuperset(seq):
        return False
    try:
        Cycle(seq)
    except ValueError:
        return False
    return True


def reverse_path(p: PathSeq) -> PathSeq:
    """The same path visited end-to-start."""
    return PathSeq(tuple(reversed(p.verts)))


def _require_cycle_in_graph(g: SupergridGraph, c: Cycle, name: str) -> None:
    if not validate_cycle(g, c):
        raise ValueError(f"{name} is not a valid cycle of the host graph")


def insert_vertex(g: SupergridGraph, c: Cycle, x: Point) -> Cycle:
    """Splice x into the first cycle edge whose endpoints both neighbor x."""
    _require_cycle_in_graph(g, c, "c")
    if x not in g:
        raise ValueError(f"{x} is not a vertex of the host graph")
    if x in c.vertex_set():
        raise ValueError(f"{x} already lies on the cycle")
    for i, (u, v) in enumerate(c.edges()):
        if adjacent(u, x) and adjacent(v, x):
            return Cycle(c.verts[: i + 1] + (x,) + c.verts[i + 1 :])
    raise NoInsertionEdge(f"no cycle edge can absorb {x}")


def concat_cycle_path(g: SupergridGraph, c: Cycle, p: PathSeq) -> Cycle:
    """Absorb a disjoint path into the cycle across one cycle edge.

    Uses the first cycle edge (u, v) with u ~ start(p) and v ~ end(p), trying
    the path as given before its reversal on each edge.  A single-vertex path
    degenerates to insert_vertex; the two are one operation family.
    """
    _require_cycle_in_graph(g, c, "c")
    if any(w not in g for w in p.verts):
        raise ValueError("path leaves the host graph")
    if c.vertex_set() & set(p.verts):
        raise ValueError("cycle and path share vertices")
    for i, (u, v) in enumerate(c.edges()):
        for q in (p.verts, tuple(reversed(p.verts))):
            if adjacent(u, q[0]) and adjacent(v, q[-1]):
                return Cycle(c.verts[: i + 1] + q + c.verts[i + 1 :])
    raise NoConcatenationEdge("no cycle edge can absorb the path")


def concat_cycles_edges(g: SupergridGraph, c1: Cycle, c2: Cycle) -> Cycle:
    """Join two disjoint cycles across a bridging pair of edges.

    Needs edges (u1, v1) of c1 and (u2, v2) of c2 with u1 ~ u2 and v1 ~ v2;
    the first qualifying pair in traversal order (c1 edge outermost, then c2
    edge, then c2 orientation) is used.
    """
    _require_cycle_in_graph(g, c1, "c1")
    _require_cycle_in_graph(g, c2, "c2")
    if c1.vertex_set() & c2.vertex_set():
        raise ValueError("cycles are not vertex-disjoint")
    k2 = len(c2.verts)
    for i, (u1, v1) in enumerate(c1.edges()):
        for m in range(k2):
            u2, v2 = c2.verts[m], c2.verts[(m + 1) % k2]
            if adjacent(u1, u2) and adjacent(v1, v2):
                # open c1 after u1, open c2 after u2; walk c2 backwards from u2.
                left = c1.verts[i + 1 :] + c1.verts[: i + 1]  # v1 .. u1
                right = c2.verts[m::-1] + c2.verts[:m:-1]  # u2 .. v2
                return Cycle(left + right)
            if adjacent(u1, v2) and adjacent(v1, u2):
                left = c1.verts[i + 1 :] + c1.verts[: i + 1]  # v1 .. u1
                right = c2.verts[(m + 1) % k2 :] + c2.verts[: (m + 1) % k2]  # v2 .. u2
                return Cycle(left + right)
    raise NoBridgeEdges("no bridging edge pair between the cycles")


def concat_cycles_shared_vertex(g: SupergridGraph, c1: Cycle, c2: Cycle) -> Cycle:
    """Join two cycles that share exactly one vertex v.

    Needs cycle edges (u, v) of c1 and (w, v) of c2 with u ~ w; v appears
    once in the result.
    """
    _require_cycle_in_graph(g, c1, "c1")
    _require_cycle_in_graph(g, c2, "c2")
    shared = c1.vertex_set() & c2.vertex_set()
    if len(shared) != 1:
        raise NoSharedVertex(f"cycles share {len(shared)} vertices, need exactly 1")
    (v,) = shared
    i1 = c1.verts.index(v)
    i2 = c2.verts.index(v)
    a1 = c1.rotated_to(i1).verts  # starts at v
    a2 = c2.rotated_to(i2).verts
    # u is a cycle neighbor of v in c1; w one in c2.  Fixed trial order:
    # predecessor before successor on each cycle.
    for u_path in (a1, (a1[0],) + tuple(reversed(a1[1:]))):
        u = u_path[-1]
        for w_path in (tuple(reversed(a2[1:])), a2[1:]):
            w = w_path[0]
            if adjacent(u, w):
                return Cycle(u_path + w_path)
    raise NoPivotEdge("no adjacent edge pair flanks the shared vertex")
