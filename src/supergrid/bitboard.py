"""Box-mask kernel: structural predicates answered from a subset bitmask.

A subset of the width x height cell box is a Python int with bit i set for
cell (i % width, i // width).  The numbering is row-major, so ascending bit
order is the (y, x) vertex order used everywhere else in the library.  A
:class:`Box` holds the tables for one box size, cached per size:

* ``lines``: one mask per lattice line (horizontal, vertical, diagonal,
  antidiagonal) holding at least three cells, since shorter lines cannot
  have a gap; each is a run of bits at stride 1, W, W+1 or W-1 cut to the
  box, built arithmetically in O(W*H/64) words per line;
* ``line_families``: the same masks by family, indexed by row y, column x,
  y - x + W - 1 and x + y, with 0 for lines under three cells;
* ``neighbours[i]``: the king-move neighbour mask of cell i;
* ``linear_convex_masks``: every linearly convex subset, ascending.

``neighbours`` takes W*H bits per cell, so it is built on first use, only by
the oracle and the whole-box passes' subset table (``verify``, and
``enumerate`` without ``linear_convex`` required): one byte per subset, bit 0
its connected flag and bit 1 its 2-connected flag.  ``enumerate`` fills it by
one ascending walk into a ``bytearray``; ``verify``'s processes fill a shared
mapping chunk by chunk, each chunk once those holding its masks' one-smaller
submasks are filled.  The line tables grow linearly with the box.

The box passes read linear convexity from ``linear_convex_masks``, also built
on first use and kept, which is generated rather than filtered: each row is
empty or one run, chosen from the top row (the highest bits) down in
ascending order, and a run is rejected, by one AND, when it touches a
vertical, diagonal or antidiagonal line that a row above met and a later row
left.  ``is_linear_convex`` tests one mask against every line; it is the
tests' reference only, since random growth is linearly convex by construction.

Connectivity is a flood fill by king-move dilation, done with shifts and
column masks over the whole board; the same dilation gives the fringe of a
subset.  The linear-convex closure fills lines from a worklist, each between
its lowest and highest member, and queues the lines through each cell it
adds, so closing after one new cell checks only that cell's lines.  Local
connectivity and forced vertices read one set of eight direction masks, local
connectivity through the ring rule :func:`~supergrid.grid.ring_cuts` on every
vertex at once, and 2-connectivity floods only where that rule cuts; the
predicates follow :mod:`supergrid.classify`'s conventions.

This is the fast path for box sweeps and seeded growth.  The ``Point``
predicates in :mod:`supergrid.classify` remain the general-input API (sparse
graphs with large coordinates fit no mask) and the reference this module is
tested against.
"""

from __future__ import annotations

import functools

from .grid import FORCED_VERTEX_PATTERNS, OFFSETS, Point, SupergridGraph, ring_cuts


@functools.lru_cache(maxsize=4096)
def _cell_point(i: int, width: int) -> Point:
    return Point(i % width, i // width)


def mask_to_graph(mask: int, width: int) -> SupergridGraph:
    """Subset bitmask (row-major, bit i = cell (i % width, i // width)) to graph.

    Graphs decoded with the same width share their Point objects, so holding
    thousands of them costs little more than their vertex sets.
    """
    points = []
    m = mask
    while m:
        low = m & -m
        points.append(_cell_point(low.bit_length() - 1, width))
        m ^= low
    return SupergridGraph(points)


class Box:
    """Tables and predicates for subsets of one width x height box."""

    # Slots, not cached_property: an instance __dict__ slows the predicates' attribute loads.
    __slots__ = ("width", "height", "full", "_not_first_col", "_not_last_col",
                 "lines", "line_families", "_neighbours", "_linear_convex_masks")

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.full = (1 << (width * height)) - 1
        first_col = sum(1 << (y * width) for y in range(height))
        self._not_first_col = self.full & ~first_col
        self._not_last_col = self.full & ~(first_col << (width - 1))
        # (first bit b, stride s, length n) of each line, per family; diagonals
        # start at the upper-left end, antidiagonals at the upper-right.
        families = ([(y * width, 1, width) for y in range(height)],
                    [(x, width, height) for x in range(width)], [], [])
        for d in range(1 - width, height):
            x0 = max(0, -d)
            families[2].append(((x0 + d) * width + x0, width + 1, min(width, height - d) - x0))
        for a in range(width + height - 1):
            x1 = min(width - 1, a)
            families[3].append(((a - x1) * width + x1, width - 1, x1 - max(0, a - height + 1) + 1))
        # Bits b, b + s, ..., b + (n - 1) s form a geometric series; short lines are 0.
        self.line_families = tuple(
            tuple(((1 << s * n) - 1) // ((1 << s) - 1) << b if n >= 3 else 0 for b, s, n in runs)
            for runs in families)
        self.lines = tuple(line for family in self.line_families for line in family if line)
        self._neighbours = self._linear_convex_masks = None

    @property
    def neighbours(self) -> tuple[int, ...]:
        if self._neighbours is None:
            full = self.full
            self._neighbours = tuple(self.dilate(1 << i, full) ^ (1 << i)
                                     for i in range(self.width * self.height))
        return self._neighbours

    @property
    def linear_convex_masks(self) -> list[int]:
        """Every linearly convex subset mask of the box, ascending, from 0 to the full box.

        Generated a row at a time, as the module docstring says.  The pruning
        is exact: every line but a row meets each row at most once, so a mask
        is linearly convex iff each such line's rows in it are consecutive.
        Per family two masks over the row's columns hold the lines met and
        those met and then left.  Built on first use and kept.
        """
        if self._linear_convex_masks is None:
            width, row = self.width, (1 << self.width) - 1
            runs = [0] + sorted(((1 << n) - 1) << x for n in range(1, width + 1)
                                for x in range(width - n + 1))
            fitting = {}  # left columns -> the runs that avoid them, ascending
            # (mask so far, then met and left of vertical, diagonal, antidiagonal lines)
            states = [(0, 0, 0, 0, 0, 0, 0)]
            for y in reversed(range(self.height)):
                grown = []
                for mask, vm, vl, dm, dl, am, al in states:
                    # From row y + 1 to row y a diagonal moves one column left, an antidiagonal right.
                    dm, dl, am, al = dm >> 1, dl >> 1, am << 1 & row, al << 1 & row
                    left = vl | dl | al
                    if (fits := fitting.get(left)) is None:
                        fits = fitting[left] = [r for r in runs if not r & left]
                    mask <<= width
                    if y:
                        grown += [(mask | r, vm | r, vl | vm & ~r, dm | r, dl | dm & ~r,
                                   am | r, al | am & ~r) for r in fits]
                    else:
                        grown += [mask | r for r in fits]
                states = grown
            self._linear_convex_masks = states
        return self._linear_convex_masks

    def dilate(self, mask: int, within: int) -> int:
        """Cells of ``within`` that are in the subset or one king move from it."""
        h = mask | ((mask << 1) & self._not_first_col) | ((mask >> 1) & self._not_last_col)
        return (h | (h << self.width) | (h >> self.width)) & within

    def is_connected(self, mask: int) -> bool:
        """True iff the subset has at most one vertex or one flood reaches all."""
        dilate = self.dilate
        reach = mask & -mask
        while reach != mask:  # one dilation per round, kept inside the subset
            grown = dilate(reach, mask)
            if grown == reach:
                return False
            reach = grown
        return True

    def is_two_connected(self, mask: int) -> bool:
        """True iff |V| >= 3, the subset is connected, and no vertex cuts it.

        A vertex with a connected neighbourhood cannot cut a connected graph
        (Chartrand and Pippert, 1974), so after one flood only the vertices
        :func:`~supergrid.grid.ring_cuts` flags are dropped and flooded, ascending.
        """
        if mask.bit_count() < 3 or not self.is_connected(mask):
            return False
        cuts = ring_cuts(*self._near(mask)) & mask
        while cuts:
            low = cuts & -cuts
            cuts ^= low
            if not self.is_connected(mask ^ low):
                return False
        return True

    def two_connected_sweep(self) -> bytearray:
        """One byte per subset of the box: bit 0 if it is connected, bit 1 if 2-connected.

        2-connected implies connected, so a byte is 0, 1 or 3: 64 KB at 4x4,
        1 MB at 5x4, 32 MB at 25 cells.  This is :meth:`fill_two_connected`
        over the whole box.
        """
        table = bytearray(self.full + 1)
        self.fill_two_connected(table, range(self.full + 1))
        return table

    def fill_two_connected(self, table, masks: range) -> None:
        """Write the :meth:`two_connected_sweep` byte of each of ``masks`` into ``table``.

        A subset with two or more cells is connected iff dropping some cell v
        leaves it connected and holding a neighbour of v (take v a leaf of a
        spanning tree); it is 2-connected iff it has three or more cells and
        every such drop leaves it connected, so the drops stop once one
        connects and one disconnects.  ``masks`` ascend, and each mask's
        one-smaller submasks outside them must already be filled; those in
        ``masks`` are filled first, as they are smaller.  Answers as its
        references :meth:`is_connected` and the tests' one flood per vertex
        ``reference_bitboard.is_two_connected``, not the ring rule.
        """
        neighbours = self.neighbours
        for mask in masks:
            no_cut = True
            connected = mask & (mask - 1) == 0  # at most one cell
            m = mask
            while m and (no_cut or not connected):  # until both flags are final
                low = m & -m
                m ^= low
                rest = mask ^ low
                if not table[rest]:
                    no_cut = False
                elif not connected and neighbours[low.bit_length() - 1] & rest:
                    connected = True
            table[mask] = 3 if no_cut and mask.bit_count() >= 3 else connected

    def is_linear_convex(self, mask: int) -> bool:
        """True iff every lattice line meets the subset in one contiguous run.

        Bit order is monotone along every line, so a run is contiguous iff the
        line holds no absent cell between its lowest and highest member bit.
        The library never calls it; it is the tests' reference only.
        """
        for line in self.lines:
            seg = mask & line
            if seg and line & ((1 << seg.bit_length()) - (seg & -seg)) != seg:
                return False
        return True

    def close(self, mask: int, closed: int = 0) -> int:
        """Smallest linearly convex superset of ``mask | closed``, from a worklist of lines.

        ``closed`` must be linearly convex, so only lines through ``mask`` cells
        are checked; each cell a line fill adds queues its lines.  The superset
        is unique, so the order of the fills cannot change it.
        """
        fresh, todo = mask, []
        mask |= closed
        rows, cols, diagonals, antidiagonals = self.line_families
        while True:
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                y, x = divmod(low.bit_length() - 1, self.width)
                todo += rows[y], cols[x], diagonals[y - x + self.width - 1], antidiagonals[x + y]
            if not todo:
                return mask
            line = todo.pop()
            seg = mask & line
            if seg:
                fresh = (line & ((1 << seg.bit_length()) - (seg & -seg))) ^ seg
                mask |= fresh

    def _near(self, mask: int) -> tuple[int, ...]:
        """Per Direction d, the cells whose d neighbour is in the subset."""
        # Shifting by one column wraps row ends onto the next row; the column masks drop those.
        width, full = self.width, self.full
        left, right = mask << 1 & self._not_first_col, mask >> 1 & self._not_last_col
        return (left << width & full, mask << width & full, right << width & full, left, right,
                left >> width, mask >> width, right >> width)

    def is_locally_connected(self, mask: int) -> bool:
        """True iff no vertex's induced neighbourhood is cut (:func:`~supergrid.grid.ring_cuts`)."""
        return not ring_cuts(*self._near(mask)) & mask

    def forced_vertex_violations(self, mask: int) -> list[tuple[int, int]]:
        """(vertex, missing forced neighbour) cell pairs, as in verification.

        Each of :data:`~supergrid.grid.FORCED_VERTEX_PATTERNS` (a, b, c) flags
        the members whose a and b neighbours are in the subset and whose c
        neighbour is not.  Pairs are sorted, which lists them by vertex and
        then in pattern order, as the c cells U, L, R, D ascend.
        """
        near = dict(zip(OFFSETS, self._near(mask)))
        out = []
        for a, b, (cx, cy) in FORCED_VERTEX_PATTERNS:
            flagged = mask & near[a] & near[b] & ~near[cx, cy]
            while flagged:
                low = flagged & -flagged
                flagged ^= low
                v = low.bit_length() - 1
                out.append((v, v + cy * self.width + cx))
        return sorted(out)


@functools.lru_cache(maxsize=32)
def box(width: int, height: int) -> Box:
    """The cached tables for one box size."""
    if width < 1 or height < 1:
        raise ValueError("box dimensions must be positive")
    return Box(width, height)

