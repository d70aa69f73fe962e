"""Slow references for the bitboard kernel, kept verbatim.

``Box.close`` rescanned every line of the box, round after round, until no
line changed.  The library's closure works through a worklist of the lines
through new cells instead; the differential tests check that both return the
same mask, closing whole masks and one new cell added to a closed mask.

Local connectivity looked each vertex's 8-bit neighbour pattern up in a
256-entry table built by flooding every pattern in a 3x3 box, one vertex at a
time.  The library applies the ring rule ``grid.ring_cuts`` instead, to single
patterns and to whole direction masks; the tests check it against the table
on all 256 patterns and against the table-driven kernel on whole boxes.

2-connectivity flooded the subset once per vertex, with that vertex removed.
The library floods the subset once, and then once more only per vertex whose
neighbourhood the ring rule cuts: a vertex with a connected neighbourhood
cannot cut a connected graph.  The tests check both on whole boxes, and the
box sweep's 2-connected flags against this reference.
"""

from __future__ import annotations

import functools

from supergrid.bitboard import Box, box
from supergrid.grid import OFFSETS


def close(self: Box, mask: int) -> int:
    """Linear-convex closure: fill every line between its end bits until nothing changes."""
    while True:
        before = mask
        for line in self.lines:
            seg = mask & line
            if seg:
                mask |= line & ((1 << seg.bit_length()) - (seg & -seg))
        if mask == before:
            return mask


@functools.lru_cache(maxsize=1)
def local_table() -> tuple[bool, ...]:
    """Connectedness of every 8-bit neighbourhood pattern, centre excluded."""
    ring = box(3, 3)
    cells = [1 << ((dy + 1) * 3 + dx + 1) for dx, dy in OFFSETS]
    return tuple(
        ring.is_connected(sum(c for d, c in enumerate(cells) if pattern >> d & 1))
        for pattern in range(256)
    )


def _near(self: Box, mask: int) -> tuple[int, ...]:
    """Per Direction d, the cells whose d neighbour is in the subset."""
    # Shifting by dx = +-1 wraps row ends onto the next row; the column masks drop those.
    cols = {-1: self._not_first_col, 0: self.full, 1: self._not_last_col}
    shifts = ((dy * self.width + dx, cols[dx]) for dx, dy in OFFSETS)
    return tuple((mask >> s if s >= 0 else mask << -s) & col for s, col in shifts)


def is_locally_connected(self: Box, mask: int) -> bool:
    """True iff the induced neighbourhood of every vertex is connected."""
    table = local_table()
    near = _near(self, mask)
    m = mask
    while m:
        low = m & -m
        m ^= low
        if not table[sum(1 << d for d, cells in enumerate(near) if cells & low)]:
            return False
    return True


def is_two_connected(self: Box, mask: int) -> bool:
    """True iff |V| >= 3, the subset is connected, and no vertex cuts it.

    No separate connectivity flood: with |V| >= 3, some single removal
    leaves a disconnected subset disconnected.
    """
    if mask.bit_count() < 3:
        return False
    m = mask
    while m:
        low = m & -m
        m ^= low
        if not self.is_connected(mask ^ low):
            return False
    return True
