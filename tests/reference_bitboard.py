"""Slow reference: the all-lines bitboard closure, kept verbatim.

``Box.close`` rescanned every line of the box, round after round, until no
line changed.  The library's closure works through a worklist of the lines
through new cells instead; the differential tests check that both return the
same mask, closing whole masks and one new cell added to a closed mask.
"""

from __future__ import annotations

from supergrid.bitboard import Box


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
