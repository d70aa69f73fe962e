"""Slow reference: the backtracking oracle without the anchor prune, kept verbatim.

This search checked only that free vertices kept two usable neighbours and
stayed reachable; it never checked that the anchor (the lowest vertex,
where the cycle starts and ends) still had a free neighbour to close the
cycle through, so on a graph whose anchor ran out of such neighbours it
listed every Hamiltonian path and rejected each at the leaf.  The library's
oracle adds that prune; the differential tests check that it returns
exactly what this one returns, path for path.
"""

from __future__ import annotations

from typing import Sequence

from supergrid.errors import SizeBoundExceeded
from supergrid.hamiltonian import MAX_ORACLE_BOUND


def brute_force_hamiltonian_mask(
    adjacency: Sequence[int], vertices: int, bound: int = 24
) -> list[int] | None:
    """Backtracking search for a Hamiltonian cycle of a vertex bitmask.

    ``adjacency[i]`` is the neighbour mask of vertex i; bits outside
    ``vertices`` are ignored, so a whole box's neighbour table serves every
    subset of it.  Anchored at the lowest vertex, neighbours tried in
    ascending order; prunes branches where some unvisited vertex has fewer
    than two usable neighbours or where the unvisited set is no longer
    reachable from the current endpoint.  Returns the cycle as vertex numbers
    from the anchor, or None.  The search recurses once per cycle vertex, so
    a ``bound`` above :data:`MAX_ORACLE_BOUND` raises SizeBoundExceeded
    before it starts.
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

    def reachable(cur: int, free: int) -> bool:
        seen = 1 << cur
        frontier = seen
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adjacency[low.bit_length() - 1]
                f ^= low
            nxt &= free | (1 << cur)
            nxt &= ~seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return free & ~seen == 0

    def search(cur: int, visited: int, touched: int) -> bool:
        # Only vertices in ``touched`` can have lost a usable neighbour since
        # the parent call, which checked every other free vertex already.
        if visited == vertices:
            return bool(adjacency[cur] & start)
        free = vertices & ~visited
        avail = free | (1 << cur) | start
        f = free & touched
        while f:
            low = f & -f
            if (adjacency[low.bit_length() - 1] & avail).bit_count() < 2:
                return False
            f ^= low
        if not reachable(cur, free):
            return False
        options = adjacency[cur] & free
        while options:
            low = options & -options
            nxt = low.bit_length() - 1
            path.append(nxt)
            if search(nxt, visited | low, adjacency[cur]):
                return True
            path.pop()
            options ^= low
        return False

    return path if search(path[0], start, vertices) else None
