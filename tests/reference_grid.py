"""Slow reference: the vertex-id table keyed by ``(x, y)`` tuples, kept verbatim.

The library's ``grid.vertex_ids`` now keys each vertex by one packed int
over the bounding box and finds the eight neighbours by adding fixed
offsets to it; the table tests check that it gives exactly these points,
in this order, and these neighbour lists.
"""

from __future__ import annotations

from supergrid.grid import OFFSETS, Point, SupergridGraph

VertexTable = tuple[tuple[Point, ...], dict[tuple[int, int], int], list[list[int]]]


def vertex_ids(g: SupergridGraph) -> VertexTable:
    """Vertex ids in (y, x) order: the points, an (x, y) -> id map, neighbour ids.

    ``nbrs[i]`` lists the ids of :func:`neighbors` of ``points[i]``, in Direction
    order.  Not cached on the graph: a solve builds one and shares it.
    """
    points = g.sorted_vertices()
    ident = {(p.x, p.y): i for i, p in enumerate(points)}
    nbrs = [
        [j for dx, dy in OFFSETS if (j := ident.get((p.x + dx, p.y + dy))) is not None]
        for p in points
    ]
    return points, ident, nbrs
