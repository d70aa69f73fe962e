"""File formats: lattice text, cycle listings, JSON reports/traces, SVG.

Lattice text is the graph input format: ``#`` is a vertex, ``.`` is empty,
lines starting with ``;`` are comments.  Row y (counting non-comment rows
from 0) and column x map ``#`` to vertex (x, y); ragged rows are implicitly
right-padded with ``.``.  The format cannot express negative coordinates, so
the writer translates the bounding-box corner to the origin.

SVG export renders a cycle as one closed polygon, y growing downward exactly
as in the lattice, so exported sewing traces match the input orientation.
Output bytes are deterministic for fixed inputs (integer arithmetic only).
"""

from __future__ import annotations

import json

from .classify import ClassificationReport, ViolationWitness
from .cycles import Cycle
from .errors import CycleFormatError, InvalidCharacter
from .grid import Point, SupergridGraph
from .hamiltonian import ExtensionStep, ExtensionTrace


def _rows(text: str) -> list[str]:
    """Rows ending at ``\\n``, ``\\r\\n`` or ``\\r`` only, unlike ``str.splitlines``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_lattice(text: str) -> SupergridGraph:
    """Read lattice text into a graph; empty documents give the empty graph.

    Rows end only at ``\\n``, ``\\r\\n`` or ``\\r``; any other control or
    separator character (form feed, U+2028, ...) is an InvalidCharacter.
    """
    points = []
    y = 0
    for line_no, line in enumerate(_rows(text)):
        if line.startswith(";"):
            continue
        for x, ch in enumerate(line):
            if ch == "#":
                points.append(Point(x, y))
            elif ch != ".":
                raise InvalidCharacter(line_no, x)
        y += 1
    return SupergridGraph(points)


def render_lattice(g: SupergridGraph) -> str:
    """Write a graph as lattice text, bounding-box corner at the origin."""
    box = g.bounding_box()
    if box is None:
        return ""
    min_x, min_y, max_x, max_y = box
    verts = g.vertices
    rows = []
    for y in range(min_y, max_y + 1):
        rows.append(
            "".join("#" if Point(x, y) in verts else "." for x in range(min_x, max_x + 1))
        )
    return "\n".join(rows) + "\n"


def write_cycle(c: Cycle) -> str:
    """One ``x,y`` line per vertex in traversal order; closing edge implicit."""
    return "".join(f"{p.x},{p.y}\n" for p in c.verts)


def parse_cycle(text: str) -> Cycle:
    """Inverse of write_cycle, rows as in lattice text; CycleFormatError on malformed input."""
    points = []
    for line_no, raw in enumerate(_rows(text)):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CycleFormatError(f"line {line_no}: expected 'x,y', got {raw!r}")
        try:
            points.append(Point(int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise CycleFormatError(f"line {line_no}: {exc}") from exc
    try:
        return Cycle(tuple(points))
    except ValueError as exc:
        raise CycleFormatError(str(exc)) from exc


def export_svg(c: Cycle, cell_size: int) -> str:
    """Closed-polygon trace of the cycle, one circle marker per vertex."""
    if cell_size < 1:
        raise ValueError("cell_size must be >= 1")
    pts = [(p.x * cell_size, p.y * cell_size) for p in c.verts]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    margin = cell_size
    min_x, min_y = min(xs) - margin, min(ys) - margin
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin
    stroke = max(1, cell_size // 10)
    radius = max(1, cell_size // 5)
    points_attr = " ".join(f"{x},{y}" for x, y in pts)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min_x} {min_y} {width} {height}" '
        f'width="{width}" height="{height}">',
        f'  <polygon points="{points_attr}" fill="none" stroke="black" '
        f'stroke-width="{stroke}"/>',
    ]
    for x, y in pts:
        lines.append(f'  <circle cx="{x}" cy="{y}" r="{radius}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _point_json(p: Point | None) -> list[int] | None:
    return None if p is None else [p.x, p.y]


def _witness_json(w: ViolationWitness | None) -> dict | None:
    if w is None:
        return None
    out: dict = {
        "predicate": w.predicate,
        "points": [_point_json(p) for p in w.points],
        "missing": _point_json(w.missing),
    }
    out["line"] = (
        None if w.line is None else {"direction": w.line.direction.value, "index": w.line.index}
    )
    return out


def report_to_json(report: ClassificationReport) -> str:
    """Flat JSON object with the report's exact field names."""
    return json.dumps(
        {
            "vertex_count": report.vertex_count,
            "connected": report.connected,
            "two_connected": report.two_connected,
            "linear_convex": report.linear_convex,
            "locally_connected": report.locally_connected,
            "violation_witness": _witness_json(report.violation_witness),
        },
        indent=2,
    )


def step_to_json(step: ExtensionStep) -> str:
    """One trace step as a single JSON line."""
    return json.dumps(
        {
            "cycle_length_before": step.cycle_length_before,
            "attached_vertex": _point_json(step.attached_vertex),
            "rule": step.rule.value,
            "anchor_u1": _point_json(step.anchor_u1),
            "pivot_z": _point_json(step.pivot_z),
            "pivot_y": _point_json(step.pivot_y),
        }
    )


def trace_to_jsonl(trace: ExtensionTrace) -> str:
    """JSON-lines serialization of a whole trace, one step per line."""
    return "".join(step_to_json(step) + "\n" for step in trace.steps)
