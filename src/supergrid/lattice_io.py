"""File formats: lattice text, cycle listings, JSON reports/traces, SVG.

Lattice text is the graph input format: ``#`` is a vertex, ``.`` is empty,
lines starting with ``;`` are comments.  Row y (counting non-comment rows
from 0) and column x map ``#`` to vertex (x, y); ragged rows are implicitly
right-padded with ``.``.  The format cannot express negative coordinates, so
the writer translates the bounding-box corner to the origin.

SVG export renders a cycle as one closed polygon, y growing downward exactly
as in the lattice, so exported sewing traces match the input orientation.
Output bytes are deterministic for fixed inputs (integer arithmetic only).

JSON reports and trace lines are the result dataclasses, written by the
standard encoder with one ``default`` hook: keys are field names in declaration
order, points are ``[x, y]`` and enums their values, so a new ``ExtensionStep``
field is a new JSONL key with no edit here.
"""

from __future__ import annotations

import functools
import json
from dataclasses import fields, is_dataclass
from enum import Enum

from .classify import ClassificationReport
from .cycles import Cycle
from .errors import CycleFormatError, InvalidCharacter
from .grid import Point, SupergridGraph
from .hamiltonian import ExtensionTrace


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


_fields = functools.cache(fields)


def _json_default(value):
    """Encoder hook: Point [x, y], Enum its value, dataclass an object by fields."""
    if isinstance(value, Point):  # before the dataclass case: Point is one
        return [value.x, value.y]
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in _fields(type(value))}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# No result dataclass can contain itself, so the encoder skips its cycle check.
_ENCODER = json.JSONEncoder(default=_json_default, check_circular=False)


def report_to_json(report: ClassificationReport) -> str:
    """The report as an indented JSON object, keyed by its field names."""
    return json.dumps(report, indent=2, default=_json_default)


def trace_to_jsonl(trace: ExtensionTrace) -> str:
    """JSON-lines serialization of a whole trace: one line per step, keyed by its field names."""
    return "".join(_ENCODER.encode(step) + "\n" for step in trace.steps)
