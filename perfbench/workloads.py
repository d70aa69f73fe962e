"""The four benchmark workloads: inputs, the timed call, and output checks.

A workload builds its inputs in ``setup`` (untimed by the pass loop, timed
as ``setup_s``), makes one library call per item in ``call`` (timed), and
checks each output in ``check`` and the run's totals in ``finish``.  A check
returns a message naming what failed, or None.  Every library function is
looked up on its module at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import random
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from regions import make_region

RULES = ("DIRECT_INSERT", "CLAIM1_REWIRE", "CLAIM2_REWIRE", "FALLBACK_SEARCH")
SVG_CELL = 20  # the CLI's default --cell; SVG coordinates are vertex * SVG_CELL


def run_cli_captured(lib: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """``run_cli`` with stdout and stderr kept in memory; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run_cli(argv)
    return code, out.getvalue()


def cycle_error(lib: SimpleNamespace, g, verts) -> str | None:
    """Why ``verts`` is not a Hamiltonian cycle of g, or None if it is one."""
    if not lib.cycles.validate_cycle(g, verts):
        return "not a valid cycle of the graph"
    if len(verts) != len(g) or set(verts) != g.vertices:
        return f"covers {len(set(verts))} of {len(g)} vertices"
    return None


def add_rules(tally: dict, result) -> None:
    for rule, n in result.trace.rule_counts().items():
        tally[rule] = tally.get(rule, 0) + n


def rule_mismatch(tally: dict, expected: dict) -> str | None:
    got = {rule: tally.get(rule, 0) for rule in RULES}
    want = {rule: expected[rule] for rule in RULES}
    return None if got == want else f"rule counts {got} != expected {want}"


class Workload:
    name = ""

    def setup(self, lib: SimpleNamespace, seed: int) -> list:
        raise NotImplementedError

    def call(self, lib: SimpleNamespace, item) -> Any:
        raise NotImplementedError

    def check(self, lib: SimpleNamespace, item, output, tally: dict) -> str | None:
        raise NotImplementedError

    def finish(self, tally: dict) -> list[str]:
        return []

    def size(self, item, output) -> tuple[int, int]:
        """(graphs, vertices) handled by one call."""
        raise NotImplementedError


class VerifyBox(Workload):
    """``supergrid verify --box WxH`` through ``run_cli``; one call per pass."""

    name = "verify-4x4"

    def __init__(self, width: int, height: int, expected: dict):
        self.width, self.height, self.expected = width, height, expected

    def setup(self, lib, seed):
        return [None]

    def call(self, lib, item):
        return run_cli_captured(lib, ["verify", "--box", f"{self.width}x{self.height}"])

    def check(self, lib, item, output, tally):
        code, text = output
        if code != 0:
            return f"verify exited with code {code}"
        lines = text.splitlines()
        if "violations: 0" not in lines:
            return "verify did not report 'violations: 0'"
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        strict = int(fields.get("strict instances (two_connected & linear_convex)", -1))
        if strict != self.expected["strict_instances"]:
            return f"{strict} strict instances != expected {self.expected['strict_instances']}"
        counts = dict(
            pair.split("=") for pair in fields.get("rule counts", "").split(", ") if "=" in pair
        )
        return rule_mismatch({k: int(v) for k, v in counts.items()}, self.expected)

    def size(self, item, output):
        cells = self.width * self.height
        return 1 << cells, cells << (cells - 1)


class SewingRegions(Workload):
    """``supergrid trace REGION --svg OUT`` on seeded pixel regions."""

    name = "sewing-regions"

    def __init__(self, slots: list[tuple[str, int]], workdir: Path):
        self.slots, self.workdir = slots, workdir

    def setup(self, lib, seed):
        rng = random.Random(f"sewing-regions/{seed}")
        items = []
        for i, (kind, target) in enumerate(self.slots):
            g = make_region(kind, target, rng, lib)
            lattice = self.workdir / f"region{i}-{kind}.txt"
            lattice.write_text(lib.lattice_io.render_lattice(g), encoding="utf-8")
            items.append((g, str(lattice), str(self.workdir / f"region{i}-{kind}.svg")))
        return items

    def call(self, lib, item):
        _, lattice, svg = item
        return run_cli_captured(lib, ["trace", lattice, "--svg", svg])

    def check(self, lib, item, output, tally):
        g, _, svg = item
        code, _ = output
        if code != 0:
            return f"trace exited with code {code}"
        try:
            root = ET.parse(svg).getroot()
        except (OSError, ET.ParseError) as exc:
            return f"SVG does not parse: {exc}"
        return svg_cycle_error(lib, g, root)

    def size(self, item, output):
        return 1, len(item[0])


def svg_cycle_error(lib: SimpleNamespace, g, root: ET.Element) -> str | None:
    """Decode the trace polygon back into lattice points and check the cycle."""
    polygon = root.find("{http://www.w3.org/2000/svg}polygon")
    if polygon is None:
        return "SVG has no polygon"
    verts = []
    for pair in polygon.get("points", "").split():
        x, y = (int(v) for v in pair.split(","))
        if x % SVG_CELL or y % SVG_CELL:
            return f"polygon point {pair} is off the {SVG_CELL}-unit grid"
        verts.append(lib.grid.Point(x // SVG_CELL, y // SVG_CELL))
    return cycle_error(lib, g, verts)


class ProbePermissive(Workload):
    """Permissive solves of every 2-connected subset of a box."""

    name = "probe-permissive-4x4"

    def __init__(self, width: int, height: int, expected: dict | None):
        self.width, self.height, self.expected = width, height, expected

    def setup(self, lib, seed):
        spec = lib.enumeration.EnumSpec(self.width, self.height, require={"two_connected"})
        return list(lib.enumeration.enumerate_graphs(spec))

    def call(self, lib, g):
        return lib.hamiltonian.find_hamiltonian_cycle(g, strict=False)

    def check(self, lib, g, result, tally):
        tally[result.status] = tally.get(result.status, 0) + 1
        if result.status == "extension_failed":
            return None
        if result.status != "cycle":
            return f"status {result.status!r} on a 2-connected graph"
        add_rules(tally, result)
        return cycle_error(lib, g, result.cycle.verts)

    def finish(self, tally):
        if self.expected is None:
            return []
        errors = []
        for status in ("cycle", "extension_failed"):
            got, want = tally.get(status, 0), self.expected[status]
            if got != want:
                errors.append(f"{got} {status} != expected {want}")
        mismatch = rule_mismatch(tally, self.expected["rules"])
        return errors + ([mismatch] if mismatch else [])

    def size(self, g, result):
        return 1, len(g)


class RandomBatch(Workload):
    """Seeded ``random_graph`` then a strict solve, for a contiguous seed range."""

    name = "random-8x8"

    def __init__(self, width: int, height: int, count: int, expected: dict | None):
        self.width, self.height, self.count = width, height, count
        self.expected = expected  # rule counts for seed 0, checked only there
        self.seed = 0

    def setup(self, lib, seed):
        self.seed = seed
        require = frozenset({"two_connected", "linear_convex"})
        first = seed * self.count
        return [
            lib.enumeration.EnumSpec(
                self.width, self.height, min_vertices=8 + s % 45, require=require, seed=s
            )
            for s in range(first, first + self.count)
        ]

    def call(self, lib, spec):
        g = lib.enumeration.random_graph(spec)
        return g, lib.hamiltonian.find_hamiltonian_cycle(g, strict=True)

    def check(self, lib, spec, output, tally):
        g, result = output
        if not result.found:
            return f"seed {spec.seed}: status {result.status!r}"
        add_rules(tally, result)
        error = cycle_error(lib, g, result.cycle.verts)
        return f"seed {spec.seed}: {error}" if error else None

    def finish(self, tally):
        if self.expected is None or self.seed != 0:
            return []
        mismatch = rule_mismatch(tally, self.expected)
        return [mismatch] if mismatch else []

    def size(self, spec, output):
        return 1, len(output[0])
