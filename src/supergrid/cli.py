"""Command-line surface tying the pipeline together.

Exit codes are a stable contract:

* 0 - success (a cycle was produced, or a suite ran clean)
* 1 - usage, I/O, or parse errors (message names the offending location)
* 2 - no cycle exists by precondition (the failed predicate is reported)
* 3 - extension failed; the stuck witness is reported verbatim
* 4 - ``verify`` found violations
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from contextlib import nullcontext

from . import bitboard
from .classify import classify
# perfbench/layers.py wraps enumerate_graphs on this module, hence the import.
from .enumeration import PREDICATES, EnumSpec, _box_subsets, box_masks, enumerate_graphs  # noqa: F401
from .errors import SupergridError
from .grid import MAX_COORD
from .hamiltonian import brute_force_hamiltonian, find_hamiltonian_cycle
from .lattice_io import (
    export_svg,
    parse_lattice,
    report_to_json,
    trace_to_jsonl,
    write_cycle,
)
from .verification import SuiteReport, _tally_solve, run_box_suite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CYCLE = 2
EXIT_EXTENSION_FAILED = 3
EXIT_VIOLATIONS = 4


def _read_graph(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SupergridError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SupergridError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        return parse_lattice(text)
    except SupergridError as exc:
        raise SupergridError(f"{path}: {exc}") from exc


def _parse_box(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise SupergridError(f"--box expects WxH, got {text!r}")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SupergridError(f"--box expects integers, got {text!r}") from exc
    if width < 1 or height < 1:
        raise SupergridError("--box dimensions must be positive")
    return width, height


def _cmd_classify(args) -> int:
    g = _read_graph(args.file)
    print(report_to_json(classify(g)))
    return EXIT_OK


def _report_solver_outcome(result) -> int:
    if result.status == "no_cycle":
        print(f"no cycle: {result.failed_predicate} fails", file=sys.stderr)
        return EXIT_NO_CYCLE
    if result.status == "extension_failed":
        witness = result.witness
        print("extension failed; witness:", file=sys.stderr)
        print("no triangle to seed from" if witness.cycle is None else
              "stuck cycle: " + " ".join(map(str, witness.cycle.verts)), file=sys.stderr)
        if witness.frontier_vertex is not None:
            print(f"frontier vertex: {witness.frontier_vertex}", file=sys.stderr)
        return EXIT_EXTENSION_FAILED
    return EXIT_OK


def _cmd_hamcycle(args) -> int:
    g = _read_graph(args.file)
    result = find_hamiltonian_cycle(g, strict=not args.permissive)
    if args.trace and result.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(trace_to_jsonl(result.trace))
    code = _report_solver_outcome(result)
    if code == EXIT_OK:
        sys.stdout.write(write_cycle(result.cycle))
    return code


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    cycle = brute_force_hamiltonian(g, bound=args.bound)
    if cycle is None:
        print("none")
        return EXIT_NO_CYCLE
    sys.stdout.write(write_cycle(cycle))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    width, height = _parse_box(args.box)
    require = frozenset(p for p in (args.require or "").split(",") if p)
    unknown = require - set(PREDICATES)
    if unknown:
        raise SupergridError(f"unknown predicates: {','.join(sorted(unknown))}")
    box_masks(width, height)  # the cap check comes before the CSV file is created
    spec = EnumSpec(width, height, args.min_vertices, require, args.dedup)
    kernel, local = bitboard.box(width, height), "locally_connected" in require
    total = n_connected = n_two_connected = n_linear_convex = n_locally_connected = 0
    tally = SuiteReport(width, height)
    with open(args.csv, "w", encoding="utf-8", newline="") if args.csv else nullcontext() as handle:
        # Every predicate is invariant under the symmetries, so a --dedup class is
        # judged on its first mask; only the rule counts need its canonical form.
        # With locally_connected required, every mask kept has passed it already.
        for mask, connected, two_connected, linear_convex, canon in _box_subsets(spec):
            total += 1
            n_connected += connected
            n_two_connected += two_connected
            n_linear_convex += linear_convex
            n_locally_connected += local or kernel.is_locally_connected(mask)
            if two_connected and linear_convex:
                _tally_solve(tally, mask, canon or bitboard.mask_to_graph(mask, width))
        row = {"box": f"{width}x{height}", "total": total,  # then the PREDICATES order
               "connected": n_connected, "two_connected": n_two_connected,
               "linear_convex": n_linear_convex, "locally_connected": n_locally_connected,
               "hamiltonian_found": tally.strict_instances - len(tally.solve_failures),
               **{"rule_" + name.lower(): n for name, n in tally.rule_counts.items()}}
        if handle:
            writer = csv.DictWriter(handle, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    for key, value in row.items():
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    if args.cell < 1:
        raise SupergridError(f"--cell must be >= 1, got {args.cell}")
    if args.cell > MAX_COORD:  # the value itself may be too long to print
        raise SupergridError(f"--cell must be <= {MAX_COORD}")
    g = _read_graph(args.file)
    result = find_hamiltonian_cycle(g, strict=not args.permissive)
    code = _report_solver_outcome(result)
    if code != EXIT_OK:
        return code
    svg = export_svg(result.cycle, args.cell)
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.svg}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    width, height = _parse_box(args.box)
    report = run_box_suite(width, height, oracle_limit=args.oracle_limit)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.total_violations() == 0 else EXIT_VIOLATIONS


@functools.cache  # one per process: argparse looks up sys.stderr and formatters per parse
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supergrid",
        description="Hamiltonian cycles in linearly convex supergrid graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the predicate report for a lattice file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("hamcycle", help="find a Hamiltonian cycle constructively")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=False,
                      help="require 2-connectivity and linear convexity (default)")
    mode.add_argument("--permissive", action="store_true", default=False,
                      help="attempt any 2-connected graph; extension may fail")
    p.add_argument("--trace", metavar="OUT.jsonl", help="write the per-step trace")
    p.set_defaults(func=_cmd_hamcycle)

    p = sub.add_parser("oracle", help="brute-force search (independent of the solver)")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=24, help="vertex-count search bound")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("enumerate", help="stream box subsets and summarize them")
    p.add_argument("--box", required=True, metavar="WxH")
    p.add_argument("--min", dest="min_vertices", type=int, default=0)
    p.add_argument("--require", metavar="p,q", help="comma-separated predicate names")
    p.add_argument("--dedup", action="store_true", help="one graph per symmetry class")
    p.add_argument("--csv", metavar="OUT.csv", help="write the summary row as CSV")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("trace", help="solve and export the cycle as an SVG trace")
    p.add_argument("file")
    p.add_argument("--svg", required=True, metavar="OUT.svg")
    p.add_argument("--cell", type=int, default=20, help="cell size in SVG units")
    p.add_argument("--permissive", action="store_true", default=False)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="run the exhaustive theorem suite over a box")
    p.add_argument("--box", required=True, metavar="WxH")
    p.add_argument("--oracle-limit", type=int, default=12,
                   help="run the brute-force oracle on graphs up to this size")
    p.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv: list[str]) -> int:
    """Parse and dispatch; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (SupergridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
