"""Exhaustive machine-verification suites over all subsets of a cell box.

One streaming pass over the subset bitmasks drives four checks at once:

* local connectivity is implied by 2-connectivity plus linear convexity
  (zero tolerated exceptions);
* the four forced-vertex implications hold in every linearly convex graph
  (two opposite corner neighbors force the side neighbor between them);
* the constructive solver finds a full-coverage cycle on every 2-connected
  linearly convex subset, growing by exactly one vertex per step;
* the independent backtracking oracle agrees in both directions on every
  subset of at most ``oracle_limit`` cells (``--oracle-limit``).  Each counts
  as checked, but a 2-connected one left unsolved is not searched: there no
  answer, cycle or none, could be a mismatch.

The pass runs on masks: every predicate comes from the
:mod:`supergrid.bitboard` kernel, and only the strict instances become
``SupergridGraph`` objects, handed to the solver's seed-and-extend core
without re-running its ``Point`` precheck.  Connectivity and 2-connectivity
come from the box's subset table, one byte per subset with two flags,
filled by one serial ascending walk,
:meth:`~supergrid.bitboard.Box.fill_two_connected`, and linear convexity
from the box's generated ascending list of linearly convex masks, as in
``enumerate``.  A chunk's checks of linearly convex masks (forced vertices,
and on the 2-connected ones local connectivity and the solve) run on its
slice of that list; only the oracle's work loops over every mask.
The checks run over fixed-size chunks of masks on every usable CPU.  A
``concurrent.futures`` pool of forked workers starts before the walk and
shares the table as an anonymous shared mapping; each worker takes the next
chunk from a shared counter and checks it once this process's walk has
passed it, and after the walk this process takes chunks too, until none is
left.  Each process adds up its chunks' reports, and the sums are added up
with every violation list kept ascending, so the report is the same for any
worker count.  An exception in the walk or in any check stops every process
at its next chunk, and a worker that exits without reporting, as one killed
for memory would, is a ``SupergridError``.  The ``Point`` predicates of
:mod:`supergrid.classify` stay the general-input API and the reference the
kernel is tested against.  The oracle searches the same masks with adjacency
from the kernel's neighbour table and reads none of the sweep's predicates;
it shares no code with the solver, so its agreement remains independent
evidence.

The pass also aggregates how often each extension rule fired, which is the
committed rule-frequency artifact; any fallback firing is flagged for audit
but is not itself a violation.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable

from . import bitboard
from .bitboard import mask_to_graph

# The sweep itself uses none of the Point predicates, the enumerator, the
# Point oracle or the solver's precheck (it calls the seed-and-extend core);
# perfbench/layers.py wraps these names on this module, hence the imports.
from .classify import is_linear_convex, is_locally_connected, is_two_connected  # noqa: F401
from .enumeration import EXHAUSTIVE_CELL_CAP, box_masks, enumerate_graphs  # noqa: F401
from .errors import SupergridError
from .grid import FORCED_VERTEX_PATTERNS, Point, SupergridGraph
from .hamiltonian import (  # noqa: F401
    ExtensionRule,
    ExtensionTrace,
    _seed_and_extend,
    brute_force_hamiltonian,
    brute_force_hamiltonian_mask,
    find_hamiltonian_cycle,
)


def forced_vertex_violations(g: SupergridGraph) -> list[tuple[Point, Point]]:
    """Pairs (vertex, missing forced neighbor) violating the closure property."""
    verts = g.vertices
    return [(v, missing) for v in g.sorted_vertices()
            for (ax, ay), (bx, by), (cx, cy) in FORCED_VERTEX_PATTERNS
            if Point(v.x + ax, v.y + ay) in verts and Point(v.x + bx, v.y + by) in verts
            and (missing := Point(v.x + cx, v.y + cy)) not in verts]


@dataclass
class SuiteReport:
    """Aggregated counters and violations from one box sweep."""

    width: int
    height: int
    total_subsets: int = 0
    linear_convex: int = 0
    two_connected: int = 0
    strict_instances: int = 0
    local_connectivity_violations: list[int] = field(default_factory=list)
    forced_vertex_violations: list[int] = field(default_factory=list)
    solve_failures: list[int] = field(default_factory=list)
    growth_violations: list[int] = field(default_factory=list)
    oracle_mismatches: list[int] = field(default_factory=list)
    oracle_checked: int = 0
    rule_counts: dict[str, int] = field(default_factory=lambda: ExtensionTrace().rule_counts())

    def add(self, part: SuiteReport) -> None:
        """Add the counts of ``part``, a sweep of other masks, and merge its violations.

        Every violation list stays ascending, so the sum of the reports of a
        box's chunks is the same in any order.
        """
        for f in fields(self)[2:]:  # all but width and height
            mine, theirs = getattr(self, f.name), getattr(part, f.name)
            if isinstance(mine, dict):
                for name, count in theirs.items():
                    mine[name] += count
            elif isinstance(mine, list):
                setattr(self, f.name, sorted(mine + theirs))
            else:
                setattr(self, f.name, mine + theirs)

    @property
    def fallback_fired(self) -> int:
        return self.rule_counts[ExtensionRule.FALLBACK_SEARCH.value]

    def total_violations(self) -> int:
        return (
            len(self.local_connectivity_violations)
            + len(self.forced_vertex_violations)
            + len(self.solve_failures)
            + len(self.growth_violations)
            + len(self.oracle_mismatches)
        )

    def summary_lines(self) -> list[str]:
        return [
            f"box {self.width}x{self.height}: {self.total_subsets} subsets",
            f"linear_convex: {self.linear_convex}",
            f"two_connected: {self.two_connected}",
            f"strict instances (two_connected & linear_convex): {self.strict_instances}",
            f"local-connectivity violations: {len(self.local_connectivity_violations)}",
            f"forced-vertex violations: {len(self.forced_vertex_violations)}",
            f"hamiltonian solve failures: {len(self.solve_failures)}",
            f"step-growth violations: {len(self.growth_violations)}",
            f"oracle mismatches ({self.oracle_checked} graphs checked): "
            f"{len(self.oracle_mismatches)}",
            "rule counts: "
            + ", ".join(f"{name}={count}" for name, count in sorted(self.rule_counts.items())),
            f"fallback fired: {self.fallback_fired}"
            + (" (flagged for audit)" if self.fallback_fired else ""),
            f"violations: {self.total_violations()}",
        ]


def solve_with_growth_check(g: SupergridGraph) -> tuple[bool, bool, dict[str, int]]:
    """Run the strict solver on a graph known to be 2-connected and linearly convex.

    The caller has checked both predicates, so the solver's own precheck is
    skipped.  Returns (found full cycle, every step grew by exactly one, rule
    counts).
    """
    result = _seed_and_extend(g)
    if result.status != "cycle":
        return False, True, ExtensionTrace().rule_counts()
    lengths = result.trace.records[::3].tolist()  # cycle_length_before of every step
    return True, lengths == list(range(3, len(g))), result.trace.rule_counts()


def _tally_solve(report: SuiteReport, mask: int, g: SupergridGraph) -> bool:
    """Count strict instance ``g`` of ``mask`` in ``report`` and solve it; True iff solved."""
    report.strict_instances += 1
    solved, monotone, counts = solve_with_growth_check(g)
    if not solved:
        report.solve_failures.append(mask)
    if not monotone:
        report.growth_violations.append(mask)
    for name, count in counts.items():
        report.rule_counts[name] += count
    return solved


# Masks per chunk: what a process draws, and how far the walk goes between
# two reports of its progress.  A box of at most 11 cells is one chunk and
# runs in this process: on a box that small a second worker costs more to
# start and hand its task than it saves (figures in CHANGES.md).
CHUNK_MASKS = 1 << 11


def _mask_chunks(size: int) -> list[range]:
    """The masks ``range(size)`` in consecutive chunks of ``CHUNK_MASKS``."""
    return [range(start, min(start + CHUNK_MASKS, size)) for start in range(0, size, CHUNK_MASKS)]


def _worker_count() -> int:
    """Usable CPUs of this process, or 1 where it cannot fork safely.

    The fork start method needs ``os.fork``, and a fork while other threads
    run may copy a lock that one of them holds.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return os.cpu_count() or 1


_STOPPED = -1  # the walk count once any process has raised: every process stops at its next draw


def _take(sweep: Callable[[range], SuiteReport], chunks: list[range], counter,
          walked) -> SuiteReport:
    """The sum of ``sweep(chunks[i])`` over each next index i drawn from the shared ``counter``.

    Chunk i is swept once ``walked``, the shared count of chunks whose table
    bytes are filled, has passed i; ``walked`` at ``_STOPPED`` stops this at
    its next draw, and an exception here sets it there.
    """
    total = sweep(range(0))  # no masks: an empty report
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(chunks):
                return total
            while (done := walked.value) <= i:  # read under its lock
                if done == _STOPPED:
                    return total
                # Polled: a Condition's notify waits for every sleeper to
                # wake, so one dead sleeper would hang the walk.
                time.sleep(0.001)
            total.add(sweep(chunks[i]))
    except BaseException:
        walked.value = _STOPPED
        raise


def _walk(box: bitboard.Box, table, chunks: list[range], walked) -> None:
    """Fill ``table`` chunk by chunk, and after each publish in ``walked`` how many are filled."""
    try:
        for n, chunk in enumerate(chunks, 1):
            box.fill_two_connected(table, chunk)
            with walked.get_lock():  # so the chunk's bytes are visible before the count
                if walked.value == _STOPPED:
                    return
                walked.value = n
    except BaseException:
        walked.value = _STOPPED
        raise


_inherited: tuple = ()  # a forked worker's (sweep, chunks, counter, walked)


def _inherit(*shared) -> None:
    """A forked worker's initializer: keep what the fork copied, never pickled."""
    global _inherited
    _inherited = shared


def _take_inherited() -> SuiteReport:
    """A forked worker's task: :func:`_take` on what :func:`_inherit` kept."""
    return _take(*_inherited)


def _sweep_masks(box: bitboard.Box, table: bytearray, oracle_limit: int,
                 masks: range) -> SuiteReport:
    """Every check of :func:`run_box_suite` on ``masks``, in a report of their own.

    The linearly convex masks are the chunk's slice of the box's list; the
    loop over every mask is the oracle's.
    """
    report = SuiteReport(width=box.width, height=box.height)
    convex = box.linear_convex_masks
    lo = bisect.bisect_left(convex, masks.start)
    hi = bisect.bisect_left(convex, masks.stop, lo)
    report.linear_convex = hi - lo
    report.two_connected = table[masks.start:masks.stop].count(3)
    solved = {}  # strict mask -> solved
    for mask in convex[lo:hi]:
        if box.forced_vertex_violations(mask):
            report.forced_vertex_violations.append(mask)
        if table[mask] == 3:
            if not box.is_locally_connected(mask):
                report.local_connectivity_violations.append(mask)
            solved[mask] = _tally_solve(report, mask, mask_to_graph(mask, box.width))
    neighbours, oracle_checked = box.neighbours, 0
    for mask in masks:
        if mask.bit_count() <= oracle_limit:
            oracle_checked += 1
            tc, found = table[mask] >> 1, solved.get(mask, False)
            if tc and not found:  # no oracle answer can be a mismatch here
                continue
            # box_masks caps a box at EXHAUSTIVE_CELL_CAP cells, past the oracle's default bound.
            oracle_cycle = brute_force_hamiltonian_mask(neighbours, mask, EXHAUSTIVE_CELL_CAP)
            if (oracle_cycle is not None and not tc) or (oracle_cycle is None and found):
                report.oracle_mismatches.append(mask)
    report.oracle_checked = oracle_checked
    return report


def run_box_suite(width: int, height: int, oracle_limit: int = 12) -> SuiteReport:
    """Sweep of every subset of the width x height box, on every usable CPU.

    Violations are recorded by subset mask (see :mod:`supergrid.bitboard`).
    2-connectivity is read from the box's subset table, one byte per subset
    (2**(width*height) bytes, 32 MB at the 25-cell cap), held for the sweep.
    With one usable CPU, or a box of one chunk of ``CHUNK_MASKS`` masks, this
    process fills the table and then checks every chunk.  Otherwise a
    ``ProcessPoolExecutor`` of forked workers, up to one per usable CPU in
    all, starts first, and the table is an anonymous shared mapping that this
    process fills chunk by chunk, publishing after each chunk how many are
    filled; a process that draws a chunk checks it once the walk has passed
    it, and this process draws chunks too once its walk is done.  The report
    is the same for any worker count.  An exception in the walk or in any
    check stops every process at its next chunk and is raised here once the
    pool has joined them; a worker that exits without reporting is a
    ``SupergridError``.  A worker killed while it holds the counter's or the
    walk count's lock, a window of a few instructions, would leave the other
    processes waiting on that lock for good.  No forked worker outlives the
    call.  ``oracle_checked`` counts every subset within ``oracle_limit``;
    the oracle searches all of them but the 2-connected ones left unsolved.
    """
    # box_masks is the cap check, which comes before any table is built.
    report = SuiteReport(width=width, height=height, total_subsets=len(box_masks(width, height)))
    box = bitboard.box(width, height)
    chunks = _mask_chunks(box.full + 1)
    workers = min(_worker_count(), len(chunks))
    if workers == 1:
        sweep = functools.partial(_sweep_masks, box, box.two_connected_sweep(), oracle_limit)
        for chunk in chunks:
            report.add(sweep(chunk))
        return report
    import mmap  # only where workers start
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    counter, walked = context.Value("q", 0), context.Value("q", 0)
    table = mmap.mmap(-1, box.full + 1)  # shared with the workers, zero-filled
    box.linear_convex_masks  # generated once, here, so the forked workers inherit it
    sweep = functools.partial(_sweep_masks, box, table, oracle_limit)
    shared = (sweep, chunks, counter, walked)
    try:
        with ProcessPoolExecutor(workers - 1, context, _inherit, shared) as pool:
            forked = [pool.submit(_take_inherited) for _ in range(workers - 1)]
            _walk(box, table, chunks, walked)
            report.add(_take(*shared))
            for future in forked:
                report.add(future.result())
    except BrokenProcessPool as exc:
        raise SupergridError("a verify worker exited before it reported its chunks") from exc
    return report
