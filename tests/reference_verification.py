"""The box sweep's chunk checks as they were, kept verbatim as a reference.

``verification._sweep_masks`` asked ``Box.is_linear_convex`` of every mask
of its chunk, one loop running every check.  The library reads linear
convexity from the box's generated ``linear_convex_masks`` instead, checks
the chunk's slice of that list, and loops over every mask only for the
oracle; the tests check that both give the same report for every chunk.
"""

from __future__ import annotations

from supergrid import bitboard
from supergrid.bitboard import mask_to_graph
from supergrid.enumeration import EXHAUSTIVE_CELL_CAP
from supergrid.hamiltonian import brute_force_hamiltonian_mask
from supergrid.verification import SuiteReport, _tally_solve


def sweep_masks(box: bitboard.Box, table: bytearray, oracle_limit: int,
                masks: range) -> SuiteReport:
    """Every check of ``run_box_suite`` on ``masks``, in a report of their own."""
    report = SuiteReport(width=box.width, height=box.height)
    is_linear_convex, neighbours, width = box.is_linear_convex, box.neighbours, box.width
    linear_convex = two_connected = oracle_checked = 0  # per-mask counts, stored at the end
    for mask in masks:
        tc = table[mask] >> 1
        lc = is_linear_convex(mask)
        if lc:
            linear_convex += 1
            if box.forced_vertex_violations(mask):
                report.forced_vertex_violations.append(mask)
        two_connected += tc
        solved = False
        if lc and tc:
            if not box.is_locally_connected(mask):
                report.local_connectivity_violations.append(mask)
            solved = _tally_solve(report, mask, mask_to_graph(mask, width))
        if mask.bit_count() <= oracle_limit:
            oracle_checked += 1
            if tc and not solved:  # no oracle answer can be a mismatch here
                continue
            oracle_cycle = brute_force_hamiltonian_mask(neighbours, mask, EXHAUSTIVE_CELL_CAP)
            if (oracle_cycle is not None and not tc) or (oracle_cycle is None and solved):
                report.oracle_mismatches.append(mask)
    report.linear_convex, report.two_connected = linear_convex, two_connected
    report.oracle_checked = oracle_checked
    return report
