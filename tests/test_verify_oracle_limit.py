"""``run_box_suite`` hands the oracle every mask its ``oracle_limit`` admits.

The oracle's own default bound is 24 vertices, but a box sweep may reach
the 25-cell cap, so a sweep asked to check graphs up to 25 vertices must
not fail on the full 5x5 box.
"""

from __future__ import annotations

from supergrid import bitboard, verification


def test_oracle_limit_covers_the_full_25_cell_box(monkeypatch):
    # The sweep is cut to one chunk, whose fill marks only the full box
    # 2-connected and whose checks see only the full box; the real ones would
    # walk all 2**25 subsets.
    full = bitboard.box(5, 5).full
    sweep = verification._sweep_masks

    def fill_full_box(box, table, masks):
        table[full] = 3

    def sweep_full_box(box, table, oracle_limit, masks):
        return sweep(box, table, oracle_limit, range(full, full + 1) if masks else masks)

    monkeypatch.setattr(verification, "_mask_chunks", lambda size: [range(1)])
    monkeypatch.setattr(bitboard.Box, "fill_two_connected", fill_full_box)
    monkeypatch.setattr(verification, "_sweep_masks", sweep_full_box)
    report = verification.run_box_suite(5, 5, oracle_limit=25)
    assert report.total_subsets == 1 << 25
    assert report.strict_instances == 1
    assert report.oracle_checked == 1
    assert report.total_violations() == 0
