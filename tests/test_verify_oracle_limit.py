"""``run_box_suite`` hands the oracle every mask its ``oracle_limit`` admits.

The oracle's own default bound is 24 vertices, but a box sweep may reach
the 25-cell cap, so a sweep asked to check graphs up to 25 vertices must
not fail on the full 5x5 box.
"""

from __future__ import annotations

from supergrid import bitboard, verification


def test_oracle_limit_covers_the_full_25_cell_box(monkeypatch):
    # The subset table and the sweep are cut to the full box alone; the real
    # ones would walk all 2**25 subsets.
    full = bitboard.box(5, 5).full

    class FullBoxTable:
        """The full box's table byte, 2-connected, by index or as a one-mask slice."""

        def __getitem__(self, key):
            assert key in (full, slice(full, full + 1)), key
            return 3 if key == full else b"\x03"

    monkeypatch.setattr(bitboard.Box, "two_connected_sweep", lambda self: FullBoxTable())
    monkeypatch.setattr(verification, "_mask_chunks", lambda size: [range(full, full + 1)])
    report = verification.run_box_suite(5, 5, oracle_limit=25)
    assert report.total_subsets == 1 << 25
    assert report.strict_instances == 1
    assert report.oracle_checked == 1
    assert report.total_violations() == 0
