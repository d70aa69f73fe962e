"""``supergrid enumerate`` pinned byte for byte: stdout and the CSV row.

The goldens cover every predicate tally and every rule column, once over
the whole 3x3 box (where most subsets fail some predicate), once over the
strict 4x4 instances (whose rule columns are the 4x4 rule table), and twice
with ``--dedup``, the only path that yields canonical forms instead of the
box subsets themselves; on the 4x3 box some of those forms are rotated out
of the box (the predicates are judged on each class's first subset, the
solve on the canonical form).  ``--require connected`` pins the one filter
read from the subset table's connectivity flag alone, and ``--require
locally_connected`` the one filter read from the kernel's local connectivity.
The 4x3 ``--require linear_convex,locally_connected --min 4 --dedup`` golden
is the one that combines two kernel checks, ``--min`` and ``--dedup``.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from supergrid import bitboard, cli, enumeration
from supergrid.cli import run_cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name, argv", [
    ("enumerate_3x3", ["--box", "3x3"]),
    ("enumerate_4x4_strict", ["--box", "4x4", "--require", "two_connected,linear_convex"]),
    ("enumerate_3x3_min3_dedup", ["--box", "3x3", "--min", "3", "--dedup"]),
    ("enumerate_4x3_min5_dedup", ["--box", "4x3", "--min", "5", "--dedup"]),
    ("enumerate_4x4_connected", ["--box", "4x4", "--require", "connected"]),
    ("enumerate_4x4_locally_connected", ["--box", "4x4", "--require", "locally_connected"]),
    ("enumerate_4x3_lc_local_min4_dedup", ["--box", "4x3", "--require",
                                           "linear_convex,locally_connected", "--min", "4", "--dedup"]),
])
def test_cli_enumerate_matches_golden(tmp_path, capsys, name, argv):
    out_csv = tmp_path / "summary.csv"
    code = run_cli(["enumerate", *argv, "--csv", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, name + ".csv"), "rb") as fh:
        assert out_csv.read_bytes() == fh.read()


def test_cli_enumerate_decodes_only_the_strict_subsets(monkeypatch, capsys):
    """Connectivity comes from the subset table, and only the 1,773 strict masks become graphs."""
    decoded = []

    def counting(mask, width):
        decoded.append(mask)
        return original(mask, width)

    def no_flood(self, mask):
        raise AssertionError("enumerate flooded a subset")

    original = bitboard.mask_to_graph
    for module in (bitboard, enumeration, cli):
        if hasattr(module, "mask_to_graph"):
            monkeypatch.setattr(module, "mask_to_graph", counting)
    monkeypatch.setattr(bitboard.Box, "is_connected", no_flood)
    monkeypatch.setattr(bitboard.Box, "is_two_connected", no_flood)
    assert run_cli(["enumerate", "--box", "4x4"]) == 0
    out = capsys.readouterr().out
    assert len(decoded) == 1773
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4d8116e4dabc29aba2add85c5e0020db3feeba04708da7641d07b5194147bfe2")


def test_cli_enumerate_tests_no_mask_for_linear_convexity(monkeypatch, tmp_path, capsys):
    """Linear convexity comes from the box's generated list, with or without the filter."""
    def no_test(self, mask):
        raise AssertionError("enumerate tested a mask for linear convexity")

    monkeypatch.setattr(bitboard.Box, "is_linear_convex", no_test)
    for name, argv in [("enumerate_3x3", ["--box", "3x3"]),
                       ("enumerate_4x3_lc_local_min4_dedup", ["--box", "4x3", "--require",
                        "linear_convex,locally_connected", "--min", "4", "--dedup"])]:
        assert run_cli(["enumerate", *argv]) == 0
        with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
