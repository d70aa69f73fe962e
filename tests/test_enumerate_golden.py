"""``supergrid enumerate`` pinned byte for byte: stdout and the CSV row.

The goldens cover every predicate tally and every rule column, once over
the whole 3x3 box (where most subsets fail some predicate), once over the
strict 4x4 instances (whose rule columns are the 4x4 rule table), and twice
with ``--dedup``, the only path that yields canonical forms instead of the
box subsets themselves; on the 4x3 box some of those forms are rotated out
of the box and are classified in the 4x4 one.
"""

from __future__ import annotations

import os

import pytest

from supergrid.cli import run_cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name, argv", [
    ("enumerate_3x3", ["--box", "3x3"]),
    ("enumerate_4x4_strict", ["--box", "4x4", "--require", "two_connected,linear_convex"]),
    ("enumerate_3x3_min3_dedup", ["--box", "3x3", "--min", "3", "--dedup"]),
    ("enumerate_4x3_min5_dedup", ["--box", "4x3", "--min", "5", "--dedup"]),
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
