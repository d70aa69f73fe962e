"""The exhaustive suite runner itself: counters, witnesses, and teeth."""

from __future__ import annotations

import json
import os
import re

import pytest

import supergrid.hamiltonian
from supergrid import (
    Cycle,
    ExtensionRule,
    ExtensionStep,
    ExtensionTrace,
    HamiltonianResult,
    StuckWitness,
    from_points,
    is_linear_convex,
    is_two_connected,
)
from supergrid import bitboard, verification
from supergrid.cli import run_cli
from supergrid.verification import (
    forced_vertex_violations,
    mask_to_graph,
    run_box_suite,
    solve_with_growth_check,
)

from conftest import P, block, pts

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_mask_to_graph_row_major():
    g = mask_to_graph(0b0001_0011, 4)
    assert g.vertices == frozenset(pts((0, 0), (1, 0), (0, 1)))
    assert len(mask_to_graph(0, 4)) == 0


def test_forced_vertex_checker_flags_missing_side_vertex():
    # Upper-left and upper-right neighbors present, upper one missing: the
    # closure property fails (the graph is indeed not linearly convex).
    g = from_points(pts((0, 0), (2, 0), (1, 1)))
    violations = forced_vertex_violations(g)
    assert (P(1, 1), P(1, 0)) in violations


def test_forced_vertex_checker_clean_on_block():
    g = from_points(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert forced_vertex_violations(g) == []


def test_box_suite_3x3_counts_and_cleanliness():
    report = run_box_suite(3, 3, oracle_limit=9)
    assert report.total_subsets == 512
    assert report.linear_convex == 218
    assert report.two_connected == 144
    assert report.strict_instances == 112
    assert report.total_violations() == 0
    assert report.fallback_fired == 0
    assert report.oracle_checked == 512
    assert "violations: 0" in report.summary_lines()[-1]


def test_box_suite_tests_no_mask_for_linear_convexity(monkeypatch, capsys):
    # Linear convexity comes from the box's generated list, in this process
    # or in forked workers, whichever the usable CPUs give.
    def no_test(self, mask):
        raise AssertionError("verify tested a mask for linear convexity")

    monkeypatch.setattr(bitboard.Box, "is_linear_convex", no_test)
    assert run_cli(["verify", "--box", "4x4"]) == 0
    with open(os.path.join(GOLDEN, "verify_4x4.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_box_suite_has_teeth(monkeypatch):
    # A verification suite is only evidence if it can fail.  Cripple the
    # rewiring rules and the fallback net; the sweep must then report stuck
    # solves instead of staying green.
    monkeypatch.setattr(supergrid.hamiltonian, "_claim_rewire", lambda *a, **k: None)
    monkeypatch.setattr(supergrid.hamiltonian, "_fallback_search", lambda *a, **k: None)
    report = run_box_suite(3, 3, oracle_limit=0)
    assert report.solve_failures
    assert report.total_violations() > 0


def test_oracle_agreement_has_teeth_and_searches_only_where_it_can_disagree(monkeypatch):
    # Expected masks from the Point predicates; every strict 3x3 mask is solved.
    graphs = [(mask, mask_to_graph(mask, 3)) for mask in range(512)]
    strict = [m for m, g in graphs if is_two_connected(g) and is_linear_convex(g)]
    not_two_connected = [m for m, g in graphs if not is_two_connected(g)]
    assert (len(strict), len(not_two_connected)) == (112, 368)
    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", lambda *a: None)
    assert run_box_suite(3, 3, oracle_limit=9).oracle_mismatches == strict
    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", lambda *a: [0, 1, 2])
    assert run_box_suite(3, 3, oracle_limit=9).oracle_mismatches == not_two_connected
    # A 2-connected mask left unsolved (here: not linearly convex) cannot
    # disagree whatever the oracle says, so only those 32 go unsearched.  The
    # 3x3 box is one chunk, so it runs in this process, where ``searched`` is.
    assert verification._mask_chunks(1 << 9) == [range(1 << 9)]
    searched = []
    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask",
                        lambda neighbours, mask, bound: searched.append(mask))
    report = run_box_suite(3, 3, oracle_limit=9)
    assert searched == sorted(strict + not_two_connected) and len(searched) == 512 - 32
    assert report.oracle_checked == 512


def _fake_solve(g, *args):
    """A stuck solve on triangles; on larger graphs, a cycle whose one step skips a length."""
    if len(g) == 3:
        return HamiltonianResult(status="extension_failed", witness=StuckWitness(g, None, None))
    verts = g.sorted_vertices()
    step = ExtensionStep(len(g), verts[-1], ExtensionRule.DIRECT_INSERT, verts[0])
    cycle = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    return HamiltonianResult(status="cycle", cycle=cycle, trace=ExtensionTrace((step,)))


def test_box_suite_reports_growth_violations_and_solve_failures(monkeypatch, capsys):
    monkeypatch.setattr(verification, "_seed_and_extend", _fake_solve)
    report = run_box_suite(2, 2, oracle_limit=0)
    assert report.growth_violations == [0b1111]
    assert report.solve_failures == [0b0111, 0b1011, 0b1101, 0b1110]
    assert report.rule_counts["DIRECT_INSERT"] == 1
    assert run_cli(["verify", "--box", "2x2"]) == 4
    assert "violations: 5" in capsys.readouterr().out


def test_growth_check_wants_one_step_per_length_from_3(monkeypatch):
    g = block(2, 2)
    found = _fake_solve(g)
    step = found.trace.steps[0]
    for lengths, monotone in (((3,), True), ((4,), False), ((), False), ((3, 4), False)):
        steps = tuple(ExtensionStep(n, step.attached_vertex, step.rule, step.anchor_u1)
                      for n in lengths)
        result = HamiltonianResult(status="cycle", cycle=found.cycle, trace=ExtensionTrace(steps))
        monkeypatch.setattr(verification, "_seed_and_extend", lambda g, *args: result)
        assert solve_with_growth_check(g) == (True, monotone, result.trace.rule_counts())


# 5x5, 4x6 and 3x8 are whole 25-cell-cap sweeps, too slow for this suite; CI
# reruns them against these goldens' digests.
@pytest.mark.parametrize("box", ["4x4", "5x5", "4x6", "3x8"])
def test_rule_frequency_file_agrees_with_verify_golden(box):
    with open(os.path.join(GOLDEN, f"verify_{box}.txt"), encoding="utf-8") as fh:
        summary = fh.read()
    with open(os.path.join(GOLDEN, f"rule_frequencies_{box}.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    counts = re.search(r"^rule counts: (.*)$", summary, re.M).group(1)
    strict = re.search(r"^strict instances \(two_connected & linear_convex\): (\d+)$",
                       summary, re.M).group(1)
    expected = {name: int(n) for name, n in (pair.split("=") for pair in counts.split(", "))}
    assert table == {**expected, "strict_instances": int(strict)}
    assert table["FALLBACK_SEARCH"] == 0 and "violations: 0" in summary
