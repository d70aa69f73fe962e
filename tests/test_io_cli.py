"""Lattice/cycle/SVG formats and the command-line surface."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from supergrid import (
    Cycle,
    CycleFormatError,
    InvalidCharacter,
    classify,
    export_svg,
    find_hamiltonian_cycle,
    from_points,
    validate_cycle,
)
from supergrid.bitboard import mask_to_graph
from supergrid.cli import _build_parser, run_cli
from supergrid.lattice_io import (
    parse_cycle,
    parse_lattice,
    render_lattice,
    report_to_json,
    trace_to_jsonl,
    write_cycle,
)

from conftest import block, pts

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m supergrid`` in a child process, with output captured."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "supergrid", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


# ---------------------------------------------------------------- lattice --


def test_parse_lattice_block():
    assert parse_lattice("##\n##") == block(2, 2)


def test_parse_lattice_gap_row():
    g = parse_lattice("#.#")
    assert g.vertices == frozenset(pts((0, 0), (2, 0)))
    assert not classify(g).linear_convex


def test_parse_lattice_invalid_character():
    with pytest.raises(InvalidCharacter) as err:
        parse_lattice("#a#")
    assert (err.value.line, err.value.column) == (0, 1)


def test_parse_lattice_rows_break_only_at_newlines():
    assert parse_lattice("##\r\n##\r##\n") == block(2, 3)
    # str.splitlines would also break rows at these and read "##\f##" as a
    # 2x2 block; each is an invalid character at its own line and column.
    for sep in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        with pytest.raises(InvalidCharacter) as err:
            parse_lattice(f"#\r\n##{sep}##")
        assert (err.value.line, err.value.column) == (1, 2), repr(sep)


def test_parse_lattice_comments_and_ragged_rows():
    g = parse_lattice("; header\n##\n#\n; middle\n.#\n")
    assert g.vertices == frozenset(pts((0, 0), (1, 0), (0, 1), (1, 2)))


def test_parse_lattice_empty_document():
    assert len(parse_lattice("")) == 0
    assert len(parse_lattice("; only a comment\n")) == 0


def test_render_parse_round_trip_on_canonical_documents():
    docs = ["##\n##\n", "#.#\n###\n", "###\n#.#\n###\n"]
    for doc in docs:
        assert render_lattice(parse_lattice(doc)) == doc


def test_render_translates_to_origin():
    g = block(2, 2, dx=5, dy=-3)
    assert render_lattice(g) == "##\n##\n"
    assert parse_lattice(render_lattice(g)) == g.translate(-5, 3)


# ----------------------------------------------------------------- cycles --


def test_write_cycle_format():
    c = Cycle(pts((0, 0), (1, 0), (1, 1)))
    assert write_cycle(c) == "0,0\n1,0\n1,1\n"


def test_cycle_round_trip_random():
    rng = random.Random(2)
    count = 0
    while count < 100:
        width, height = rng.randint(2, 4), rng.randint(2, 4)
        g = block(width, height, dx=rng.randint(-9, 9), dy=rng.randint(-9, 9))
        r = find_hamiltonian_cycle(g, strict=True)
        assert r.found
        assert parse_cycle(write_cycle(r.cycle)) == r.cycle
        count += 1


def test_parse_cycle_rows_break_only_at_newlines():
    assert parse_cycle("0,0\r\n1,0\r1,1\n") == Cycle(pts((0, 0), (1, 0), (1, 1)))
    # str.splitlines would also break at these and read a 3-cycle.
    for sep in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        with pytest.raises(CycleFormatError):
            parse_cycle(f"0,0{sep}1,0{sep}1,1")


def test_parse_cycle_rejects_garbage():
    with pytest.raises(CycleFormatError):
        parse_cycle("0,0\nnope\n")
    with pytest.raises(CycleFormatError):
        parse_cycle("0,0\n1,0\n")  # too short to close
    with pytest.raises(CycleFormatError):
        parse_cycle("0,0\n3,0\n1,1\n")  # gap edge


# -------------------------------------------------------------------- svg --


def test_export_svg_polygon_points_for_square():
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    svg = export_svg(c, 10)
    assert 'points="0,0 10,0 10,10 0,10"' in svg


def test_export_svg_bounds_for_3x3_tour(block3):
    r = find_hamiltonian_cycle(block3, strict=True)
    svg = export_svg(r.cycle, 7)
    for token in svg.split('points="')[1].split('"')[0].split():
        x, y = map(int, token.split(","))
        assert 0 <= x <= 14 and 0 <= y <= 14
    assert svg.count("<circle") == 9


def test_export_svg_unit_cell():
    c = Cycle(pts((0, 0), (1, 0), (1, 1), (0, 1)))
    svg = export_svg(c, 1)
    assert 'points="0,0 1,0 1,1 0,1"' in svg


def test_export_svg_deterministic(block2):
    r = find_hamiltonian_cycle(block2, strict=True)
    assert export_svg(r.cycle, 10) == export_svg(r.cycle, 10)


# ------------------------------------------------------------------- json --


def test_report_json_field_names(block2):
    data = json.loads(report_to_json(classify(block2)))
    assert list(data) == [
        "vertex_count", "connected", "two_connected",
        "linear_convex", "locally_connected", "violation_witness",
    ]
    assert data["violation_witness"] is None


def test_report_json_witness_payload():
    data = json.loads(report_to_json(classify(from_points(pts((0, 0), (2, 0), (1, 1))))))
    w = data["violation_witness"]
    assert w["predicate"] == "linear_convex"
    assert w["missing"] == [1, 0]
    assert w["line"] == {"direction": "horizontal", "index": 0}


def test_trace_jsonl_one_step_per_line(block3):
    r = find_hamiltonian_cycle(block3, strict=True)
    lines = trace_to_jsonl(r.trace).splitlines()
    assert len(lines) == len(r.trace.steps) == 6
    first = json.loads(lines[0])
    assert first["cycle_length_before"] == 3
    assert first["rule"] in {"DIRECT_INSERT", "CLAIM1_REWIRE", "CLAIM2_REWIRE",
                             "FALLBACK_SEARCH"}
    assert isinstance(first["attached_vertex"], list)


def test_trace_jsonl_bytes_at_scale():
    # Digest of the 4,093 strict steps on a 64x64 block, captured from the
    # serializer the encoder hook replaced.
    data = trace_to_jsonl(find_hamiltonian_cycle(block(64, 64)).trace).encode()
    assert len(data) == 573_407
    assert hashlib.sha256(data).hexdigest() == (
        "6cd61473a24c4912d22dd2f3d6c192466b7bdcc09658acb58d89b9415b4b581c")


# -------------------------------------------------------------------- cli --


def test_cli_classify(capsys):
    code = run_cli(["classify", fixture("gap.txt")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["linear_convex"] is False
    assert out["violation_witness"]["missing"] == [1, 0]


def test_cli_hamcycle_strict(capsys):
    code = run_cli(["hamcycle", fixture("block2x2.txt"), "--strict"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 4


def test_cli_hamcycle_rejects_gap(capsys):
    code = run_cli(["hamcycle", fixture("gap.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "two_connected" in err


def test_cli_hamcycle_trace_file(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code = run_cli(["hamcycle", fixture("block3x3.txt"), "--trace", str(out_path)])
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6
    json.loads(lines[0])


# JSON bytes captured before the serializer was derived from the result
# dataclasses; the key checks above would pass a reordered or renamed field.
def _golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name, lattice", [
    ("gap", None),         # linear-convexity witness with a line
    ("path1x3", "###\n"),  # local-connectivity witness, "line": null
    ("block3x3", None),    # "violation_witness": null
])
def test_cli_classify_json_golden(tmp_path, capsys, name, lattice):
    path = fixture(f"{name}.txt")
    if lattice is not None:
        path = tmp_path / f"{name}.txt"
        path.write_text(lattice)
    assert run_cli(["classify", str(path)]) == 0
    assert capsys.readouterr().out.encode() == _golden_bytes(f"classify_{name}.json")


@pytest.mark.parametrize("mask", [
    12022,  # CLAIM2_REWIRE with a pivot_y
    20159,  # CLAIM1_REWIRE with a pivot_z, then FALLBACK_SEARCH
])
def test_cli_permissive_trace_jsonl_golden(tmp_path, capsys, mask):
    lattice, out = tmp_path / "graph.txt", tmp_path / "trace.jsonl"
    lattice.write_text(render_lattice(mask_to_graph(mask, 4)))
    assert run_cli(["hamcycle", str(lattice), "--permissive", "--trace", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == _golden_bytes(f"hamcycle_permissive_4x4_{mask}.jsonl")


def test_cli_permissive_extension_failure_exits_3_with_witness(tmp_path, capsys):
    # 4x4 mask 31615 is 2-connected but not linearly convex; the permissive
    # solve gets stuck at (3,2) after a CLAIM1_REWIRE step.
    lattice, out = tmp_path / "graph.txt", tmp_path / "trace.jsonl"
    lattice.write_text("####\n###.\n##.#\n###.\n")
    assert run_cli(["hamcycle", str(lattice), "--permissive", "--trace", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == _golden_bytes("hamcycle_permissive_4x4_31615.stderr")
    assert out.read_bytes() == _golden_bytes("hamcycle_permissive_4x4_31615.jsonl")


def test_cli_permissive_triangle_free_exits_3_with_empty_trace(tmp_path, capsys):
    # 4x4 mask 19026 is a 6-cycle: Hamiltonian, but no triangle to seed from.
    lattice, out = tmp_path / "graph.txt", tmp_path / "trace.jsonl"
    lattice.write_text(".#..\n#.#.\n.#.#\n..#.\n")
    assert run_cli(["hamcycle", str(lattice), "--permissive", "--trace", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == _golden_bytes("hamcycle_permissive_4x4_19026.stderr")
    assert out.read_bytes() == b""


def test_cli_hamcycle_output_revalidates(capsys):
    code = run_cli(["hamcycle", fixture("block3x3.txt")])
    out = capsys.readouterr().out
    assert code == 0
    cycle = parse_cycle(out)
    graph = parse_lattice(open(fixture("block3x3.txt")).read())
    assert validate_cycle(graph, cycle)


def test_cli_oracle(capsys):
    assert run_cli(["oracle", fixture("block2x2.txt")]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4


def test_cli_oracle_none(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("###\n")
    assert run_cli(["oracle", str(path)]) == 2
    assert capsys.readouterr().out.strip() == "none"


def test_cli_enumerate_csv(tmp_path, capsys):
    out_csv = tmp_path / "summary.csv"
    code = run_cli([
        "enumerate", "--box", "2x2", "--min", "3",
        "--require", "two_connected,linear_convex", "--csv", str(out_csv),
    ])
    capsys.readouterr()
    assert code == 0
    header, row = out_csv.read_text().strip().splitlines()
    assert header.split(",") == [
        "box", "total", "connected", "two_connected", "linear_convex",
        "locally_connected", "hamiltonian_found", "rule_direct_insert",
        "rule_claim1_rewire", "rule_claim2_rewire", "rule_fallback_search",
    ]
    values = dict(zip(header.split(","), row.split(",")))
    assert values["box"] == "2x2"
    assert values["total"] == "5"
    assert values["hamiltonian_found"] == "5"
    assert values["rule_fallback_search"] == "0"


def test_cli_enumerate_reports_a_bad_csv_path_before_the_sweep(tmp_path, capsys):
    try:
        open(tmp_path, "w")
    except OSError as exc:
        expected = f"error: {exc}\n"
    start = time.perf_counter()
    code = run_cli(["enumerate", "--box", "5x4", "--csv", str(tmp_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", expected)
    assert elapsed < 1.0, f"{elapsed:.2f} s: the 2**20-subset sweep ran before the CSV was opened"


def test_cli_enumerate_rejects_unknown_predicate(capsys):
    assert run_cli(["enumerate", "--box", "2x2", "--require", "sparkly"]) == 1
    assert "sparkly" in capsys.readouterr().err


def test_cli_trace_svg(tmp_path, capsys):
    out_svg = tmp_path / "trace.svg"
    code = run_cli(["trace", fixture("block2x2.txt"), "--svg", str(out_svg), "--cell", "10"])
    capsys.readouterr()
    assert code == 0
    golden = open(os.path.join(GOLDEN, "block2x2_trace.svg")).read()
    assert out_svg.read_text() == golden


def test_cli_parser_reuse_keeps_no_state(tmp_path, capsys, monkeypatch):
    # run_cli builds its parser once per process; no option value, default or
    # error may carry over from one call to the next.
    monkeypatch.setenv("COLUMNS", "80")  # the same help width here and in the child
    assert _build_parser() is _build_parser()
    block2x2 = fixture("block2x2.txt")
    first, second, third = (str(tmp_path / f"{n}.svg") for n in ("a", "b", "c"))
    assert run_cli(["trace", block2x2, "--svg", first, "--cell", "5"]) == 0
    assert run_cli(["verify"]) == 1
    assert "usage: supergrid verify" in capsys.readouterr().err
    assert run_cli(["trace", block2x2, "--svg", second, "--cell", "10"]) == 0
    with open(os.path.join(GOLDEN, "block2x2_trace.svg"), encoding="utf-8") as fh:
        assert open(second, encoding="utf-8").read() == fh.read()
    assert run_cli(["trace", block2x2, "--svg", third]) == 0
    fresh = str(tmp_path / "fresh.svg")
    assert run_cli_process("trace", block2x2, "--svg", fresh).returncode == 0
    assert open(third, "rb").read() == open(fresh, "rb").read()

    diamond = tmp_path / "diamond.txt"
    diamond.write_text("..#..\n.#.#.\n#.#.#\n.#.#.\n..#..\n")
    capsys.readouterr()
    assert run_cli(["hamcycle", str(diamond), "--permissive"]) == 3
    capsys.readouterr()
    assert run_cli(["hamcycle", str(diamond)]) == 2
    assert "linear_convex fails" in capsys.readouterr().err

    assert run_cli(["--help"]) == 0
    assert capsys.readouterr().out == run_cli_process("--help").stdout


# 1x1, 1x2 and 2x1 hold only the empty and one- or two-cell subsets.
@pytest.mark.parametrize("box", ["3x3", "1x1", "1x2", "2x1"])
def test_cli_verify_small_box(box, capsys):
    code = run_cli(["verify", "--box", box])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out
    with open(os.path.join(GOLDEN, f"verify_{box}.txt"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_cli_missing_file(capsys):
    assert run_cli(["classify", "no-such-file.txt"]) == 1
    assert "no-such-file.txt" in capsys.readouterr().err


def test_cli_invalid_character_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("#a#\n")
    assert run_cli(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 0" in err and "column 1" in err


def test_cli_usage_error_exit_code(capsys):
    assert run_cli(["hamcycle"]) == 1  # missing file argument
    capsys.readouterr()
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_cli_non_utf8_file_is_an_error_not_a_traceback(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"#\xff#\n")
    proc = run_cli_process("classify", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_trace_nonpositive_cell_is_an_error_not_a_traceback(tmp_path):
    out_svg = tmp_path / "o.svg"
    proc = run_cli_process("trace", fixture("block2x2.txt"), "--svg", str(out_svg), "--cell", "0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "--cell" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_svg.exists()


def test_cli_trace_cell_above_coordinate_limit_is_an_error_not_a_traceback(tmp_path):
    # A 4,300-digit cell size parses, but the SVG coordinates it scales to
    # would exceed Python's integer-to-string digit limit.
    out_svg, cell = tmp_path / "o.svg", "9" + "0" * 4299
    proc = run_cli_process("trace", fixture("block2x2.txt"), "--svg", str(out_svg), "--cell", cell)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "--cell" in proc.stderr
    assert cell not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_svg.exists()


def test_cli_oracle_bound_above_supported_depth_is_an_error_not_a_traceback():
    # The graph is tiny: the bound is rejected before any search starts.
    proc = run_cli_process("oracle", fixture("block3x3.txt"), "--bound", "2000")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "2000" in proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------------------ exit-code contract --

FILE_COMMANDS = (
    ("classify",),
    ("hamcycle",),
    ("oracle",),
    ("trace", "--svg", "{tmp}/out.svg"),
)
BAD_FILES = ("{tmp}/missing.txt", "{tmp}", "{tmp}/empty.txt", "{tmp}/latin1.txt", "{tmp}/bad.txt")

CONTRACT_CASES = [
    (name, path, *options) for name, *options in FILE_COMMANDS for path in BAD_FILES
] + [
    (cmd, "--box", box) for cmd in ("enumerate", "verify")
    for box in ("4", "axb", "0x3", "2x-1", "6x6")
] + [
    ("oracle", "{good}", "--bound", bound) for bound in ("x", "-1", "2000")
] + [
    ("trace", "{good}", "--svg", "{tmp}/out.svg", "--cell", cell)
    for cell in ("0", "-3", "x", "9" + "0" * 4299)
] + [
    ("enumerate", "--box", "2x2", "--min", "x"),
    ("verify", "--box", "2x2", "--oracle-limit", "x"),
    ("enumerate", "--box", "2x2", "--require", "bogus"),
    ("enumerate", "--box", "2x2", "--require", "connected,,bogus"),
] + [
    (*argv, out) for out in ("{tmp}/no-such-dir/out", "{tmp}")
    for argv in (("hamcycle", "{good}", "--trace"), ("trace", "{good}", "--svg"),
                 ("enumerate", "--box", "2x2", "--csv"))
]


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_cli_box_cap_checked_before_tables(capsys, command):
    # The cap is checked before any table of the box is built: building the
    # 1000x1000 kernel alone takes seconds.
    start = time.perf_counter()
    assert run_cli([command, "--box", "1000x1000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds 25 cells" in capsys.readouterr().err


@pytest.mark.parametrize("argv", CONTRACT_CASES, ids=" ".join)
def test_cli_exit_code_contract_on_bad_input(tmp_path, argv):
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "latin1.txt").write_bytes(b"#\xff#\n")
    (tmp_path / "bad.txt").write_text("#a#\n")
    proc = run_cli_process(*(a.format(tmp=tmp_path, good=fixture("block2x2.txt")) for a in argv))
    assert 0 <= proc.returncode <= 4, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == 1:
        assert proc.stderr.strip(), argv
