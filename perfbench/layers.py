"""Which supergrid functions the traced run wraps, and the per-layer metrics.

A layer is a module of ``supergrid``.  Each public function is wrapped under
the name its caller looks it up by, so a predicate called by the verifier,
by the solver's precheck and through ``enumeration.PREDICATES`` is counted
in all three places.  ``grid`` is not wrapped: its cost lands in the self
time of whichever layer calls it.
"""

from __future__ import annotations

from types import SimpleNamespace

from tracer import Tracer
from workloads import RULES

PREDICATES = ("linear_convex", "two_connected", "locally_connected", "connected")


def _count_accepted(name: str):
    key = name + ".accepted"

    def on_result(out, tracer: Tracer) -> None:
        tracer.counters[key] += bool(out)

    return on_result


def _count_solve(result, tracer: Tracer) -> None:
    c = tracer.counters
    c["hamiltonian.found"] += result.found
    c["hamiltonian.stuck"] += result.status == "extension_failed"
    if result.found:
        for rule, n in result.trace.rule_counts().items():
            c["hamiltonian.rule." + rule] += n


def _count_oracle(cycle, tracer: Tracer) -> None:
    tracer.counters["hamiltonian.oracle_found"] += cycle is not None


def _count_svg_bytes(svg: str, tracer: Tracer) -> None:
    tracer.counters["lattice_io.svg_bytes"] += len(svg.encode("utf-8"))


def instrument(tracer: Tracer, lib: SimpleNamespace) -> None:
    """Wrap every traced boundary; undo with ``tracer.restore()``."""
    cli, ver, ham, enum = lib.cli, lib.verification, lib.hamiltonian, lib.enumeration
    tracer.wrap(cli, "run_cli", "cli.run_cli", "cli")
    tracer.wrap(cli, "parse_lattice", "lattice_io.parse", "lattice_io")
    tracer.wrap(cli, "export_svg", "lattice_io.export_svg", "lattice_io",
                on_result=_count_svg_bytes)
    tracer.wrap(cli, "run_box_suite", "verification.run_box_suite", "verification")
    tracer.wrap(ver, "forced_vertex_violations", "verification.forced_vertex", "verification")
    for owner in (cli, ver):
        tracer.wrap(owner, "enumerate_graphs", "enumeration.enumerate", "enumeration",
                    generator=True)
        tracer.wrap(owner, "brute_force_hamiltonian", "hamiltonian.oracle", "hamiltonian",
                    on_result=_count_oracle)
    tracer.wrap(enum, "random_graph", "enumeration.random_graph", "enumeration")
    tracer.wrap(enum, "linear_convex_closure", "enumeration.closure", "enumeration")
    for owner in (ham, ver, cli):
        tracer.wrap(owner, "find_hamiltonian_cycle", "hamiltonian.solve", "hamiltonian",
                    on_result=_count_solve)
    tracer.wrap(ham, "extend_cycle", "hamiltonian.extend", "hamiltonian")
    tracer.wrap(ham, "validate_cycle", "cycles.validate", "cycles")
    for pred in ("linear_convex", "two_connected"):
        name = "classify." + pred
        tracer.wrap(ham, "is_" + pred, name, "classify", on_result=_count_accepted(name),
                    also=("hamiltonian.precheck_s",))
    for pred in ("linear_convex", "two_connected", "locally_connected"):
        name = "classify." + pred
        tracer.wrap(ver, "is_" + pred, name, "classify", on_result=_count_accepted(name))
    for pred in PREDICATES:
        name = "classify." + pred
        tracer.wrap(enum.PREDICATES, pred, name, "classify", on_result=_count_accepted(name))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(t: Tracer, traced_wall: float, untraced_wall: float,
                      overhead_share: float) -> dict:
    """Every per-layer metric as name -> (value, unit).

    The walls are raw seconds, which the layers' self times add up to;
    ``overhead_share`` is taken from reference seconds, so that a change in
    host speed between the two passes does not show as tracing cost.
    """
    c = t.counters
    m: dict[str, tuple[float, str]] = {}
    for pred in ("linear_convex", "two_connected", "locally_connected"):
        name = "classify." + pred
        m[name + "_s"] = (t.total(name), "s")
        m[name + "_calls"] = (t.calls(name), "count")
        if pred != "locally_connected":
            m[name + "_accept_ratio"] = (_ratio(c[name + ".accepted"], t.calls(name)), "ratio")
    solves = t.calls("hamiltonian.solve")
    steps = t.calls("hamiltonian.extend")
    oracle_calls = t.calls("hamiltonian.oracle")
    m.update({
        "hamiltonian.solve_s": (t.total("hamiltonian.solve"), "s"),
        "hamiltonian.solves": (solves, "count"),
        "hamiltonian.found_ratio": (_ratio(c["hamiltonian.found"], solves), "ratio"),
        "hamiltonian.precheck_s": (c["hamiltonian.precheck_s"], "s"),
        "hamiltonian.extend_s": (t.total("hamiltonian.extend"), "s"),
        "hamiltonian.steps": (steps, "count"),
        "hamiltonian.step_us": (_ratio(t.total("hamiltonian.extend"), steps) * 1e6, "us"),
        "hamiltonian.stuck": (c["hamiltonian.stuck"], "count"),
        "hamiltonian.oracle_s": (t.total("hamiltonian.oracle"), "s"),
        "hamiltonian.oracle_calls": (oracle_calls, "count"),
        "hamiltonian.oracle_found_ratio": (_ratio(c["hamiltonian.oracle_found"], oracle_calls),
                                           "ratio"),
    })
    for rule in RULES:
        m["hamiltonian.rule." + rule] = (c["hamiltonian.rule." + rule], "count")
    m.update({
        "cycles.validate_s": (t.total("cycles.validate"), "s"),
        "cycles.validate_calls": (t.calls("cycles.validate"), "count"),
        "enumeration.enumerate_s": (t.total("enumeration.enumerate"), "s"),
        "enumeration.graphs_yielded": (c["enumeration.enumerate.yielded"], "count"),
        "enumeration.random_graph_s": (t.total("enumeration.random_graph"), "s"),
        "enumeration.random_graph_calls": (t.calls("enumeration.random_graph"), "count"),
        "enumeration.closure_s": (t.total("enumeration.closure"), "s"),
        "enumeration.closure_calls": (t.calls("enumeration.closure"), "count"),
        "lattice_io.parse_s": (t.total("lattice_io.parse"), "s"),
        "lattice_io.export_svg_s": (t.total("lattice_io.export_svg"), "s"),
        "lattice_io.svg_bytes": (c["lattice_io.svg_bytes"], "bytes"),
        "verification.forced_vertex_s": (t.total("verification.forced_vertex"), "s"),
    })
    for layer in ("cli", "lattice_io", "verification", "enumeration", "classify",
                  "hamiltonian", "cycles"):
        m[layer + ".self_s"] = (t.layer_self_s[layer], "s")
    m.update({
        "bench.self_s": (traced_wall - t.top_level_s, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
        "trace.accounted_share": (_ratio(t.top_level_s, traced_wall), "ratio"),
    })
    return m
