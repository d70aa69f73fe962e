"""supergrid benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root; it needs only the standard library and the
sources under ``src/``::

    python3 perfbench/run.py --workload verify-4x4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process
    python3 perfbench/selftest.py            # the harness's own tests, on tiny inputs

Load model: one caller in one thread, each call made after the previous one
returns (a closed loop).  A run sets up ``SETUP_REPEATS`` times, or fewer
once the set-ups so far took ``SETUP_BUDGET_S`` (a set-up that long already
spans many host-speed probes), and reports the median as ``setup_s``.  It
then runs whole passes over its inputs; it starts another pass only while
that pass should end within ``--seconds``, and always runs at least one.
``wall_s`` is the median pass time, counting the library calls only, not the
output checks.

Every time in the end-to-end metrics is in reference seconds: the time
measured, scaled by the host-speed probe taken around it (see hostmeter.py),
because the CPUs are shared and raw times mostly measure the neighbours.
The raw times are printed beside them and in the diagnostics line.

With ``--trace 1`` it sets up once, runs one pass untraced and one with every
public boundary wrapped (see layers.py), and reports per-layer metrics in raw
seconds, with probe time taken out of every span, instead; only
``trace.overhead_share`` compares reference times.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check is
named on standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

from hostmeter import HostMeter
from layers import instrument, per_layer_metrics
from tracer import Tracer
from workloads import ProbePermissive, RandomBatch, SewingRegions, VerifyBox, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-4x4", "sewing-regions", "probe-permissive-4x4", "random-8x8")
MODULES = ("classify", "cli", "cycles", "enumeration", "grid", "hamiltonian",
           "lattice_io", "verification")
SETUP_REPEATS = 11
SETUP_BUDGET_S = 3.0
MAX_ERRORS_SHOWN = 20


class LibraryMissing(RuntimeError):
    pass


def load_library(src: Path = SRC) -> SimpleNamespace:
    """Import supergrid afresh from ``src`` and return its modules by short name."""
    if not (src / "supergrid" / "__init__.py").is_file():
        raise LibraryMissing(f"no supergrid package under {src}")
    for name in [n for n in sys.modules if n == "supergrid" or n.startswith("supergrid.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("supergrid")
    if Path(package.__file__).resolve().parent != (src / "supergrid").resolve():
        raise LibraryMissing(f"imported supergrid from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module("supergrid." + m) for m in MODULES})


def git_sha(root: Path = ROOT) -> str:
    """HEAD's commit from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, min(len(sorted_values) - 1, ceil(q * len(sorted_values)) - 1))]


def build_workload(name: str, workdir: Path) -> Workload:
    catalog = json.loads((BENCH_DIR / "catalog.json").read_text(encoding="utf-8"))
    spec = catalog["workloads"][name]
    if name == "verify-4x4":
        golden = (ROOT / spec["expected_from"]).read_text(encoding="utf-8")
        return VerifyBox(4, 4, json.loads(golden))
    if name == "sewing-regions":
        return SewingRegions([tuple(slot) for slot in spec["regions"]], workdir)
    if name == "probe-permissive-4x4":
        return ProbePermissive(4, 4, spec["expected"])
    return RandomBatch(8, 8, spec["count"], spec["expected_rules_seed_0"])


@dataclass
class Pass:
    spans: list[tuple[float, float]] = field(default_factory=list)  # start, end of each call
    raw: list[float] = field(default_factory=list)  # seconds per call, probes taken out
    errors: list[str] = field(default_factory=list)
    graphs: int = 0
    vertices: int = 0

    def ref(self, meter: HostMeter) -> list[float]:
        """Seconds per call in reference seconds."""
        return [t * meter.scale(start, end) for t, (start, end) in zip(self.raw, self.spans)]


def run_pass(workload: Workload, lib, items: list, meter: HostMeter) -> Pass:
    """One timed call per item; each output is checked outside the timing."""
    p = Pass()
    tally: dict = {}
    for item in items:
        start = perf_counter()
        try:
            out, error = workload.call(lib, item), None
        except Exception as exc:  # a call that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        p.spans.append((start, end))
        if error is None:
            try:
                error = workload.check(lib, item, out, tally)
            except Exception as exc:  # output too malformed for its check to read
                error = f"check raised {type(exc).__name__}: {exc}"
            graphs, vertices = workload.size(item, out)
            p.graphs += graphs
            p.vertices += vertices
        if error:
            p.errors.append(error)
    p.errors.extend(workload.finish(tally))
    p.raw = [end - start - meter.inside(start, end) for start, end in p.spans]
    return p


def set_up(workload: Workload, seed: int, meter: HostMeter, loader: Callable, repeats: int):
    """(lib, inputs, [(start, end, raw seconds)]) of up to ``repeats`` set-ups."""
    setups: list[tuple[float, float, float]] = []
    while len(setups) < repeats and sum(raw for _, _, raw in setups) < SETUP_BUDGET_S:
        items = None  # so peak_rss_mb never holds two copies of the inputs
        start = perf_counter()
        lib = loader()
        items = workload.setup(lib, seed)
        end = perf_counter()
        setups.append((start, end, end - start - meter.inside(start, end)))
    return lib, items, setups


def end_to_end(setups: list[float], passes: list[Pass], times: list[list[float]]) -> dict:
    """The end-to-end metrics from set-up times and per-call times (raw or reference)."""
    ordered = sorted(t for per_call in times for t in per_call)
    walls = [sum(per_call) for per_call in times]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "graphs_per_s": (sum(p.graphs for p in passes) / sum(walls), "1/s"),
        "vertices_per_s": (sum(p.vertices for p in passes) / sum(walls), "1/s"),
        "op_p50_ms": (percentile(ordered, 0.50) * 1e3, "ms"),
        "op_p99_ms": (percentile(ordered, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    errors: list[str]
    notes: dict

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)

    def to_json(self) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            loader: Callable = load_library) -> Result:
    """Set up, run timed passes, check every output; see the module docstring."""
    meter = HostMeter()
    with meter.timer():
        lib, items, setups = set_up(workload, seed, meter, loader, 1 if trace else SETUP_REPEATS)
        notes = {"host.calib_ms": meter.burst()}
        start = perf_counter()
        passes = [run_pass(workload, lib, items, meter)]
        if trace:
            tracer = Tracer(clock=meter.clock)
            instrument(tracer, lib)
            try:
                passes.append(run_pass(workload, lib, items, meter))
            finally:
                tracer.restore()
        else:
            while (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
                passes.append(run_pass(workload, lib, items, meter))
        notes["host.calib_after_ms"] = meter.burst()
    if trace:
        untraced, traced = (sum(p.ref(meter)) for p in passes)
        metrics = per_layer_metrics(tracer, sum(passes[1].raw), sum(passes[0].raw),
                                    traced / untraced - 1)
    else:
        metrics = end_to_end([raw * meter.scale(start, end) for start, end, raw in setups],
                             passes, [p.ref(meter) for p in passes])
        raw = end_to_end([raw for _, _, raw in setups], passes, [p.raw for p in passes])
        notes["raw"] = {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"}
    attempted = sum(len(p.raw) for p in passes)
    errors = [e for p in passes for e in p.errors]
    in_calls = sum(meter.count_inside(start, end) for p in passes for start, end in p.spans)
    notes.update(passes=len(passes), calls=attempted, setups=len(setups),
                 probes=len(meter.samples), probes_in_calls=in_calls,
                 failed_share=min(len(errors), attempted) / attempted)
    return Result(metrics, attempted, errors, notes)


def report(name: str, seed: int, result: Result) -> None:
    notes = dict(result.notes, workload=name, seed=seed, cpu_count=os.cpu_count(),
                 python=platform.python_version(), git_sha=git_sha())
    print("diagnostics " + json.dumps(notes, sort_keys=True))
    samples = {"op_p50_ms": notes["calls"], "op_p99_ms": notes["calls"],
               "setup_s": notes["setups"], "wall_s": notes["passes"]}
    raw = notes.get("raw", {})
    for key, (value, unit) in result.metrics.items():
        suffix = f"  (n={samples[key]})" if key in samples else ""
        if key in raw:
            suffix += f"  raw {raw[key]:.6g} {unit}"
        print(f"{name}  {key} = {value:.6g} {unit}{suffix}")
    print(f"{name}  failed_share = {notes['failed_share']:.6g} "
          f"({result.failed} of {result.attempted} calls)")
    for error in result.errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {name}: {error}", file=sys.stderr)
    if len(result.errors) > MAX_ERRORS_SHOWN:
        print(f"check failed: {name}: ... {len(result.errors) - MAX_ERRORS_SHOWN} more",
              file=sys.stderr)


def run_one(args) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            workload = build_workload(args.workload, Path(workdir))
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (LibraryMissing, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report(args.workload, args.seed, result)
    print(json.dumps(result.to_json()))
    return 0 if not result.errors else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
