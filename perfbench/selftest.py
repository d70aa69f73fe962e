"""Self-test of the benchmark harness on tiny inputs (a few seconds in all).

Shows that every metric named in BENCHMARK.json is emitted, in both modes,
that the output checks fire (a corrupted cycle, a corrupted SVG trace and a
wrong rule table each count as a failed operation), and that the host meter
scales by the probes near a call, takes probes inside a call out of its time,
and stops its timer.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from unittest import mock

import hostmeter
import run
from hostmeter import REF_PROBE_S, HostMeter
from workloads import (
    ProbePermissive,
    RandomBatch,
    SewingRegions,
    VerifyBox,
    cycle_error,
    svg_cycle_error,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

# Counts of today's solver on the tiny inputs, found by running it once.
VERIFY_3X3 = {"strict_instances": 112, "DIRECT_INSERT": 220, "CLAIM1_REWIRE": 24,
              "CLAIM2_REWIRE": 0, "FALLBACK_SEARCH": 0}
PROBE_3X3 = {"cycle": 128, "extension_failed": 16,
             "rules": {"DIRECT_INSERT": 274, "CLAIM1_REWIRE": 34, "CLAIM2_REWIRE": 0,
                       "FALLBACK_SEARCH": 0}}
RANDOM_5_SEEDS = {"DIRECT_INSERT": 36, "CLAIM1_REWIRE": 2, "CLAIM2_REWIRE": 0,
                  "FALLBACK_SEARCH": 0}


def measure(workload, trace=False, seed=0):
    """One set-up and one pass, with a probe every few milliseconds so that
    even tiny calls have probes inside them to take out."""
    with mock.patch.object(run, "SETUP_REPEATS", 1), \
            mock.patch.object(hostmeter, "INTERVAL_S", 0.005):
        return run.measure(workload, seed=seed, seconds=0, trace=trace)


class TinyWorkloads(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def workloads(self):
        return [
            VerifyBox(3, 3, expected=VERIFY_3X3),
            SewingRegions([("disc", 30)], Path(self.tmp.name)),
            ProbePermissive(3, 3, PROBE_3X3),
            RandomBatch(8, 8, 5, RANDOM_5_SEEDS),
        ]

    def test_every_end_to_end_metric_is_emitted_and_checks_pass(self):
        for workload in self.workloads():
            with self.subTest(workload=workload.name):
                result = measure(workload)
                self.assertEqual(result.errors, [])
                self.assertEqual(set(result.metrics), END_TO_END)
                self.assertTrue(all(v > 0 for v, _ in result.metrics.values()))
                self.assertEqual(set(result.notes["raw"]), END_TO_END - {"peak_rss_mb"})
                self.assertGreaterEqual(result.attempted, 1)

    def test_every_per_layer_metric_is_emitted(self):
        for workload in self.workloads():
            with self.subTest(workload=workload.name):
                result = measure(workload, trace=True)
                self.assertEqual(result.errors, [])
                self.assertEqual(set(result.metrics), PER_LAYER)
                accounted, _ = result.metrics["trace.accounted_share"]
                self.assertGreater(accounted, 0.9)

    def test_traced_counts_match_the_untraced_checks(self):
        metrics = measure(ProbePermissive(3, 3, PROBE_3X3), trace=True).metrics
        self.assertEqual(metrics["hamiltonian.solves"][0], 144)
        self.assertEqual(metrics["hamiltonian.stuck"][0], 16)
        for rule, n in PROBE_3X3["rules"].items():
            self.assertEqual(metrics["hamiltonian.rule." + rule][0], n)

    def test_tracing_restores_every_original(self):
        lib = run.load_library()
        before = (lib.hamiltonian.extend_cycle, dict(lib.enumeration.PREDICATES))
        run.measure(ProbePermissive(3, 3, PROBE_3X3), 0, 0, True, loader=lambda: lib)
        self.assertEqual((lib.hamiltonian.extend_cycle, lib.enumeration.PREDICATES), before)


class ChecksFire(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = run.load_library()
        cls.g = cls.lib.lattice_io.parse_lattice("###\n###\n###\n")
        cls.result = cls.lib.hamiltonian.find_hamiltonian_cycle(cls.g)

    def corrupted(self):
        verts = list(self.result.cycle.verts)
        verts[0], verts[4] = verts[4], verts[0]
        return verts

    def test_cycle_checker_rejects_corrupted_and_partial_cycles(self):
        verts = list(self.result.cycle.verts)
        self.assertIsNone(cycle_error(self.lib, self.g, verts))
        self.assertIsNotNone(cycle_error(self.lib, self.g, self.corrupted()))
        self.assertIsNotNone(cycle_error(self.lib, self.g, verts[:-1]))

    def test_corrupted_cycle_counts_as_failed(self):
        corrupted = SimpleNamespace(status="cycle", found=True, trace=self.result.trace,
                                    cycle=SimpleNamespace(verts=tuple(self.corrupted())))

        class Corrupting(ProbePermissive):
            def call(self, lib, g):
                return corrupted

        result = measure(Corrupting(3, 3, None))
        self.assertEqual(result.failed, result.attempted)
        self.assertFalse(result.to_json()["correct"])

    def test_wrong_rule_table_counts_as_failed(self):
        wrong = dict(VERIFY_3X3, DIRECT_INSERT=VERIFY_3X3["DIRECT_INSERT"] + 1)
        result = measure(VerifyBox(3, 3, expected=wrong))
        self.assertEqual(result.failed, 1)
        self.assertIn("rule counts", result.errors[0])
        wrong = dict(PROBE_3X3, rules=dict(PROBE_3X3["rules"], CLAIM1_REWIRE=0))
        self.assertFalse(measure(ProbePermissive(3, 3, wrong)).to_json()["correct"])

    def test_svg_checker_rejects_a_dropped_stitch(self):
        svg = self.lib.lattice_io.export_svg(self.result.cycle, 20)
        self.assertIsNone(svg_cycle_error(self.lib, self.g, ET.fromstring(svg)))
        first = f"{self.result.cycle.verts[0].x * 20},{self.result.cycle.verts[0].y * 20} "
        broken = svg.replace('points="' + first, 'points="', 1)
        self.assertIsNotNone(svg_cycle_error(self.lib, self.g, ET.fromstring(broken)))


class HostMeterScaling(unittest.TestCase):
    def test_scale_is_reference_over_mean_probe_near_the_span(self):
        meter = HostMeter()
        meter.samples = [REF_PROBE_S, 3 * REF_PROBE_S, 5 * REF_PROBE_S]
        meter.stamps = [0.0, 0.5, 5.0]
        with mock.patch.object(hostmeter, "WINDOW_S", 1.0):
            self.assertAlmostEqual(meter.scale(0.0, 0.2), 0.5)
            self.assertAlmostEqual(meter.scale(2.5, 2.6), 0.25)  # none near: the neighbours
            self.assertAlmostEqual(meter.scale(10.0, 11.0), 0.2)

    def test_timer_probes_inside_a_call_and_stops(self):
        lib = run.load_library()
        g = lib.lattice_io.parse_lattice("#####\n#####\n#####\n#####\n")
        meter = HostMeter()
        previous = signal.getsignal(signal.SIGALRM)
        with mock.patch.object(hostmeter, "INTERVAL_S", 0.001), meter.timer():
            start = perf_counter()
            while perf_counter() - start < 0.2:
                lib.hamiltonian.find_hamiltonian_cycle(g)
            end = perf_counter()
        inside = [d for d, t in zip(meter.samples, meter.stamps) if start < t <= end]
        self.assertGreater(len(inside), 5)
        self.assertEqual(meter.count_inside(start, end), len(inside))
        self.assertAlmostEqual(meter.inside(start, end), sum(inside))
        self.assertLess(meter.inside(start, end), end - start)
        self.assertAlmostEqual(meter.clock() + sum(meter.samples), perf_counter(), delta=1e-3)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        count = len(meter.samples)
        sleep_until = perf_counter() + 0.05
        while perf_counter() < sleep_until:
            pass
        self.assertEqual(len(meter.samples), count)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "verify-4x4",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
