"""Self-tests of the benchmark itself.

Usage: python3 perfbench/selftest.py

Checks that the correctness gate goes red on corrupted output, that session
batches and digests follow the seed, that layer self times plus
``untraced_s`` add up to the traced wall time, that the exact counters
repeat from run to run, that the tracer wraps every binding of a target and
restores it, that each timing is scaled by the calibrations around it, that
the metrics printed match BENCHMARK.json, and that metrics.json maps every
per-layer metric to the end-to-end metrics it should move.
"""

import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import session_worker
from tracer import Tracer

EXACT_COUNTERS = ("calls", "cache", "emit_bytes", "table_terms", "table_bits")


class GateTest(unittest.TestCase):
    def test_gate_accepts_recorded_and_rejects_mutated_stdout(self):
        expected = run.load_expected()
        code, out, _, _, _ = run.spawn([sys.executable, str(run.HERE / "cli_job.py"), str(run.SRC),
                                        "--", "check", "--n-max", "12", "--format", "plain"])
        self.assertIsNone(run.cli_gate("suite", "plain", code, out, expected))
        mutated = out.replace(b"PASS  annihilator-congruence", b"FAIL  annihilator-congruence")
        self.assertIn("PASS", run.cli_gate("suite", "plain", code, mutated, expected))
        mutated = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
        self.assertIn("digest", run.cli_gate("suite", "plain", code, mutated, expected))
        self.assertIn("exit code", run.cli_gate("suite", "plain", 2, out, expected))

    def test_error_rate_turns_nonzero_on_a_corrupted_program(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(run.SRC / "unival", src / "unival",
                            ignore=shutil.ignore_patterns("__pycache__"))
            emit = src / "unival" / "emit.py"
            text = emit.read_text()
            self.assertIn("'yes' if flag else 'NO'", text)
            emit.write_text(text.replace("'yes' if flag else 'NO'", "'NO' if flag else 'yes'"))
            result = run.run_workload("scan", 0, 0.0, False, src)
        jobs = result["jobs"]
        self.assertEqual(len(jobs), 1)
        self.assertIn("digest", jobs[0]["error"])


class SessionTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_inputs(self):
        self.assertEqual(session_worker.make_inputs(3), session_worker.make_inputs(3))
        self.assertNotEqual(session_worker.make_inputs(3), session_worker.make_inputs(4))
        recorded = run.load_expected()["session"]
        digests = []
        for _ in range(2):  # two fresh processes
            worker = run.SessionWorker(run.SRC)
            try:
                digests.append([worker.job(3, False)["digest"], worker.job(4, False)["digest"]])
            finally:
                worker.close()
        self.assertEqual(digests[0], digests[1])
        self.assertEqual(digests[0], [recorded["3"], recorded["4"]])
        self.assertNotEqual(digests[0][0], digests[0][1])


class TraceTest(unittest.TestCase):
    def traced_cli_run(self):
        result = run.run_workload("suite", 1, 0.0, True)
        self.assertEqual([j["traced"] for j in result["jobs"]], [False, True])
        self.assertTrue(all(j["error"] is None for j in result["jobs"]))
        return result

    def test_self_times_and_untraced_sum_to_traced_wall(self):
        result = self.traced_cli_run()
        metrics = run.per_layer(result)
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertTrue(math.isclose(layers + metrics["untraced_s"], metrics["trace.wall_s"],
                                     abs_tol=1e-9))
        # The derived self times must add up to the root spans' inclusive time.
        report = next(j["trace"] for j in result["jobs"] if j["traced"])
        roots = sum(s for _, parent, _, s in report["aggregate"] if parent is None)
        self.assertTrue(math.isclose(sum(report["self_s"].values()), roots, abs_tol=1e-9))
        self.assertGreater(metrics["suite.self_s"], 0)
        self.assertEqual(metrics["cli.calls"], 1)

    def test_exact_counters_repeat(self):
        first, second = (next(j["trace"] for j in self.traced_cli_run()["jobs"] if j["traced"])
                         for _ in range(2))
        self.assertEqual({k: first[k] for k in EXACT_COUNTERS},
                         {k: second[k] for k in EXACT_COUNTERS})
        self.assertGreater(first["table_terms"], 0)
        self.assertGreater(first["emit_bytes"], 0)
        worker = run.SessionWorker(run.SRC)
        try:
            a, b = (worker.job(5, True)["trace"] for _ in range(2))
        finally:
            worker.close()
        self.assertEqual({k: a[k] for k in EXACT_COUNTERS}, {k: b[k] for k in EXACT_COUNTERS})
        self.assertEqual(a["calls"]["algebra.construct"], 0)

    def test_tracer_wraps_every_binding_and_restores_it(self):
        sys.path.insert(0, str(run.SRC))
        import unival
        import unival.duality
        import unival.kinematics
        import unival.suite

        original = unival.duality.kinematic_matrix
        tracer = Tracer().install()
        try:
            for module in (unival, unival.duality, unival.kinematics, unival.suite):
                self.assertIsNot(module.kinematic_matrix, original)
            unival.kinematic_unit(3)
        finally:
            tracer.uninstall()
        for module in (unival, unival.duality, unival.kinematics, unival.suite):
            self.assertIs(module.kinematic_matrix, original)
        report = tracer.report()
        self.assertEqual(report["calls"]["duality.kinematic_matrix"], 7)


class CalibrationTest(unittest.TestCase):
    def test_each_sample_is_scaled_by_the_calibrations_around_it(self):
        ref = run.CALIBRATION_REF_S
        timeline = [("calibration", ref), ("setup", 0.1), ("job", 1.0),
                    ("calibration", 2 * ref), ("setup", 0.2), ("job", 3.0), ("calibration", 2 * ref)]
        for kind, want in (("job", [1.0 / 1.5, 1.5]), ("setup", [0.1 / 1.5, 0.1])):
            for got, expected in zip(run.at_reference_speed(timeline, kind), want, strict=True):
                self.assertAlmostEqual(got, expected, places=12)
        self.assertEqual(run.samples(timeline, "job"), [1.0, 3.0])


class ContractTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        mapped = [name for entry in json.loads((run.HERE / "metrics.json").read_text())["moves"]
                  for name in entry["layer"]]
        self.assertEqual(sorted(mapped), sorted(run.per_layer_units()))


if __name__ == "__main__":
    unittest.main()
