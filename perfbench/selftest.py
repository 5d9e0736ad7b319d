#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py              # fast checks, no build
    python3 perfbench/selftest.py --workloads  # also build and run every
                                               # workload briefly

Checks that BENCHMARK.json is well formed and agrees with run.py, that the
result line has the required shape, that a deliberately wrong reference
value trips the correctness check, that non-Release and sanitizer builds
are refused, and (with --workloads) that each workload's output parses and
passes its correctness checks.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
WORKLOADS = "--workloads" in sys.argv


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_benchmark()

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json")), 65536)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for part in command:
            self.assertLessEqual(len(part), 200)
            self.assertFalse(part.startswith("/"))
            self.assertNotIn("..", part.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, path)))
        self.assertTrue(command[1].startswith(paths[0] + "/"))
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_harness(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertEqual([w["name"] for w in workloads], list(run.WORKLOADS))

    def test_metrics_match_harness(self):
        e2e = self.spec["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertEqual({m["name"]: m["unit"] for m in e2e}, run.END_TO_END)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))
        layers = self.spec["per_layer"]
        self.assertTrue(1 <= len(layers) <= 128)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual({m["name"]: m["unit"] for m in layers},
                         run.PER_LAYER)


def training_output(ba=57.5, sr=0.9, hashes=("00ff", "00ff")):
    return {"hashes": list(hashes), "operations_per_rep": 3,
            "wall_s": [1.0] * len(hashes),
            "models": {"AMS": {"ba": ba, "sr": sr},
                       "Ridge": {"ba": 60.0, "sr": 0.8},
                       "XGBoost": {"ba": 66.0, "sr": 0.97}}}


def reference_for(out):
    return {"train_fold": {"7": {"hash": out["hashes"][0],
                                 "models": out["models"]}}}


class CorrectnessTest(unittest.TestCase):
    def test_matching_reference_passes(self):
        out = training_output()
        attempted, failed, _ = run.check_training("train_fold", 7, out,
                                                  reference_for(out))
        self.assertEqual((attempted, failed), (6, 0))

    def test_wrong_reference_value_trips_the_check(self):
        out = training_output()
        reference = reference_for(out)
        reference["train_fold"]["7"]["models"] = dict(
            out["models"], AMS={"ba": 57.75, "sr": 0.9})
        _, failed, notes = run.check_training("train_fold", 7, out,
                                              reference)
        self.assertEqual(failed, 2)  # AMS, in both repetitions
        self.assertTrue(any("AMS" in n for n in notes))

    def test_wrong_reference_hash_fails_every_operation(self):
        out = training_output()
        reference = reference_for(out)
        reference["train_fold"]["7"]["hash"] = "beef"
        attempted, failed, _ = run.check_training("train_fold", 7, out,
                                                  reference)
        self.assertEqual(failed, attempted)

    def test_repetitions_must_agree(self):
        out = training_output(hashes=("00ff", "00fe"))
        _, failed, _ = run.check_training("train_fold", 8, out, {})
        self.assertEqual(failed, 3)

    def test_out_of_range_without_reference(self):
        out = training_output(ba=float("nan"))
        _, failed, _ = run.check_training("train_fold", 8, out, {})
        self.assertEqual(failed, 2)

    def test_serving_wrong_bits_count_as_failed(self):
        step = {"rate": 100, "sent": 10, "ok": 10, "ok_in_limit": 9,
                "error": 0, "transport": 1, "wrong": 2, "fell_behind": 0,
                "late_ms_p99": 0.1}
        attempted, failed, _ = run.serving_check({"steps": [step]})
        self.assertEqual((attempted, failed), (10, 3))

    def test_limit_comes_from_the_output(self):
        step = {"sent": 100, "ok_in_limit": 100, "p99_ms": 8.0,
                "backlog": 0}
        self.assertTrue(run.meets_limit(step, 10.0))
        self.assertFalse(run.meets_limit(step, 5.0))

    def test_committed_reference_is_well_formed(self):
        reference = run.load_reference()
        self.assertEqual(set(reference), set(run.TRAINING))
        for workload, seeds in reference.items():
            self.assertIn("42", seeds)
            for entry in seeds.values():
                self.assertRegex(entry["hash"], r"^[0-9a-f]{16}$")
                self.assertTrue(entry["models"])


def scrape(queue_buckets, queue_sum, shed=0):
    """A /metrics.json report with one serve/queue_ms histogram given as
    {upper bound or None: count}."""
    buckets = [{"le": le, "count": n} for le, n in queue_buckets.items()]
    count = sum(queue_buckets.values())
    return {"counters": {'serve/requests{outcome="shed"}': shed},
            "histograms": {"serve/queue_ms": {"count": count,
                                              "sum": queue_sum,
                                              "buckets": buckets}}}


class ServerHistogramTest(unittest.TestCase):
    def test_bounds_match_the_registry(self):
        self.assertEqual(len(run.MS_BOUNDS), 20)
        self.assertEqual(run.MS_BOUNDS[:3], [0.01, 0.02, 0.04])

    def test_step_figures_exclude_earlier_requests(self):
        # 100 slow requests before the step, 10 fast ones during it.
        before = scrape({10.24: 100}, 800.0, shed=5)
        after = scrape({10.24: 100, 1.28: 10}, 808.0, shed=7)
        step = run.server_step(before, after)
        self.assertGreater(step["queue_ms_p99"], 0.64)
        self.assertLessEqual(step["queue_ms_p99"], 1.28)
        self.assertEqual(step["shed"], 2)

    def test_percentile_interpolates_like_the_registry(self):
        counts = [0] * 21
        counts[7] = 4  # (0.64, 1.28]
        self.assertAlmostEqual(
            run.bucket_percentile(counts, run.MS_BOUNDS, 0.5), 0.96)
        counts[20] = 1  # overflow
        self.assertEqual(run.bucket_percentile(counts, run.MS_BOUNDS, 1.0),
                         run.MS_BOUNDS[-1])

    def test_unknown_bucket_bound_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.bucket_counts(scrape({1.5: 1}, 1.0), "serve/queue_ms",
                              run.MS_BOUNDS)


class TrainingMetricsTest(unittest.TestCase):
    def test_latencies_are_per_epoch(self):
        out = {"setup_s": [0.1, 0.4, 0.1], "wall_s": [6.0, 7.0, 9.0],
               "peak_rss_mb": 40.0, "epoch_samples": 510,
               "epoch_mean_ms": [38.0, 50.0, 40.0], "epoch_ms_tail": 55.0,
               "epoch_tail_q": 500 / 510}
        metrics = run.training_metrics(out)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["wall_s"], 7.0)
        self.assertEqual((metrics["p50_ms"], metrics["p99_ms"]),
                         (40.0, 55.0))
        self.assertIn("p98.04 of 510 epochs", run.epoch_note(out))


class BuildRefusalTest(unittest.TestCase):
    RELEASE = ("CMAKE_BUILD_TYPE:STRING=Release\n"
               "CMAKE_CXX_FLAGS:STRING=\n")

    def test_release_is_accepted(self):
        run.check_build_cache(self.RELEASE)

    def test_debug_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.check_build_cache("CMAKE_BUILD_TYPE:STRING=Debug\n")

    def test_empty_build_type_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.check_build_cache("CMAKE_BUILD_TYPE:STRING=\n")

    def test_sanitizer_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.check_build_cache(self.RELEASE.replace(
                "FLAGS:STRING=", "FLAGS:STRING=-fsanitize=address"))


class ResultLineTest(unittest.TestCase):
    def test_shape(self):
        line = run.result_line(run.END_TO_END, {"wall_s": 1.25}, 10, 1)
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertFalse(parsed["correct"])
        self.assertEqual(set(parsed["metrics"]), set(run.END_TO_END))
        self.assertEqual(parsed["metrics"]["wall_s"],
                         {"value": 1.25, "unit": "s"})


@unittest.skipUnless(WORKLOADS, "pass --workloads to run every workload")
class WorkloadTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "42", "--seconds", "2",
             "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(done.returncode, 0)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_workload_parses_and_is_correct(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.run_bench(workload, 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--workloads"])
