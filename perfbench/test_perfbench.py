#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Non-perturbation: for every workload, the canonical digest of the final
observation stores must be identical whether the replay schedules no
bench-owned events (bare), only the t=0 marker and recover brackets
(timed), or every bracket plus the per-virtual-hour hook (traced). Equal
digests prove the instrumentation does not change the study it measures.
"""

import importlib.util
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class NonPerturbation(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.catalog = run.load_workloads()["workloads"]

    def test_digest_identical_with_and_without_instrumentation(self):
        for name, spec in self.catalog.items():
            with self.subTest(workload=name):
                seed = spec["default_seed"]
                digests = {}
                for mode in ("bare", "timed", "traced"):
                    r = run.run_replay(self.binary, run.replay_args(
                        name, spec, seed, mode, digest=True))
                    self.assertTrue(r["ok"], f"{name} {mode}: invariants")
                    self.assertGreater(r["values"]["stored"], 0)
                    digests[mode] = r["digest"]
                self.assertEqual(digests["bare"], digests["timed"])
                self.assertEqual(digests["bare"], digests["traced"])


class Aggregation(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 0.5), 500)
        self.assertEqual(run.percentile(values, 0.99), 990)
        self.assertEqual(run.percentile([3.0], 0.9), 3.0)

    def test_mean_of_medians_skips_replays_without_samples(self):
        replays = [{"ms": [1.0, 2.0, 9.0]}, {"ms": [4.0]}, {"ms": []}]
        self.assertEqual(run.mean_of_medians(replays, "ms"), 3.0)

    def test_units_match_metric_names(self):
        self.assertEqual(run.unit_of("crowd.position_ns"), "ns")
        self.assertEqual(run.unit_of("core.ingest_ns_per_obs"), "ns")
        self.assertEqual(run.unit_of("docstore.count_us"), "us")
        self.assertEqual(run.unit_of("broker.share"), "ratio")
        self.assertEqual(run.unit_of("broker.published"), "count")


if __name__ == "__main__":
    unittest.main()
