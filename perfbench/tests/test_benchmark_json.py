"""BENCHMARK.json and run.py must name the same workloads and metrics.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

PROBES = ("bitvector.", "subarray.", "kernels.", "engine.empty_task_ns")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))

    def test_end_to_end_names_match(self):
        declared = {m["name"] for m in self.spec["end_to_end"]}
        emitted = run.end_to_end_metrics([1.0], [1.0], [1.0], 1.0, [1.0], {})
        self.assertEqual(set(emitted), declared)

    def test_per_layer_names_match(self):
        declared = {m["name"] for m in self.spec["per_layer"]}
        micro = {name: 1.0 for name in declared if name.startswith(PROBES)}
        snap = {"stages": {s: {"commands": 1, "time_ns": 1.0,
                               "energy_pj": 1.0} for s in run.STAGES},
                "kinds": {}, "latency_count": 0, "latency_sum": 0.0}
        unit = {"wall_s": 1.0, "snapshot": snap}
        agg = {"spans": {}, "rpc": {}, "worker_tasks": 0, "inline_tasks": 0}
        emitted = run.layer_metrics(micro, unit, unit, agg)
        emitted.update({f"service.{p}_ms": 0.0 for p in run.SERVICE_PHASES})
        self.assertEqual(set(emitted), declared)


if __name__ == "__main__":
    unittest.main()
