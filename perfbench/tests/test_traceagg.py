"""Tests of the trace aggregator on a small hand-written trace.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import traceagg  # noqa: E402


def span(name, pid, tid, ts, dur):
    return {"name": name, "ph": "X", "pid": pid, "tid": tid, "ts": ts,
            "dur": dur}


def flow(ph, fid, pid, tid, ts):
    event = {"name": "rpc", "ph": ph, "cat": "rpc", "id": fid, "pid": pid,
             "tid": tid, "ts": ts}
    if ph == "f":
        event["bp"] = "e"
    return event


# Controller (pid 1): pipeline > two stages; the hashmap stage runs two
# inline tasks, the traverse stage waits on three rpcs, one of which has a
# nested checkpoint span. Worker (pid 500): the devd spans that served two
# of the rpcs, starting earlier than their rpc because the two processes'
# clocks are offset, plus one task on its channel track.
FIXTURE = {"traceEvents": [
    {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "c"}},
    span("pipeline", 1, 0, 0.0, 100.0),
    span("stage:hashmap", 1, 0, 0.0, 40.0),
    span("task", 1, 0, 5.0, 10.0),
    span("task", 1, 0, 20.0, 10.0),
    span("stage:traverse", 1, 0, 40.0, 60.0),
    span("rpc:degree_block", 1, 0, 50.0, 20.0),
    span("checkpoint", 1, 0, 55.0, 4.0),
    flow("s", 7, 1, 0, 50.0),
    span("rpc:kmers", 1, 0, 75.0, 5.0),
    flow("s", 8, 1, 0, 75.0),
    span("rpc:stats", 1, 0, 90.0, 2.0),
    flow("s", 9, 1, 0, 90.0),
    span("devd:degree_block", 500, 0, 48.0, 18.0),
    flow("f", 7, 500, 0, 48.0),
    span("task", 500, 1, 49.0, 11.0),
    span("devd:kmers", 500, 0, 74.0, 3.0),
    flow("f", 8, 500, 0, 74.0),
    span("devd:extract", 500, 0, 85.0, 1.0),
]}


class AggregateTest(unittest.TestCase):
    def setUp(self):
        self.agg = traceagg.aggregate(FIXTURE)

    def test_self_time_subtracts_direct_children(self):
        spans = self.agg["spans"]
        self.assertAlmostEqual(spans["pipeline"]["self_s"], 0.0)
        self.assertAlmostEqual(spans["stage:hashmap"]["total_s"], 40e-6)
        self.assertAlmostEqual(spans["stage:hashmap"]["self_s"], 20e-6)
        # 60 us minus the three rpc waits (20 + 5 + 2); the checkpoint is
        # a grandchild and already inside the degree_block wait.
        self.assertAlmostEqual(spans["stage:traverse"]["self_s"], 33e-6)
        self.assertAlmostEqual(spans["rpc:degree_block"]["self_s"], 16e-6)

    def test_counts_and_totals_sum_over_processes(self):
        tasks = self.agg["spans"]["task"]
        self.assertEqual(tasks["count"], 3)
        self.assertAlmostEqual(tasks["total_s"], 31e-6)

    def test_rpc_spans_pair_with_worker_spans_across_processes(self):
        rpc = self.agg["rpc"]
        self.assertEqual(rpc["degree_block"]["calls"], 1)
        self.assertEqual(rpc["degree_block"]["paired"], 1)
        self.assertAlmostEqual(rpc["degree_block"]["wait_s"], 20e-6)
        self.assertAlmostEqual(rpc["degree_block"]["exec_s"], 18e-6)
        self.assertAlmostEqual(rpc["kmers"]["exec_s"], 3e-6)

    def test_unpaired_rpc_counts_wait_but_no_execution(self):
        stats = self.agg["rpc"]["stats"]
        self.assertEqual((stats["calls"], stats["paired"]), (1, 0))
        self.assertAlmostEqual(stats["exec_s"], 0.0)
        # A worker span no rpc points at is not attributed to any verb.
        self.assertNotIn("extract", self.agg["rpc"])

    def test_tasks_split_by_track(self):
        self.assertEqual(self.agg["inline_tasks"], 2)
        self.assertEqual(self.agg["worker_tasks"], 1)

    def test_overlapping_children_are_counted_once(self):
        agg = traceagg.aggregate([
            span("parent", 1, 0, 0.0, 50.0),
            span("a", 1, 0, 10.0, 20.0),
            span("b", 1, 0, 10.0, 5.0),
            span("c", 1, 0, 40.0, 20.0),  # runs past the parent's end
        ])
        # a covers [10, 30] (b nests inside it); c is clipped to [40, 50].
        self.assertAlmostEqual(agg["spans"]["parent"]["self_s"], 20e-6)
        self.assertAlmostEqual(agg["spans"]["a"]["self_s"], 15e-6)


if __name__ == "__main__":
    unittest.main()
