"""Tests of the benchmark's output checks and result bookkeeping.

Run: python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

OUTPUTS = {
    "contigs": 119, "n50": 2533, "verify": "17/17",
    "stages": {
        "hashmap": {"commands": 2391806, "time_ns": 3044553.75,
                    "energy_pj": 473088712.0000567},
        "debruijn": {"commands": 54972, "time_ns": 38655.0,
                     "energy_pj": 8311766.399999883},
        "traverse": {"commands": 81584520, "time_ns": 56382850.0,
                     "energy_pj": 19540312057.801388},
    },
}


def with_change(path, value):
    """A deep copy of OUTPUTS with one (possibly nested) field replaced."""
    out = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in OUTPUTS.items()}
    out["stages"] = {s: dict(v) for s, v in OUTPUTS["stages"].items()}
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def quiet(fn, *args):
    with contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class CheckOutputsTest(unittest.TestCase):
    def test_identical_outputs_pass(self):
        self.assertEqual(run.check_outputs(OUTPUTS, OUTPUTS), [])

    def test_a_wrong_expected_value_fails(self):
        for path, value in ((("contigs",), 118), (("n50",), 2534),
                            (("verify",), "17/18"),
                            (("stages", "traverse", "commands"), 81584521),
                            (("stages", "hashmap", "energy_pj"), 473088712.0)):
            with self.subTest(path=path):
                self.assertNotEqual(
                    run.check_outputs(OUTPUTS, with_change(path, value)), [])

    def test_contigs_that_miss_the_reference_fail(self):
        got = with_change(("verify",), "16/17")
        self.assertNotEqual(run.check_outputs(got, got), [])

    def test_sim_totals_sum_the_stages(self):
        totals = run.sim_totals(OUTPUTS["stages"])
        self.assertEqual(totals["sim_commands"], 84031298)
        self.assertAlmostEqual(totals["sim_time_us"], 59466.05875)


class LedgerTest(unittest.TestCase):
    def test_first_unit_is_the_reference_without_a_recording(self):
        ledger = run.Ledger(None)
        self.assertTrue(quiet(ledger.check, "u0", OUTPUTS))
        self.assertFalse(quiet(ledger.check, "u1",
                               with_change(("n50",), 1)))
        self.assertTrue(quiet(ledger.check, "u2", OUTPUTS))
        self.assertEqual((ledger.attempted, ledger.failed), (3, 1))

    def test_recorded_outputs_are_the_reference(self):
        ledger = run.Ledger(with_change(("contigs",), 120))
        self.assertFalse(quiet(ledger.check, "u0", OUTPUTS))
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_a_failed_process_counts_as_failed(self):
        ledger = run.Ledger(OUTPUTS)
        self.assertFalse(quiet(ledger.check, "u0", None, ["exit code 1"]))
        self.assertFalse(quiet(ledger.check, "u1", None))
        self.assertEqual((ledger.attempted, ledger.failed), (2, 2))


class PercentileTest(unittest.TestCase):
    def test_p90_interpolates(self):
        self.assertAlmostEqual(run.p90(list(range(1, 102))), 91.0)
        self.assertEqual(run.p90([4.0]), 4.0)
        self.assertEqual(run.median([]), 0.0)


if __name__ == "__main__":
    unittest.main()
