"""Tests of the benchmark's reduction rules.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import report  # noqa: E402


def raw(op_ms, attempted=None, failed=0, failures=(), samples=None):
    op_ms = list(op_ms)
    return {
        "setup_s": [0.5, 0.4, 0.6],
        "wall_s": 2.0,
        "op_ms": op_ms,
        "op_end_s": [0.01 * (i + 1) for i in range(len(op_ms))],
        "window_ops": 10,
        "attempted": len(op_ms) if attempted is None else attempted,
        "failed": failed,
        "failures": list(failures),
        "sim_steps": 0.0,
        "sim_s": 0.0,
        "peak_rss_mb": 10.0,
        "pred_error_pct": 1.5,
        "samples": samples or {},
        "counts": {},
    }


SPEC = {
    "end_to_end": [{"name": "setup_s", "unit": "s"},
                   {"name": "ops_per_s", "unit": "1/s"},
                   {"name": "op_ms_p90", "unit": "ms"}],
    "per_layer": [{"name": "core.compile_ms", "unit": "ms"},
                  {"name": "server.call_ms_p50", "unit": "ms"}],
}


class PercentileRule(unittest.TestCase):
    def test_sample_counts_leave_ten_beyond(self):
        self.assertEqual(report.min_samples(0.90), 100)
        self.assertEqual(report.min_samples(0.99), 1000)

    def test_p90_refused_below_100_samples(self):
        with self.assertRaises(ValueError):
            report.percentile(range(99), 0.90)
        self.assertAlmostEqual(report.percentile(range(100), 0.90), 89.1)

    def test_p99_refused_below_1000_samples(self):
        with self.assertRaises(ValueError):
            report.percentile(range(999), 0.99)
        self.assertAlmostEqual(report.percentile(range(1000), 0.99), 989.01)

    def test_median_needs_one_sample(self):
        self.assertEqual(report.percentile([7.0], 0.5), 7.0)
        self.assertEqual(report.percentile([1.0, 3.0], 0.5), 2.0)
        with self.assertRaises(ValueError):
            report.percentile([], 0.5)

    def test_p99_reported_only_with_enough_operations(self):
        self.assertNotIn("op_ms_p99", report.end_to_end(raw(range(999))))
        self.assertIn("op_ms_p99", report.end_to_end(raw(range(1000))))

    def test_too_few_operations_is_refused(self):
        self.assertTrue(report.result(raw(range(120)), SPEC, False)["correct"])
        self.assertTrue(report.problems(raw(range(50)), False))
        with self.assertRaises(ValueError):
            report.result(raw(range(50)), SPEC, False)


class ErrorRate(unittest.TestCase):
    def test_failed_over_attempted(self):
        self.assertEqual(report.error_rate(200, 0), 0.0)
        self.assertEqual(report.error_rate(200, 5), 0.025)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                report.error_rate(attempted, failed)

    def test_any_failure_makes_the_run_incorrect(self):
        ok = report.result(raw(range(200)), SPEC, False)
        self.assertTrue(ok["correct"])
        self.assertEqual((ok["attempted"], ok["failed"]), (200, 0))
        bad = report.result(
            raw(range(200), failed=1, failures=["t.vpb: digest mismatch"]),
            SPEC, False)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], 1)
        self.assertEqual(report.end_to_end(
            raw(range(200), failed=1))["error_rate"], 0.005)

    def test_failed_operations_count_against_attempted(self):
        # A refused request has no latency sample but was attempted.
        r = raw(range(150), attempted=160, failed=10)
        self.assertEqual(report.end_to_end(r)["error_rate"], 10 / 160)


class Throughput(unittest.TestCase):
    def test_median_window_rate(self):
        r = raw(range(30))
        # Three windows of 10 operations; the middle one is slow.
        r["op_end_s"] = ([0.1 * (i + 1) for i in range(10)] +
                         [1.0 + 0.2 * (i + 1) for i in range(10)] +
                         [3.0 + 0.1 * (i + 1) for i in range(10)])
        self.assertAlmostEqual(report.ops_per_s(r), 10.0)

    def test_partial_last_window_is_ignored(self):
        r = raw(range(25))
        self.assertAlmostEqual(report.ops_per_s(r), 100.0)

    def test_no_complete_window_is_refused(self):
        with self.assertRaises(ValueError):
            report.ops_per_s(raw(range(9)))


class HostCorrection(unittest.TestCase):
    def test_times_scale_with_the_nearby_probes(self):
        r = raw([10.0] * 4)
        r["op_end_s"] = [1.0, 2.0, 11.0, 12.0]
        # Quiet probes for the first ten seconds, then twice as slow.
        r["host_t_s"] = [0.5 * i for i in range(48)]
        r["host_us"] = ([report.NOMINAL_US] * 20 +
                        [2 * report.NOMINAL_US] * 28)
        self.assertEqual(report.corrected_op_ms(r), [10.0, 10.0, 5.0, 5.0])

    def test_a_lone_slow_probe_is_ignored(self):
        r = raw([10.0])
        r["host_t_s"] = [0.1 * i for i in range(30)]
        r["host_us"] = [report.NOMINAL_US] * 30
        r["host_us"][0] = 50 * report.NOMINAL_US
        self.assertEqual(report.corrected_op_ms(r), [10.0])

    def test_no_probes_no_correction(self):
        self.assertEqual(report.corrected_op_ms(raw([3.0, 4.0])), [3.0, 4.0])

    def test_setup_time_is_corrected_per_setup(self):
        r = raw([])
        r["setup_s"] = [1.0, 2.0, 0.8, 3.0]
        r["setup_host_us"] = [report.NOMINAL_US, 2 * report.NOMINAL_US,
                              report.NOMINAL_US, report.NOMINAL_US]
        # Corrected 1.0, 1.0, 0.8, 3.0; the quiet half is 0.8 and 1.0.
        self.assertAlmostEqual(report.setup_s(r), 0.9)


class QuietDecks(unittest.TestCase):
    def deck_raw(self, decks):
        ops = [op for deck in decks for op in deck]
        r = raw(ops)
        r["window_ops"] = len(decks[0])
        r["decks"] = True
        return r

    def test_slow_decks_are_left_out(self):
        # Four decks of the same two operations; two ran on a busy host.
        r = self.deck_raw([[10.0, 30.0], [20.0, 60.0], [30.0, 10.0],
                           [60.0, 20.0]])
        self.assertEqual(report.latencies(r), [10.0, 30.0, 30.0, 10.0])
        self.assertAlmostEqual(report.throughput(r), 50.0)

    def test_p90_needs_100_quiet_operations(self):
        r = self.deck_raw([[1.0] * 10] * 19)
        self.assertEqual(len(report.latencies(r)), 100)
        self.assertFalse(report.problems(r, False))
        r = self.deck_raw([[1.0] * 10] * 18)
        self.assertTrue(report.problems(r, False))

    def test_no_complete_deck_is_refused(self):
        r = self.deck_raw([[1.0] * 10])
        r["window_ops"] = 20
        with self.assertRaises(ValueError):
            report.throughput(r)


class Results(unittest.TestCase):
    def test_untraced_metrics_are_the_end_to_end_list(self):
        res = report.result(raw(range(200)), SPEC, False)
        self.assertEqual(set(res["metrics"]), {"setup_s", "ops_per_s",
                                               "op_ms_p90"})
        # The faster two of the three set-ups, 0.4 and 0.5 s.
        self.assertAlmostEqual(res["metrics"]["setup_s"]["value"], 0.45)
        self.assertAlmostEqual(res["metrics"]["ops_per_s"]["value"], 100.0)

    def test_traced_layer_off_the_path_reports_zero(self):
        r = raw(range(200), samples={"core.compile_ms": [1.0, 2.0, 9.0],
                                     "bench.stage_sum_ratio": [0.99] * 3})
        res = report.result(r, SPEC, True)
        self.assertEqual(res["metrics"]["core.compile_ms"]["value"], 2.0)
        self.assertEqual(res["metrics"]["server.call_ms_p50"]["value"], 0.0)
        self.assertTrue(res["correct"])

    def test_stage_sum_outside_tolerance_is_not_correct(self):
        r = raw(range(200), samples={"bench.stage_sum_ratio": [0.8] * 3})
        self.assertFalse(report.result(r, SPEC, True)["correct"])
        self.assertTrue(report.result(r, SPEC, False)["correct"])


if __name__ == "__main__":
    unittest.main()
