"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

Run from the root of a checkout: python3 perfbench/selftest.py
"""

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import run  # noqa: E402
import steadiness  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class McFormula(unittest.TestCase):
    def test_one_point_at_target_costs_its_wall_time(self):
        self.assertAlmostEqual(run.mc_s_per_1pct_rse(12.0, [0.01]), 12.0)

    def test_scales_with_squared_rse_and_sums_points(self):
        # two points share 10 s: 5 s each, needing 4x and 9x the trials
        self.assertAlmostEqual(run.mc_s_per_1pct_rse(10.0, [0.02, 0.03]), 5 * 4 + 5 * 9)

    def test_halving_variance_halves_the_metric(self):
        base = run.mc_s_per_1pct_rse(8.0, [0.05, 0.04])
        reduced = run.mc_s_per_1pct_rse(8.0, [0.05 / math.sqrt(2), 0.04 / math.sqrt(2)])
        self.assertAlmostEqual(reduced, base / 2)


class FullSpeed(unittest.TestCase):
    def test_full_speed_interval_is_unchanged(self):
        self.assertAlmostEqual(run.at_full_speed(10.0, [2.0, 2.0, 2.0], 2.0), 10.0)

    def test_half_the_time_at_half_speed(self):
        # half the probe periods ran at half speed: 10 s hold 7.5 s of full-speed work
        self.assertAlmostEqual(run.at_full_speed(10.0, [2.0, 4.0], 2.0), 7.5)

    def test_no_probe_reading_keeps_the_measurement(self):
        self.assertEqual(run.at_full_speed(0.004, [], 2.0), 0.004)

    def test_default_reference(self):
        self.assertAlmostEqual(run.at_full_speed(3.0, [2 * run.PROBE_REF_S]), 1.5)


class FailedFrac(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(run.failed_frac(0, 61), 0.0)
        self.assertAlmostEqual(run.failed_frac(6, 97), 6 / 97)

    def test_tally_counts_rows_and_broken_commands(self):
        tally = run.Tally()
        tally.add("a", [None, "bad", None, "bad"])
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (4, 2, True))
        self.assertEqual(tally.reasons, {"a: bad": 2})
        tally.broken("b", 3, "no table")
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (7, 5, False))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_traced_children(self):
        # outer [0, 10] calls inner [1, 3] and [4, 8]
        t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4, 8, 10]))
        inner = t.wrap("x.inner", lambda: None)
        outer = t.wrap("y.outer", lambda: (inner(), inner()))
        outer()
        self.assertEqual(t.stats["y.outer"], [1, 10, 4])
        self.assertEqual(t.stats["x.inner"], [2, 6, 6])

    def test_nested_three_deep(self):
        # a [0, 20] > b [2, 12] > c [5, 9]
        t = tracer.Tracer(clock=FakeClock([0, 2, 5, 9, 12, 20]))
        c = t.wrap("c", lambda: None)
        b = t.wrap("b", lambda: c())
        a = t.wrap("a", lambda: b())
        a()
        self.assertEqual([t.stats[n][2] for n in "abc"], [10, 6, 4])

    def test_exception_still_recorded(self):
        t = tracer.Tracer(clock=FakeClock([0, 1, 2, 5]))

        def boom():
            raise ValueError

        inner = t.wrap("inner", boom)

        def catch():
            try:
                inner()
            except ValueError:
                pass

        t.wrap("outer", catch)()
        self.assertEqual(t.stats["inner"], [1, 1, 1])
        self.assertEqual(t.stats["outer"], [1, 5, 4])

    def test_layer_self_time_sums_the_layer(self):
        stats, counters = run.merge_traces([
            {"stats": {"cli.main": [1, 10.0, 1.0], "optimize.optimize_joint": [2, 9.0, 3.0]},
             "counters": {"optimize_joint.iterations": 10, "optimize_joint.returned": 1,
                          "x_max": 2.0}},
            {"stats": {"cli.main": [1, 4.0, 0.5], "optimize.maximize_scalar": [5, 6.0, 6.0]},
             "counters": {"optimize_joint.iterations": 4, "optimize_joint.returned": 1,
                          "x_max": 1.0}},
        ])
        self.assertEqual(stats["cli.main"], [2, 14.0, 1.5])
        self.assertEqual(counters["x_max"], 2.0)
        metrics = run.layer_metrics(stats, counters)
        self.assertEqual(metrics["cli.self_s"][0], 1.5)
        self.assertEqual(metrics["optimize.self_s"][0], 9.0)
        self.assertEqual(metrics["optimize.optimize_joint.iterations_mean"][0], 7.0)
        self.assertEqual(metrics["simulate.run_trial.ms_per_trial"][0], 0.0)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # quantiles(n=4) -> 11.75, 17.25; median 14.5
        self.assertAlmostEqual(steadiness.quartile_spread(values), 5.5 / 14.5)


@unittest.skipUnless((Path.cwd() / "src" / "sectorrelay").is_dir(), "needs the package")
class Install(unittest.TestCase):
    def test_wraps_every_lookup_site(self):
        import sectorrelay.cli as cli
        from sectorrelay import analytic, model, optimize

        original = model.radial_decay_rate
        t = tracer.Tracer()
        names = tracer.install(t)
        self.assertIn("model.NetworkParams.validate", names)
        self.assertIsNot(model.radial_decay_rate, original)
        self.assertIs(optimize.radial_decay_rate, model.radial_decay_rate)
        self.assertIs(cli.HANDLERS["fig2"], cli.run_fig2)
        params = model.NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=1.0)
        analytic.expected_density_closed(params)
        self.assertEqual(t.stats["analytic.expected_density_closed"][0], 1)
        self.assertGreaterEqual(t.stats["model.NetworkParams.validate"][0], 1)


if __name__ == "__main__":
    unittest.main()
