"""Command-line surface: tables, manifests, replay, exit discipline.

Everything drives cli.main() in-process. CSV files carry a schema comment
line, then a header, then %.17g cells, so parsed floats round-trip exactly
and byte comparison is meaningful for determinism checks.
"""

import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sectorrelay
from sectorrelay import analytic, cli, model, optimize, simulate
from sectorrelay.errors import ParameterError
from sectorrelay.model import NetworkParams

P_STAR = 0.1188294545528762
E_STAR = 0.029141266278579252

BASE = NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2)
GOOD_PARAMS = BASE.to_exact_mapping()


def read_table(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: sectorrelay.")
    return lines[0], list(csv.DictReader(lines[1:]))


def manifest_of(outdir: Path, command: str) -> dict:
    return json.loads((outdir / f"{command}_manifest.json").read_text())


# ---------------------------------------------------------------------
# fig2: bound-vs-optimum table
# ---------------------------------------------------------------------

def test_fig2_default_run(tmp_path):
    assert cli.main(["fig2", "--outdir", str(tmp_path)]) == 0
    schema, rows = read_table(tmp_path / "fig2.csv")
    assert schema == "# schema: sectorrelay.fig2 v1"
    assert len(rows) == 24
    assert [r["status"] for r in rows] == ["ok"] * 24
    assert all(r["printed_bound_holds"] == "1" for r in rows)
    assert all(r["derived_bound_holds"] == "0" for r in rows)
    phis = [float(r["phi"]) for r in rows]
    assert phis[0] == pytest.approx(math.pi / 12)
    assert phis[-1] == pytest.approx(2 * math.pi)
    rms = [float(r["rm_numerical"]) for r in rows]
    assert all(a > b for a, b in zip(rms, rms[1:]))

    doc = manifest_of(tmp_path, "fig2")
    assert doc["manifest_version"] == 1
    assert doc["command"] == "fig2"
    assert doc["params"]["p"] == 0.1  # fig2's own default
    assert doc["params"]["beta"] == 10.0
    assert doc["outputs"] == [{"file": "fig2.csv", "schema": "sectorrelay.fig2 v1"}]
    assert doc["notes"]  # the bound-variant explanation travels with the data


def test_fig2_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fig2", "--outdir", str(a)]) == 0
    assert cli.main(["fig2", "--outdir", str(b)]) == 0
    assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["fig2", "--phi-grid", "0.5:6.0:6"], ["fig2.csv"]),
        (
            ["simulate", "--trials", "150", "--seed", "9", "--emit-trials"],
            ["simulate.csv", "simulate_trials.csv"],
        ),
        (["fig5", "--simulate", "--trials", "100", "--phi-grid", "0.5,1.5"], ["fig5.csv"]),
    ],
    ids=["fig2", "simulate", "fig5"],
)
def test_parallel_workers_match_serial(tmp_path, argv, tables):
    # --workers is accepted and ignored, whatever its value
    a = tmp_path / "a"
    assert cli.main(argv + ["--outdir", str(a)]) == 0
    for workers in ("2", "0", "-1"):
        b = tmp_path / workers
        assert cli.main(argv + ["--workers", workers, "--outdir", str(b)]) == 0
        for name in tables:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fig2_manifest_replay(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fig2", "--phi-grid", "0.5,1.5,3.0", "--outdir", str(a)]) == 0
    rc = cli.main(["--from-manifest", str(a / "fig2_manifest.json"), "--outdir", str(b)])
    assert rc == 0
    assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()


def test_fig2_bad_row_is_annotated_not_fatal(tmp_path):
    rc = cli.main(["fig2", "--phi-grid", "0.5,0,1.0", "--outdir", str(tmp_path)])
    assert rc == 3
    _, rows = read_table(tmp_path / "fig2.csv")
    assert len(rows) == 3
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: ParameterError")
    assert rows[1]["rm_numerical"] == "nan"
    assert rows[1]["printed_bound_holds"] == "nan"  # no flag without a value
    assert rows[2]["status"] == "ok"


def test_fig2_vacuous_bound_row(tmp_path):
    # a weak SIR threshold makes the dominating bound's quadratic rootless;
    # the row must say so and publish +inf rather than fail
    rc = cli.main(
        ["fig2", "--beta-linear", "1", "--phi-grid", "1.0", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    _, rows = read_table(tmp_path / "fig2.csv")
    assert rows[0]["status"] == "ok (printed bound vacuous)"
    assert rows[0]["rm_bound_printed"] == "inf"
    assert rows[0]["printed_bound_holds"] == "1"


@pytest.mark.parametrize("beta_db", ["200", "300"])
def test_fig2_bound_at_a_huge_threshold(tmp_path, beta_db):
    # the relay rate is tiny against k here: the textbook smaller root
    # cancelled to 3.5e-10 at 200 dB and to 0 at 300 dB, against an
    # optimum of 7.6e-20 and 7.6e-30
    argv = ["fig2", "--beta-db", beta_db, "--phi-grid", "1.5707963267948966"]
    assert cli.main(argv + ["--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "fig2.csv")
    rm = float(rows[0]["rm_numerical"])
    assert 1.0 < float(rows[0]["rm_bound_printed"]) / rm < 1.2
    assert 0.0 < float(rows[0]["rm_bound_derived"]) / rm < 1.0
    assert (rows[0]["printed_bound_holds"], rows[0]["derived_bound_holds"]) == ("1", "0")
    assert rows[0]["status"] == "ok"


# ---------------------------------------------------------------------
# fig34: jointly optimal operating point vs beamwidth
# ---------------------------------------------------------------------

def test_fig34_joint_table(tmp_path):
    assert cli.main(["fig34", "--phi-grid", "0.8:5.5:4", "--outdir", str(tmp_path)]) == 0
    schema, rows = read_table(tmp_path / "fig3_fig4.csv")
    assert schema == "# schema: sectorrelay.fig3_fig4 v1"
    assert len(rows) == 4
    for row in rows:
        assert row["converged"] == "1"
        assert float(row["p_star"]) == pytest.approx(P_STAR, abs=1e-6)
        num, closed = float(row["rm_star_numeric"]), float(row["rm_star_closed_form"])
        assert num == pytest.approx(closed, abs=1e-3 * max(1.0, closed))
    rms = [float(r["rm_star_numeric"]) for r in rows]
    assert all(a > b for a, b in zip(rms, rms[1:]))


def test_fig34_keeps_the_optimum_outside_the_closed_form_regime(tmp_path):
    # beta = -10 dB gives t = 1.64 < pi: the closed-form r_m is undefined,
    # but the joint optimum is certified and must be reported
    rc = cli.main(["fig34", "--beta-db", "-10", "--phi-grid", "1.0", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_table(tmp_path / "fig3_fig4.csv")
    row = rows[0]
    assert math.isfinite(float(row["p_star"]))
    assert math.isfinite(float(row["rm_star_numeric"]))
    assert row["rm_star_closed_form"] == "nan"
    assert row["converged"] == "1"
    assert row["status"].startswith("ok (closed-form r_m undefined: ")


# ---------------------------------------------------------------------
# fig5: directional vs omnidirectional optima
# ---------------------------------------------------------------------

def test_fig5_directional_advantage_and_full_circle(tmp_path):
    grid = "1.0,3.0,6.283185307179586"
    assert cli.main(["fig5", "--phi-grid", grid, "--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "fig5.csv")
    assert len(rows) == 3
    for row in rows[:-1]:
        assert float(row["edp_directional_opt"]) > float(row["edp_omni_opt"])
    # at phi = 2*pi the variants are the same protocol: identical cells
    assert rows[-1]["edp_directional_opt"] == rows[-1]["edp_omni_opt"]
    doc = manifest_of(tmp_path, "fig5")
    assert any("full circle" in note for note in doc["notes"])


def test_fig5_with_simulation_columns(tmp_path):
    rc = cli.main([
        "fig5", "--phi-grid", "1.5707963267948966", "--simulate",
        "--trials", "150", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_table(tmp_path / "fig5.csv")
    row = rows[0]
    for variant in ("directional", "omni"):
        mean = float(row[f"sim_{variant}_mean"])
        se = float(row[f"sim_{variant}_std_error"])
        target = float(row[f"edp_{variant}_opt"])
        assert se > 0
        assert abs(mean - target) < 4 * se


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--trials", "100", "--seed", "-1", "--phi-grid", "1.0"], "seed"),
        (["--trials", "50", "--phi-grid", "1.0"], "trials"),
        # row 2 would simulate under seed 2**64
        (["--trials", "100", "--seed", str(2**64 - 1), "--phi-grid", "1.0,2.0"], "seed"),
    ],
)
def test_fig5_bad_simulation_settings_are_a_usage_error(tmp_path, capsys, argv, named):
    rc = cli.main(["fig5", "--simulate", *argv, "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "fig5.csv").exists()


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def test_sweep_dual_routes_agree(tmp_path):
    rc = cli.main([
        "sweep", "--param", "p", "--values", "0.08:0.2:5",
        "--r-m", "0.3", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    schema, rows = read_table(tmp_path / "sweep.csv")
    assert schema == "# schema: sectorrelay.sweep v1"
    assert len(rows) == 5
    for row in rows:
        closed, numeric = float(row["edp_closed"]), float(row["edp_numeric"])
        assert abs(closed - numeric) / numeric < 1e-8


def test_sweep_single_point_round_trips_exactly(tmp_path):
    rc = cli.main([
        "sweep", "--param", "p", "--values", "0.12",
        "--r-m", "0.3", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_table(tmp_path / "sweep.csv")
    expected = analytic.expected_density_closed(dataclasses.replace(BASE, r_m=0.3))
    assert float(rows[0]["edp_closed"]) == expected  # 17 digits round-trip


def test_sweep_scaling_study(tmp_path):
    rc = cli.main([
        "sweep", "--param", "lambda", "--values", "0.5,1,2,4",
        "--scaling", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_table(tmp_path / "sweep.csv")
    ratios = [float(r["edp_opt_over_sqrt_lambda"]) for r in rows]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread <= 1e-6
    p_stars = [float(r["p_star"]) for r in rows]
    assert max(p_stars) - min(p_stars) < 1e-6


def test_sweep_rejects_out_of_range_value_per_row(tmp_path):
    rc = cli.main([
        "sweep", "--param", "p", "--values", "0.3,1.5",
        "--r-m", "0.3", "--outdir", str(tmp_path),
    ])
    assert rc == 3
    _, rows = read_table(tmp_path / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: ParameterError")
    assert "p" in rows[1]["status"]


THIN_RELAY_SWEEP = [
    "sweep", "--param", "r_m", "--values", "30", "--lambda", "1000",
    "--p", "1e-4", "--beta-db", "-30", "--alpha", "2.2", "--phi", "6.2",
]


def test_sweep_twin_resolves_a_thin_relay_law(tmp_path):
    # the relay law's mass sits within 5e-6 of r_m = 30; integrated in the
    # relay law's own variable, the twin still finds it
    assert cli.main(THIN_RELAY_SWEEP + ["--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "sweep.csv")
    closed, numeric = float(rows[0]["edp_closed"]), float(rows[0]["edp_numeric"])
    assert closed == pytest.approx(2.00917583687e-4, rel=1e-10)
    assert numeric == pytest.approx(closed, rel=1e-7, abs=0.0)
    assert rows[0]["status"] == "ok"
    # b*r_m^2 near 1e8 at r_m = 300: the twin's nodes must not recompute
    # x^2 - r_m^2, whose rounding would cost about b*r_m^2*eps relative
    wide = [
        "sweep", "--param", "r_m", "--values", "300", "--lambda", "1000",
        "--p", "1e-6", "--beta-db", "-30", "--alpha", "2.2", "--phi", "6.2",
    ]
    assert cli.main(wide + ["--outdir", str(tmp_path / "wide")]) == 0
    _, rows = read_table(tmp_path / "wide" / "sweep.csv")
    assert float(rows[0]["edp_numeric"]) == pytest.approx(float(rows[0]["edp_closed"]), rel=1e-7)
    assert rows[0]["status"] == "ok"


def test_sweep_twin_disagreement_is_an_error_row(tmp_path, monkeypatch):
    closed_form = analytic.expected_density_closed
    monkeypatch.setattr(
        analytic, "expected_density_numeric",
        lambda params, variant: closed_form(params, variant) * (1.0 + 1e-6),
    )
    assert cli.main(THIN_RELAY_SWEEP + ["--outdir", str(tmp_path)]) == 3
    _, rows = read_table(tmp_path / "sweep.csv")
    assert rows[0]["status"].startswith("error: closed form and quadrature differ")


# ---------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------

def test_optimize_joint_default(tmp_path):
    assert cli.main(["optimize", "--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "optimize.csv")
    row = rows[0]
    assert row["mode"] == "joint"
    assert row["converged"] == "1"
    assert float(row["p_star"]) == pytest.approx(P_STAR, abs=1e-8)
    assert float(row["edp"]) == pytest.approx(E_STAR, rel=1e-10)


def test_optimize_rm_mode_matches_module(tmp_path):
    assert cli.main(["optimize", "--mode", "rm", "--p", "0.1", "--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "optimize.csv")
    row = rows[0]
    direct = optimize.optimize_rm(dataclasses.replace(BASE, p=0.1))
    assert row["mode"] == "rm"
    assert float(row["p_star"]) == 0.1
    assert float(row["rm_star"]) == direct.rm_star
    assert row["residual_p"] == "nan"  # fixed-p search has no p residual
    assert row["converged"] == "1"


def test_optimize_alpha_edge_is_certified(tmp_path):
    # alpha barely above 2 drives t to ~6e8 and p* down to ~1e-8
    rc = cli.main(["optimize", "--alpha", "2.0000001", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_table(tmp_path / "optimize.csv")
    row = rows[0]
    assert row["status"] == "ok"
    assert row["converged"] == "1"
    assert float(row["p_star"]) == pytest.approx(9.25e-9, rel=1e-3)


def test_uncertified_optimum_is_an_error_row(tmp_path, monkeypatch):
    real = optimize.optimize_joint

    def not_converged(*args):
        return dataclasses.replace(real(*args), converged=False)

    monkeypatch.setattr(optimize, "optimize_joint", not_converged)
    for argv, table in [
        (["optimize"], "optimize.csv"),
        (["fig34", "--phi-grid", "1.0"], "fig3_fig4.csv"),
        (["fig5", "--phi-grid", "1.0"], "fig5.csv"),
        (["sweep", "--param", "p", "--values", "0.1", "--optimize"], "sweep.csv"),
    ]:
        outdir = tmp_path / table
        assert cli.main(argv + ["--outdir", str(outdir)]) == 3
        _, rows = read_table(outdir / table)
        assert rows[0]["status"].startswith("error: OptimizationError: optimum not certified")


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def test_simulate_run_emit_trials_and_replay(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    rc = cli.main([
        "simulate", "--trials", "150", "--seed", "9",
        "--p", "0.1188294545528762", "--r-m", "0.2991641893786304",
        "--emit-trials", "--outdir", str(a),
    ])
    assert rc == 0
    schema, rows = read_table(a / "simulate.csv")
    assert schema == "# schema: sectorrelay.simulate v2"
    row = rows[0]
    # the run draws whole blocks of STRATA relay strata, at least two: 150
    # rounds up to 256
    drawn = simulate.STRATA * max(2, math.ceil(150 / simulate.STRATA))
    assert row["trials_used"] == str(drawn)
    assert abs(float(row["z_score"])) < 4.0
    assert float(row["ci95_low"]) < float(row["edp_closed"]) < float(row["ci95_high"])

    trial_schema, trial_rows = read_table(a / "simulate_trials.csv")
    assert trial_schema == "# schema: sectorrelay.simulate_trials v6"
    assert len(trial_rows) == drawn
    assert tuple(trial_rows[0].keys()) == simulate.TRIAL_COLUMNS

    rc = cli.main(["--from-manifest", str(a / "simulate_manifest.json"), "--outdir", str(b)])
    assert rc == 0
    for name in ("simulate.csv", "simulate_trials.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    # the table, fig5's estimator and the emitted trials give one estimate
    params = NetworkParams.from_mapping(manifest_of(a, "simulate")["params"])
    est = simulate.estimate_density_of_progress(
        params, simulate.SimConfig.for_params(params, 150, 9)
    )
    assert (float(row["mean"]), float(row["std_error"])) == (est.mean, est.std_error)
    progress = np.array([float(r["progress"]) for r in trial_rows])
    weight = np.array([float(r["weight"]) for r in trial_rows])
    assert simulate.summarize_trials(weight * progress, params).mean == est.mean


def test_smallest_simulate_run_emits_two_blocks(tmp_path):
    # --trials 100, the fewest simulate accepts, rounds up to two blocks of
    # STRATA relay strata: 256 trial rows, all in the estimate
    argv = ["simulate", "--trials", "100", "--emit-trials", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    _, rows = read_table(tmp_path / "simulate.csv")
    _, trial_rows = read_table(tmp_path / "simulate_trials.csv")
    assert len(trial_rows) == 2 * simulate.STRATA == 256
    assert rows[0]["trials_used"] == "256" and rows[0]["status"] == "ok"
    assert [int(r["trial"]) for r in trial_rows] == list(range(256))


def test_simulate_std_error_survives_tiny_progress(tmp_path):
    # per-trial progress near 1e-172: its squares underflow to zero
    rc = cli.main([
        "simulate", "--trials", "2000", "--alpha", "2.2", "--beta-db", "30",
        "--p", "0.01", "--r-m", "3", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_table(tmp_path / "simulate.csv")
    assert float(rows[0]["std_error"]) > 0.0
    assert math.isfinite(float(rows[0]["z_score"]))


def test_simulate_all_zero_progress_is_an_error_row(tmp_path):
    # P_s underflows in every trial: the run estimates nothing, so it is an
    # error row and exit 3, not a row of zeros labelled ok
    rc = cli.main([
        "simulate", "--alpha", "2.2", "--beta-db", "10", "--p", "0.5", "--phi", "0.3",
        "--r-m", "3", "--variant", "omnidirectional", "--trials", "2000", "--seed", "1",
        "--outdir", str(tmp_path),
    ])
    assert rc == 3
    _, rows = read_table(tmp_path / "simulate.csv")
    assert rows[0]["status"].startswith("error: EmptyEstimateError: ")


def test_simulate_rejects_insufficient_trials(tmp_path, capsys):
    rc = cli.main(["simulate", "--trials", "50", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, status",
    [
        (["--r-m", "1e200"], "error: DomainError: r_m = "),
        (["--lambda", "1e300"], "error: DomainError: lambda = "),
        (["--lambda", "1e-300"], "error: DomainError: lambda = "),
        (["--alpha", "1e3"], "error: DomainError: alpha = "),
        (["--guard-radius", "1e12"], "error: "),
        (["--lambda", "1e-300", "--phi", "1e-30"], "error: DomainError: lambda = "),
        (["--phi", "1e-320"], "error: DomainError: r_m = 0 and alpha = 3 put beta*D^alpha"),
        (["--alpha", "50", "--r-m", "1e10"], "error: DomainError: r_m = 1e+10 and alpha = 50 "),
    ],
    ids=[
        "huge-r_m", "huge-lambda", "tiny-lambda", "huge-alpha", "huge-guard",
        "tiny-lambda-and-phi", "tiny-phi", "huge-alpha-and-r_m",
    ],
)
def test_simulate_failure_is_an_error_row(tmp_path, capsys, flags, status):
    # admissible parameters the kernel cannot carry out: an error row that
    # names the parameter, exit 3, as fig5 --simulate gives at the same
    # parameters, and no numpy warning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(
            ["simulate", "--trials", "200", "--emit-trials", *flags, "--outdir", str(tmp_path)]
        )
    assert rc == 3
    _, rows = read_table(tmp_path / "simulate.csv")
    assert rows[0]["status"].startswith(status)
    assert not (tmp_path / "simulate_trials.csv").exists()
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig5", "--simulate", "--trials", "50", "--phi-grid", "1.0"],
        ["simulate", "--trials", "50"],
        ["simulate", "--trials", "200", "--guard-radius", "inf"],
    ],
    ids=["fig5", "simulate", "simulate-infinite-guard"],
)
def test_rejected_run_creates_no_outdir(tmp_path, argv):
    outdir = tmp_path / "out"
    assert cli.main(argv + ["--outdir", str(outdir)]) == 2
    assert not outdir.exists()


# ---------------------------------------------------------------------
# parameter resolution and top-level behavior
# ---------------------------------------------------------------------

def test_config_file_layering_with_flag_override(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("p = 0.3\nphi = 1.0\n")
    rc = cli.main([
        "optimize", "--mode", "rm", "--config", str(cfg),
        "--p", "0.2", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    doc = manifest_of(tmp_path, "optimize")
    assert doc["params"]["p"] == 0.2  # flag beats config
    assert doc["params"]["phi"] == 1.0  # config beats default
    assert doc["params"]["lambda"] == 1.0  # untouched default
    assert doc["overrides"] == ["p=0.2"]


#: Each parameter key's flag.
PARAM_FLAGS = {
    "lambda": "--lambda", "alpha": "--alpha", "beta_db": "--beta-db", "beta": "--beta-linear",
    "mu": "--mu", "p": "--p", "phi": "--phi", "r_m": "--r-m",
}


def test_each_parameter_flag_lands_under_its_key(tmp_path):
    # model.PARAM_KEYS is the one list of the parameters' keys: every flag
    # stores under its key, whose manifest params and overrides follow it
    # in its order, whatever the order on the command line; --beta-db and
    # --beta-linear exclude each other, so each gets its own run
    assert list(PARAM_FLAGS) == list(model.PARAM_KEYS)
    given = {"lambda": 2.0, "alpha": 3.5, "mu": 0.5, "p": 0.2, "phi": 1.0, "r_m": 0.25}
    for beta_key, beta_value, beta in (("beta_db", 7.0, 10.0 ** 0.7), ("beta", 4.0, 4.0)):
        flags = {**given, beta_key: beta_value}
        argv = ["optimize", "--mode", "rm", "--outdir", str(tmp_path / beta_key)]
        for key in reversed(model.PARAM_KEYS):
            if key in flags:
                argv += [PARAM_FLAGS[key], repr(flags[key])]
        assert cli.main(argv) == 0
        doc = manifest_of(tmp_path / beta_key, "optimize")
        assert doc["params"] == {**given, "beta": beta}
        assert list(doc["params"]) == [key for key in model.PARAM_KEYS if key != "beta_db"]
        assert doc["overrides"] == [
            f"{key}={flags[key]!r}" for key in model.PARAM_KEYS if key in flags
        ]
    sweep = cli._setting_options(cli._command_parser("sweep"))["param"]
    assert tuple(sweep.choices) == model.PARAM_KEYS
    with pytest.raises(ParameterError, match="unknown config key: gamma"):
        NetworkParams.from_mapping({**GOOD_PARAMS, "gamma": 1.0})


@pytest.mark.parametrize("alpha", ["2.001", "2.5"])
def test_optimum_within_rounding_of_one_is_an_error_row(tmp_path, alpha):
    # at beta = -300 dB, p* lies within rounding of 1: at alpha = 2.001 it
    # rounds to 1.0 (an out-of-range p), at 2.5 the nearest double misses
    # 1 - p* by 17 %, which wrote an ok row whose optimum a 0.1 % step beat.
    # Both are error rows that name the cause, with exit 3
    rc = cli.main(["optimize", "--beta-db", "-300", "--alpha", alpha, "--outdir", str(tmp_path)])
    assert rc == 3
    _, rows = read_table(tmp_path / "optimize.csv")
    assert rows[0]["status"].startswith(f"error: DomainError: alpha = {alpha} and beta = 1e-30 ")
    assert "within rounding of 1" in rows[0]["status"]


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("gamma = 1.0\n")
    rc = cli.main(["optimize", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_both_beta_flags_rejected(tmp_path, capsys):
    rc = cli.main([
        "optimize", "--beta-db", "10", "--beta-linear", "10", "--outdir", str(tmp_path)
    ])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_empty_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", "--phi-grid", "", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["0:1:0", "1:2", "a:b:3", ",,"])
def test_malformed_grid_is_a_usage_error(tmp_path, capsys, grid):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--param", "p", "--values", grid, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --values:" in err and "grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "a subcommand or --from-manifest is required"),
        (["--from-manifest", "m.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["fig9"], "invalid choice: 'fig9'"),
    ],
    ids=["no-command", "unknown-option", "unknown-command"],
)
def test_top_level_usage_errors(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_manifest_without_outdir_needs_the_flag(tmp_path, capsys):
    assert cli.main(["optimize", "--outdir", str(tmp_path)]) == 0
    doc = manifest_of(tmp_path, "optimize")
    del doc["outdir"]
    path = tmp_path / "no_outdir.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["--from-manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "lacks key: outdir" in err
    assert "Traceback" not in err


def test_manifest_and_subcommand_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--from-manifest", "whatever.json", "fig2"])
    assert exc.value.code == 2


def test_missing_manifest_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["--from-manifest", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        ([1, 2], "not a JSON object"),
        ({"command": "fig2", "params": {}}, "settings"),
        ({"params": {}, "settings": {}}, "command"),
        ({"command": ["fig2"], "params": {}, "settings": {}}, "unknown command"),
        ({"command": "fig2", "params": [], "settings": {}}, "params"),
        ({"command": "fig2", "params": {"lambda": 1.0}, "settings": {}}, "missing config key"),
        ({"command": "fig2", "params": GOOD_PARAMS, "settings": {}}, "phi_grid"),
        (
            {"command": "fig2", "params": GOOD_PARAMS,
             "settings": {"seed": 0, "workers": "x", "phi_grid": [0.5]}},
            "workers",
        ),
        (
            {"command": "fig2", "params": GOOD_PARAMS,
             "settings": {"seed": 0, "workers": 1, "phi_grid": [0.5, "zz"]}},
            "phi_grid",
        ),
        (
            {"command": "fig2", "params": GOOD_PARAMS,
             "settings": {"seed": 0, "workers": 1, "phi_grid": []}},
            "phi_grid",
        ),
        (
            {"command": "sweep", "params": GOOD_PARAMS,
             "settings": {"seed": 0, "workers": 1, "param": "p", "values": [],
                          "optimize": False, "scaling": False, "variant": "directional"}},
            "values",
        ),
        (
            {"command": "simulate", "params": GOOD_PARAMS,
             "settings": {"seed": 0, "workers": 1, "trials": 200, "guard_radius": None,
                          "variant": "directional", "emit_trials": False, "bogus": 1}},
            "bogus",
        ),
        (
            {"command": "fig2", "params": {**GOOD_PARAMS, "lambda": 10**400}, "settings": {}},
            "out of float range",
        ),
        (
            {"command": "fig2", "settings": {},
             "params": {"lambda": 1.0, "alpha": 3.0, "beta_db": 4000.0, "p": 0.1, "phi": 1.0}},
            "out of float range",
        ),
    ],
)
def test_malformed_manifest_is_a_usage_error(tmp_path, capsys, doc, named):
    path = tmp_path / "bad_manifest.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["--from-manifest", str(path), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("as_manifest", [False, True], ids=["config", "manifest"])
def test_non_utf8_file_is_a_usage_error(tmp_path, capsys, as_manifest):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("phi = 1.0  # \u00e9\n".encode("latin-1"))
    if as_manifest:
        argv = ["--from-manifest", str(path), "--outdir", str(tmp_path / "out")]
    else:
        argv = ["optimize", "--config", str(path), "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # belt and braces: never pollute the repo
    assert cli.main(["optimize", "--mode", "rm"]) == 0
    assert (tmp_path / "optimize.csv").exists()
    assert (tmp_path / "optimize_manifest.json").exists()


def test_outdir_before_the_command_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the top-level --outdir serves replays only: before a command it would
    # be overwritten by the command's own default, and the tables would
    # land in the working directory
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--outdir", "x", "fig34", "--phi-grid", "1.0"])
    assert exc.value.code == 2
    assert "--outdir goes after the command" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert sectorrelay.__version__ in capsys.readouterr().out


#: Each command's settings keys, in the order its manifests record them.
SETTINGS_KEYS = {
    "fig2": ["seed", "workers", "phi_grid"],
    "fig34": ["seed", "workers", "phi_grid"],
    "fig5": ["seed", "workers", "phi_grid", "simulate", "trials"],
    "sweep": ["seed", "workers", "param", "values", "optimize", "scaling", "variant"],
    "optimize": ["seed", "workers", "mode", "variant"],
    "simulate": ["seed", "workers", "trials", "guard_radius", "variant", "emit_trials"],
}


def test_each_command_parses_alone(tmp_path, monkeypatch, capsys):
    # the top-level help names every command; each command's own parser
    # gives the settings keys that recorded manifests hold; and a command
    # run parses with that parser alone, never the top-level one
    assert list(cli.COMMANDS) == list(cli.HANDLERS) == list(SETTINGS_KEYS)
    monkeypatch.setenv("COLUMNS", "1000")  # no help line wraps at a hyphen
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    listing = " ".join(capsys.readouterr().out.split())
    for name, (help, _) in cli.COMMANDS.items():
        assert f"{name} {help}" in listing
        assert list(cli._setting_options(cli._command_parser(name))) == SETTINGS_KEYS[name]

    def refuse():
        raise AssertionError("a command run built the top-level parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(["fig34", "--phi-grid", "1.0", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sectorrelay {name} ")


# ---------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------

#: The demos that need no scipy; demos/monte_carlo_check.py uses its KS tests.
SCIPY_FREE_DEMOS = ("closed_form_tour", "directional_vs_omni", "optimal_operating_point")

NO_SCIPY_SCRIPT = """
import json, runpy, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import sectorrelay
import sectorrelay.cli

out = sys.argv[1]
codes = [
    sectorrelay.cli.main(argv + ["--outdir", out])
    for argv in (
        ["fig2"],
        ["fig34"],
        ["fig5", "--simulate", "--trials", "200"],
        ["sweep", "--param", "r_m", "--values", "0:1.2:7", "--alpha", "2.5", "--beta-db", "-10"],
        ["optimize"],
        ["simulate", "--trials", "100"],
    )
]
for demo in sys.argv[2:]:
    runpy.run_path(demo, run_name="__main__")
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: no module imports it, even inside a
    # function, and every command and the scipy-free demos run with its
    # import blocked and every warning an error
    package = Path(sectorrelay.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (path, node.lineno)
    demos = Path(__file__).resolve().parents[1] / "demos"
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    done = subprocess.run(
        [
            sys.executable, "-W", "error", "-c", NO_SCIPY_SCRIPT, str(tmp_path),
            *(str(demos / f"{name}.py") for name in SCIPY_FREE_DEMOS),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0] * 6, "scipy": []}
    # with the relay angle integrated out, the full-circle row is as precise
    # as the rest: a drawn angle's cosine, whose sector mean is 0 there, gave
    # it an RSE of about 11
    _, rows = read_table(tmp_path / "fig5.csv")
    assert [row["status"] for row in rows] == ["ok"] * 12
    (full,) = [row for row in rows if float(row["phi"]) == pytest.approx(2 * math.pi)]
    for variant in ("directional", "omni"):
        assert float(full[f"sim_{variant}_std_error"]) <= 0.05 * float(full[f"sim_{variant}_mean"])


STARTUP_SCRIPT = """
import json, sys, tempfile
import sectorrelay.cli

pools = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    code = sectorrelay.cli.main(["fig34", "--phi-grid", "1.0", "--outdir", out])
print(json.dumps({"code": code, "pools": pools, "added": sorted(set(sys.modules) - before)}))
"""


def test_commands_import_nothing_after_startup():
    # a module a command imports lazily lands inside its run time; the
    # process pool's modules have no place in start-up at all
    src = Path(sectorrelay.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"code": 0, "pools": [], "added": []}
