"""Command-line front end: reproducible figure tables, sweeps, and runs.

Every subcommand resolves its parameters from built-in defaults, then an
optional config file (flat ``key = value`` or JSON), then explicit flags,
and writes CSV tables plus a JSON run manifest into the output directory
(--outdir, else $SECTORRELAY_OUTDIR, else the working directory).

The manifest records the exact parameter snapshot (linear-scale threshold,
so floats round-trip), the seed, every output file with its schema tag,
and the resolved settings; ``sectorrelay --from-manifest FILE`` replays a
recorded run and reproduces its CSV outputs byte for byte. Row failures
are annotated in a ``status`` column and turn the exit code to 3; usage
and parameter errors exit with 2.

CSV conventions: one ``# schema: ...`` comment line, then a header row,
then data rows with floats printed to 17 significant digits so that
parsing the table back recovers the exact binary values.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, optimize, simulate
from .errors import DomainError, ParameterError, VacuousBoundError
from .model import NetworkParams, ProtocolVariant, parse_config_mapping

SCHEMA_VERSION = 1
MANIFEST_VERSION = 1
OUTDIR_ENV = "SECTORRELAY_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ROW_ERRORS = 3

#: Fallback parameter values; a config file and flags override them.
PARAM_DEFAULTS = {
    "lambda": 1.0,
    "alpha": 3.0,
    "beta_db": 10.0,
    "mu": 1.0,
    "p": 0.12,
    "phi": math.pi / 2.0,
    "r_m": 0.0,
}

#: Beamwidth grids: multiples of pi/12 up to 2*pi for the bound and
#: optimum tables, a coarser 12-point grid for the variant comparison.
FINE_PHI_GRID = [float(x) for x in np.linspace(math.pi / 12.0, 2.0 * math.pi, 24)]
COARSE_PHI_GRID = [float(x) for x in np.linspace(math.pi / 6.0, 2.0 * math.pi, 12)]

SWEEPABLE_KEYS = ("lambda", "alpha", "beta_db", "beta", "mu", "p", "phi", "r_m")


# =====================================================================
# small helpers: formatting, CSV, grids, parallel rows
# =====================================================================

def _fmt(value) -> str:
    """Round-trip-safe cell formatting (17 significant digits)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, schema: str, header: tuple, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema} v{SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _grid_spec(text: str) -> list[float]:
    """Parse 'start:stop:count' (inclusive linspace) or 'v1,v2,...'."""
    s = text.strip()
    if not s:
        raise argparse.ArgumentTypeError("empty grid")
    try:
        if ":" in s:
            a, b, n = s.split(":")
            count = int(n)
            if count < 1:
                raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {count}")
            return [float(x) for x in np.linspace(float(a), float(b), count)]
        values = [float(tok) for tok in s.split(",") if tok.strip()]
    except argparse.ArgumentTypeError:
        raise
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    return values


def _map_ordered(fn, jobs, workers: int) -> list:
    """Apply fn to jobs, preserving job order, optionally across processes."""
    workers = simulate.worker_count(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _status_from_exc(exc: Exception) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _errors_in(rows) -> int:
    return sum(1 for row in rows if str(row[-1]).startswith("error"))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# =====================================================================
# parameter/settings resolution
# =====================================================================

def resolve_params(args, default_p: float | None = None) -> tuple[NetworkParams, list[str]]:
    """Layer defaults <- config file <- flags into a validated bundle.

    Returns the parameters and the list of explicit overrides as
    ``key=value`` strings for the manifest.
    """
    mapping: dict = dict(PARAM_DEFAULTS)
    if default_p is not None:
        mapping["p"] = default_p
    if getattr(args, "config", None):
        file_map = parse_config_mapping(Path(args.config).read_text())
        if "beta" in file_map:
            mapping.pop("beta_db", None)
        mapping.update(file_map)
    if args.beta_db is not None and args.beta_linear is not None:
        raise ParameterError(["both --beta-db and --beta-linear given; use one"])
    flag_map = {
        "lambda": args.lam,
        "alpha": args.alpha,
        "beta_db": args.beta_db,
        "beta": args.beta_linear,
        "mu": args.mu,
        "p": args.p,
        "phi": args.phi,
        "r_m": args.r_m,
    }
    overrides = []
    for key, value in flag_map.items():
        if value is None:
            continue
        if key == "beta":
            mapping.pop("beta_db", None)
        elif key == "beta_db":
            mapping.pop("beta", None)
        mapping[key] = value
        overrides.append(f"{key}={value!r}")  # repr: shortest exact form
    return NetworkParams.from_mapping(mapping), overrides


def _resolve_outdir(args) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    env = os.environ.get(OUTDIR_ENV)
    return Path(env) if env else Path(".")


# =====================================================================
# row workers (module-level so process pools can pickle them)
# =====================================================================

def _row_fig2(job) -> tuple:
    params, phi = job
    try:
        trial = dataclasses.replace(params, phi=phi)
        rm_num = optimize.optimize_rm(trial).rm_star
        status = "ok"
        try:
            printed = analytic.rm_upper_bound(trial, "standard")
        except VacuousBoundError:
            # no real root: the quadratic constrains nothing, bound = +inf
            printed = math.inf
            status = "ok (printed bound vacuous)"
        derived = analytic.rm_upper_bound(trial, "alternate")
        return (
            phi,
            rm_num,
            derived,
            printed,
            int(derived >= rm_num),
            int(printed >= rm_num),
            status,
        )
    except Exception as exc:
        return (phi, math.nan, math.nan, math.nan, 0, 0, _status_from_exc(exc))


def _row_fig34(job) -> tuple:
    params, phi = job
    try:
        trial = dataclasses.replace(params, phi=phi)
        joint = optimize.optimize_joint(trial)
        rm_closed = analytic.rm_from_p(trial, joint.p_star)
        return (
            phi,
            joint.p_star,
            joint.rm_star,
            rm_closed,
            int(joint.converged),
            "ok",
        )
    except Exception as exc:
        return (phi, math.nan, math.nan, math.nan, 0, _status_from_exc(exc))


def _row_fig5(job) -> tuple:
    params, phi, sim_settings = job
    try:
        trial = dataclasses.replace(params, phi=phi)
        best_dir = optimize.optimize_joint(trial, ProtocolVariant.DIRECTIONAL)
        best_omni = optimize.optimize_joint(trial, ProtocolVariant.OMNIDIRECTIONAL)
        row = [phi, best_dir.objective, best_omni.objective]
        if sim_settings is not None:
            for best, variant in (
                (best_dir, ProtocolVariant.DIRECTIONAL),
                (best_omni, ProtocolVariant.OMNIDIRECTIONAL),
            ):
                at_opt = dataclasses.replace(trial, p=best.p_star, r_m=best.rm_star)
                sim = simulate.SimConfig.for_params(
                    at_opt, sim_settings["trials"], sim_settings["seed"]
                )
                est = simulate.estimate_density_of_progress(
                    at_opt, sim, variant, workers=sim_settings["workers"]
                )
                row += [est.mean, est.std_error]
        return tuple(row + ["ok"])
    except Exception as exc:
        width = 3 + (4 if sim_settings is not None else 0)
        return (phi,) + (math.nan,) * (width - 1) + (_status_from_exc(exc),)


def _row_sweep(job) -> tuple:
    params, key, value, do_opt, scaling, variant_name = job
    try:
        mapping = params.to_exact_mapping()
        if key == "beta_db":
            mapping.pop("beta", None)
        mapping[key] = value
        trial = NetworkParams.from_mapping(mapping)
        variant = ProtocolVariant(variant_name)
        if do_opt:
            best = optimize.optimize_joint(trial, variant)
            row = [value, best.p_star, best.rm_star, best.objective]
            if scaling:
                row.append(best.objective / math.sqrt(trial.lam))
            return tuple(row + ["ok"])
        closed = analytic.expected_density_closed(trial, variant)
        numeric = analytic.expected_density_numeric(trial, variant)
        return (value, closed, numeric, "ok")
    except Exception as exc:
        width = (5 if scaling else 4) if do_opt else 3
        return (value,) + (math.nan,) * (width - 1) + (_status_from_exc(exc),)


# =====================================================================
# subcommand handlers
# =====================================================================

def run_fig2(params: NetworkParams, settings: dict, outdir: Path):
    grid = settings["phi_grid"]
    if not grid:
        raise ParameterError(["empty phi grid"])
    jobs = [(params, float(phi)) for phi in grid]
    rows = _map_ordered(_row_fig2, jobs, settings["workers"])
    header = (
        "phi",
        "rm_numerical",
        "rm_bound_derived",
        "rm_bound_printed",
        "derived_bound_holds",
        "printed_bound_holds",
        "status",
    )
    _write_csv(outdir / "fig2.csv", "sectorrelay.fig2", header, rows)
    outputs = [{"file": "fig2.csv", "schema": f"sectorrelay.fig2 v{SCHEMA_VERSION}"}]
    notes = [
        "bound columns: the printed variant (discriminant 4k^3 - 2kC^2) is the "
        "one that provably dominates the optimum; the derived variant "
        "(discriminant 4k^3 - kC^2) is reported for comparison and its "
        "violations are flagged in derived_bound_holds."
    ]
    return outputs, notes, _errors_in(rows)


def run_fig34(params: NetworkParams, settings: dict, outdir: Path):
    grid = settings["phi_grid"]
    if not grid:
        raise ParameterError(["empty phi grid"])
    jobs = [(params, float(phi)) for phi in grid]
    rows = _map_ordered(_row_fig34, jobs, settings["workers"])
    header = (
        "phi",
        "p_star",
        "rm_star_numeric",
        "rm_star_closed_form",
        "converged",
        "status",
    )
    _write_csv(outdir / "fig3_fig4.csv", "sectorrelay.fig3_fig4", header, rows)
    outputs = [
        {"file": "fig3_fig4.csv", "schema": f"sectorrelay.fig3_fig4 v{SCHEMA_VERSION}"}
    ]
    return outputs, [], _errors_in(rows)


def run_fig5(params: NetworkParams, settings: dict, outdir: Path):
    grid = settings["phi_grid"]
    if not grid:
        raise ParameterError(["empty phi grid"])
    simulate_rows = settings["simulate"]
    sim_settings = None
    jobs = []
    for i, phi in enumerate(grid):
        if simulate_rows:
            sim_settings = {
                "trials": settings["trials"],
                "seed": settings["seed"] + i,
                "workers": settings["workers"],
            }
        jobs.append((params, float(phi), sim_settings))
    # simulation rows parallelize inside the estimator instead
    rows = _map_ordered(_row_fig5, jobs, 1 if simulate_rows else settings["workers"])
    header = ["phi", "edp_directional_opt", "edp_omni_opt"]
    if simulate_rows:
        header += [
            "sim_directional_mean",
            "sim_directional_std_error",
            "sim_omni_mean",
            "sim_omni_std_error",
        ]
    header.append("status")
    _write_csv(outdir / "fig5.csv", "sectorrelay.fig5", tuple(header), rows)
    outputs = [{"file": "fig5.csv", "schema": f"sectorrelay.fig5 v{SCHEMA_VERSION}"}]
    notes = []
    if any(abs(phi - 2.0 * math.pi) < 1e-12 for phi in grid):
        notes.append(
            "phi=2*pi row: the sector spans the full circle, so the two variants "
            "share both the relay geometry and the interferer set; their columns "
            "coincide (and the average forward progress collapses to zero, up to "
            "the rounding of sin(phi/2))."
        )
    return outputs, notes, _errors_in(rows)


def run_sweep(params: NetworkParams, settings: dict, outdir: Path):
    values = settings["values"]
    if not values:
        raise ParameterError(["empty sweep grid"])
    key = settings["param"]
    if key not in SWEEPABLE_KEYS:
        raise ParameterError(
            [f"unknown sweep key: {key} (choose from {', '.join(SWEEPABLE_KEYS)})"]
        )
    do_opt = settings["optimize"] or settings["scaling"]
    jobs = [
        (params, key, float(v), do_opt, settings["scaling"], settings["variant"])
        for v in values
    ]
    rows = _map_ordered(_row_sweep, jobs, settings["workers"])
    if do_opt:
        header = [key, "p_star", "rm_star", "edp_opt"]
        if settings["scaling"]:
            header.append("edp_opt_over_sqrt_lambda")
    else:
        header = [key, "edp_closed", "edp_numeric"]
    header.append("status")
    _write_csv(outdir / "sweep.csv", "sectorrelay.sweep", tuple(header), rows)
    outputs = [{"file": "sweep.csv", "schema": f"sectorrelay.sweep v{SCHEMA_VERSION}"}]
    return outputs, [], _errors_in(rows)


def run_optimize(params: NetworkParams, settings: dict, outdir: Path):
    variant = ProtocolVariant(settings["variant"])
    try:
        if settings["mode"] == "rm":
            res = optimize.optimize_rm(params, variant)
            p_star = params.p
        else:
            res = optimize.optimize_joint(params, variant)
            p_star = res.p_star
        row = (
            settings["mode"],
            p_star,
            res.rm_star,
            res.objective,
            math.nan if res.residual_rm is None else res.residual_rm,
            math.nan if res.residual_p is None else res.residual_p,
            res.iterations,
            int(res.converged),
            "ok",
        )
    except Exception as exc:
        row = (settings["mode"],) + (math.nan,) * 6 + (0, _status_from_exc(exc))
    header = (
        "mode",
        "p_star",
        "rm_star",
        "edp",
        "residual_rm",
        "residual_p",
        "iterations",
        "converged",
        "status",
    )
    _write_csv(outdir / "optimize.csv", "sectorrelay.optimize", header, [row])
    outputs = [
        {"file": "optimize.csv", "schema": f"sectorrelay.optimize v{SCHEMA_VERSION}"}
    ]
    return outputs, [], _errors_in([row])


def run_simulate(params: NetworkParams, settings: dict, outdir: Path):
    variant = ProtocolVariant(settings["variant"])
    sim = simulate.SimConfig.for_params(
        params,
        settings["trials"],
        settings["seed"],
        window_radius=settings["window_radius"],
        guard_radius=settings["guard_radius"],
    )
    simulate.validate_for_estimation(params, sim)
    samples = simulate.collect_trials(params, sim, variant, settings["workers"])
    est = simulate.summarize_trials(samples, params)
    closed = analytic.expected_density_closed(params, variant)
    z = (est.mean - closed) / est.std_error if est.std_error > 0 else math.nan
    header = (
        "mean",
        "std_error",
        "ci95_low",
        "ci95_high",
        "trials_used",
        "relay_found_fraction",
        "edp_closed",
        "z_score",
        "status",
    )
    row = (
        est.mean,
        est.std_error,
        est.mean - 1.96 * est.std_error,
        est.mean + 1.96 * est.std_error,
        est.trials_used,
        est.relay_found_fraction,
        closed,
        z,
        "ok",
    )
    _write_csv(outdir / "simulate.csv", "sectorrelay.simulate", header, [row])
    outputs = [
        {"file": "simulate.csv", "schema": f"sectorrelay.simulate v{SCHEMA_VERSION}"}
    ]
    if settings["emit_trials"]:
        trial_rows = [
            (s.trial, int(s.relay_found), s.d, s.cos_offset, s.sir, int(s.success), s.progress)
            for s in samples
        ]
        _write_csv(
            outdir / "simulate_trials.csv",
            "sectorrelay.simulate_trials",
            simulate.TRIAL_COLUMNS,
            trial_rows,
        )
        outputs.append(
            {
                "file": "simulate_trials.csv",
                "schema": f"sectorrelay.simulate_trials v{SCHEMA_VERSION}",
            }
        )
    return outputs, [], 0


HANDLERS = {
    "fig2": run_fig2,
    "fig34": run_fig34,
    "fig5": run_fig5,
    "sweep": run_sweep,
    "optimize": run_optimize,
    "simulate": run_simulate,
}


# =====================================================================
# manifest plumbing
# =====================================================================

def write_manifest(
    outdir: Path,
    command: str,
    params: NetworkParams,
    overrides: list[str],
    settings: dict,
    started: str,
    finished: str,
    outputs: list[dict],
    notes: list[str],
) -> Path:
    doc = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "params": params.to_exact_mapping(),
        "overrides": overrides,
        "seed": settings.get("seed", 0),
        "started": started,
        "finished": finished,
        "outdir": str(outdir.resolve()),
        "outputs": outputs,
        "settings": settings,
        "notes": notes,
    }
    path = outdir / f"{command}_manifest.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _execute(
    command: str,
    params: NetworkParams,
    settings: dict,
    outdir: Path,
    overrides: list[str],
) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    started = _now()
    outputs, notes, error_rows = HANDLERS[command](params, settings, outdir)
    finished = _now()
    manifest = write_manifest(
        outdir, command, params, overrides, settings, started, finished, outputs, notes
    )
    written = ", ".join(o["file"] for o in outputs)
    print(f"{command}: wrote {written} and {manifest.name} in {outdir}")
    for note in notes:
        print(f"note: {note}")
    if error_rows:
        print(f"{command}: {error_rows} row(s) failed; see the status column", file=sys.stderr)
        return EXIT_ROW_ERRORS
    return EXIT_OK


def rerun_from_manifest(path: Path, outdir_flag: str | None) -> int:
    doc = json.loads(path.read_text())
    command = doc["command"]
    if command not in HANDLERS:
        raise ParameterError([f"manifest names unknown command: {command}"])
    params = NetworkParams.from_exact_mapping(doc["params"])
    outdir = Path(outdir_flag) if outdir_flag else Path(doc["outdir"])
    return _execute(command, params, doc["settings"], outdir, doc.get("overrides", []))


# =====================================================================
# argument parsing
# =====================================================================

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sectorrelay",
        description=(
            "Analytic tables, parameter sweeps and Monte-Carlo runs for "
            "sector-based relay selection under slotted ALOHA."
        ),
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top.add_argument(
        "--from-manifest",
        metavar="PATH",
        help="replay a recorded run; outputs are reproduced byte-for-byte "
        "(combine with --outdir to redirect them)",
    )
    top.add_argument(
        "--outdir",
        default=None,
        help="output directory when replaying a manifest (subcommands take "
        "their own --outdir)",
    )

    params_parent = argparse.ArgumentParser(add_help=False)
    grp = params_parent.add_argument_group("network parameters")
    grp.add_argument("--config", metavar="PATH", help="key=value or JSON parameter file")
    grp.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="node density (default 1)")
    grp.add_argument("--alpha", type=float, default=None,
                     help="path-loss exponent, must exceed 2 (default 3)")
    grp.add_argument("--beta-db", type=float, default=None,
                     help="SIR threshold in dB (default 10)")
    grp.add_argument("--beta-linear", type=float, default=None,
                     help="SIR threshold on the linear scale (alternative to --beta-db)")
    grp.add_argument("--mu", type=float, default=None,
                     help="fading rate; mean received power 1/mu (default 1)")
    grp.add_argument("--p", type=float, default=None,
                     help="transmission probability (default 0.12; fig2 uses 0.1)")
    grp.add_argument("--phi", type=float, default=None,
                     help="beamwidth in radians (default pi/2)")
    grp.add_argument("--r-m", dest="r_m", type=float, default=None,
                     help="reference distance (default 0)")

    run_parent = argparse.ArgumentParser(add_help=False)
    rg = run_parent.add_argument_group("run control")
    rg.add_argument("--outdir", default=None, help="output directory "
                    f"(default ${OUTDIR_ENV} or the working directory)")
    rg.add_argument("--seed", type=int, default=0, help="64-bit run seed (default 0)")
    rg.add_argument("--workers", type=int, default=1,
                    help="process count; results are identical for any value")

    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    fig2 = sub.add_parser(
        "fig2", parents=[params_parent, run_parent],
        help="optimal reference distance vs beamwidth at fixed p, with both "
        "analytic upper-bound variants",
    )
    fig2.add_argument("--phi-grid", type=_grid_spec, default=None,
                      help="beamwidth grid 'start:stop:count' or comma list "
                      "(default 24 points, pi/12 .. 2*pi)")

    fig34 = sub.add_parser(
        "fig34", parents=[params_parent, run_parent],
        help="jointly optimal transmission probability and reference distance "
        "vs beamwidth",
    )
    fig34.add_argument("--phi-grid", type=_grid_spec, default=None,
                       help="beamwidth grid (default 24 points, pi/12 .. 2*pi)")

    fig5 = sub.add_parser(
        "fig5", parents=[params_parent, run_parent],
        help="optimized progress density: directional vs omnidirectional",
    )
    fig5.add_argument("--phi-grid", type=_grid_spec, default=None,
                      help="beamwidth grid (default 12 points, pi/6 .. 2*pi)")
    fig5.add_argument("--simulate", action="store_true",
                      help="add Monte-Carlo columns at each optimized point")
    fig5.add_argument("--trials", type=int, default=2000,
                      help="trials per simulated point (default 2000)")

    sweep = sub.add_parser(
        "sweep", parents=[params_parent, run_parent],
        help="tabulate the progress density (or its optimum) over one parameter",
    )
    sweep.add_argument("--param", required=True, choices=SWEEPABLE_KEYS,
                       help="which parameter the grid varies")
    sweep.add_argument("--values", required=True, type=_grid_spec,
                       help="grid 'start:stop:count' or comma list")
    sweep.add_argument("--optimize", action="store_true",
                       help="jointly optimize (p, r_m) at every grid point")
    sweep.add_argument("--scaling", action="store_true",
                       help="scaling study: optimize and emit edp/sqrt(lambda)")
    sweep.add_argument("--variant", choices=[v.value for v in ProtocolVariant],
                       default=ProtocolVariant.DIRECTIONAL.value)

    opt = sub.add_parser(
        "optimize", parents=[params_parent, run_parent],
        help="optimize the progress density at the given parameters",
    )
    opt.add_argument("--mode", choices=("joint", "rm"), default="joint",
                     help="joint (p, r_m) search or r_m-only at fixed p")
    opt.add_argument("--variant", choices=[v.value for v in ProtocolVariant],
                     default=ProtocolVariant.DIRECTIONAL.value)

    simcmd = sub.add_parser(
        "simulate", parents=[params_parent, run_parent],
        help="Monte-Carlo estimate of the progress density",
    )
    simcmd.add_argument("--trials", type=int, default=20000,
                        help="number of network draws (default 20000)")
    simcmd.add_argument("--window-radius", type=float, default=None,
                        help="relay-search radius (default 15/sqrt(lambda))")
    simcmd.add_argument("--guard-radius", type=float, default=None,
                        help="explicit near-field radius around the relay "
                        "(default 40/sqrt(lambda))")
    simcmd.add_argument("--variant", choices=[v.value for v in ProtocolVariant],
                        default=ProtocolVariant.DIRECTIONAL.value)
    simcmd.add_argument("--emit-trials", action="store_true",
                        help="also write the per-trial sample table")
    return top


def _settings_from_args(args) -> dict:
    """Collect the command-specific, JSON-serializable settings."""
    command = args.command
    base = {"seed": args.seed, "workers": args.workers}
    if command in ("fig2", "fig34"):
        grid = args.phi_grid if args.phi_grid is not None else FINE_PHI_GRID
        return {**base, "phi_grid": list(grid)}
    if command == "fig5":
        grid = args.phi_grid if args.phi_grid is not None else COARSE_PHI_GRID
        return {
            **base,
            "phi_grid": list(grid),
            "simulate": bool(args.simulate),
            "trials": args.trials,
        }
    if command == "sweep":
        return {
            **base,
            "param": args.param,
            "values": list(args.values),
            "optimize": bool(args.optimize),
            "scaling": bool(args.scaling),
            "variant": args.variant,
        }
    if command == "optimize":
        return {**base, "mode": args.mode, "variant": args.variant}
    if command == "simulate":
        return {
            **base,
            "trials": args.trials,
            "window_radius": args.window_radius,
            "guard_radius": args.guard_radius,
            "variant": args.variant,
            "emit_trials": bool(args.emit_trials),
        }
    raise ParameterError([f"unknown command: {command}"])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.from_manifest:
            if args.command:
                parser.error("give a subcommand or --from-manifest, not both")
            return rerun_from_manifest(Path(args.from_manifest), args.outdir)
        if not args.command:
            parser.error("a subcommand or --from-manifest is required")
        params, overrides = resolve_params(
            args, default_p=0.1 if args.command == "fig2" else None
        )
        settings = _settings_from_args(args)
        return _execute(
            args.command, params, settings, _resolve_outdir(args), overrides
        )
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
