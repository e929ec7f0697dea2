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
import locale  # noqa: F401  (argparse's gettext imports it in parse_args; load it with the module)
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, optimize, simulate
from .errors import DomainError, ParameterError, VacuousBoundError
from .model import PARAM_KEYS, NetworkParams, ProtocolVariant, parse_config_mapping

SCHEMA_VERSION = 1
#: Schema version of simulate.csv.
SIMULATE_SCHEMA_VERSION = 2
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

#: Largest relative gap between a sweep row's closed form and its
#: quadrature twin that still counts as agreement.
TWIN_RTOL = 1e-7


# =====================================================================
# small helpers: formatting, CSV, grids, guarded rows
# =====================================================================

def _fmt(value) -> str:
    """Round-trip-safe cell formatting (17 significant digits)."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _write_csv(outdir: Path, name: str, header, rows, version: int = SCHEMA_VERSION) -> dict:
    """Write ``<name>.csv`` under its schema line; return its manifest entry.

    The output directory is created here, once the handler has validated
    its settings, so a rejected run leaves no directory behind.
    """
    schema = f"sectorrelay.{name} v{version}"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"{name}.csv", "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return {"file": f"{name}.csv", "schema": schema}


def _grid_spec(text: str) -> list[float]:
    """Parse 'start:stop:count' (inclusive linspace) or 'v1,v2,...'."""
    s = text.strip()
    try:
        if ":" not in s:
            values = [float(tok) for tok in s.split(",") if tok.strip()]
            if not values:
                raise argparse.ArgumentTypeError("empty grid")
            return values
        a, b, n = s.split(":")
        start, stop, count = float(a), float(b), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {count}")
    return [float(x) for x in np.linspace(start, stop, count)]


def _error_status(exc: Exception) -> str:
    """The status cell of a row that failed with exc."""
    return f"error: {type(exc).__name__}: {exc}"


def _row_or_error(header, row, key, *args) -> tuple:
    """row(key, *args), or the failed row: the key, nan up to the table
    width and an error status."""
    try:
        return row(key, *args)
    except Exception as exc:
        return (key,) + (math.nan,) * (len(header) - 2) + (_error_status(exc),)


def _certified_status(*results) -> str:
    """A row's status: "ok" only when every optimum in it is certified."""
    if all(res.converged for res in results):
        return "ok"
    return "error: OptimizationError: optimum not certified (the root search did not converge)"


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
        file_map = parse_config_mapping(Path(args.config).read_text(encoding="utf-8"))
        mapping = _overlay(mapping, file_map)
    given = vars(args)
    flags = {key: given[key] for key in PARAM_KEYS if given[key] is not None}
    overrides = [f"{k}={v!r}" for k, v in flags.items()]  # repr: shortest exact form
    return NetworkParams.from_mapping(_overlay(mapping, flags)), overrides


def _overlay(mapping: dict, layer: dict) -> dict:
    """mapping with layer on top; a layer that sets beta or beta_db replaces
    both, so the threshold comes from one form only."""
    if "beta" in layer or "beta_db" in layer:
        mapping = {k: v for k, v in mapping.items() if k not in ("beta", "beta_db")}
    return {**mapping, **layer}


def _resolve_outdir(args) -> Path:
    if args.outdir:
        return Path(args.outdir)
    env = os.environ.get(OUTDIR_ENV)
    return Path(env) if env else Path(".")


# =====================================================================
# table rows: each returns one row for its key or raises
# =====================================================================

def _row_fig2(phi: float, params: NetworkParams) -> tuple:
    trial = dataclasses.replace(params, phi=phi)
    best = optimize.optimize_rm(trial)
    rm_num = best.rm_star
    status = _certified_status(best)
    try:
        printed = analytic.rm_upper_bound(trial, "standard")
    except VacuousBoundError:
        # no real root: the quadratic constrains nothing, bound = +inf
        printed = math.inf
        status += " (printed bound vacuous)"
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


def _row_fig34(phi: float, params: NetworkParams) -> tuple:
    trial = dataclasses.replace(params, phi=phi)
    joint = optimize.optimize_joint(trial)
    status = _certified_status(joint)
    try:
        rm_closed = analytic.rm_from_p(trial, joint.p_star)
    except DomainError as exc:
        # the closed form holds only for t > pi and p < 1/2; the optimum stands
        rm_closed = math.nan
        status += f" (closed-form r_m undefined: {exc})"
    return (phi, joint.p_star, joint.rm_star, rm_closed, int(joint.converged), status)


def _row_fig5(phi: float, params: NetworkParams, settings: dict, seed: int) -> tuple:
    trial = dataclasses.replace(params, phi=phi)
    best_dir = optimize.optimize_joint(trial, ProtocolVariant.DIRECTIONAL)
    best_omni = optimize.optimize_joint(trial, ProtocolVariant.OMNIDIRECTIONAL)
    row = [phi, best_dir.objective, best_omni.objective]
    if settings["simulate"]:
        for best, variant in (
            (best_dir, ProtocolVariant.DIRECTIONAL),
            (best_omni, ProtocolVariant.OMNIDIRECTIONAL),
        ):
            at_opt = dataclasses.replace(trial, p=best.p_star, r_m=best.rm_star)
            sim = simulate.SimConfig.for_params(at_opt, settings["trials"], seed)
            est = simulate.estimate_density_of_progress(at_opt, sim, variant)
            row += [est.mean, est.std_error]
    return tuple(row + [_certified_status(best_dir, best_omni)])


def _row_sweep(value: float, params: NetworkParams, settings: dict) -> tuple:
    key = settings["param"]
    trial = NetworkParams.from_mapping(_overlay(params.to_exact_mapping(), {key: value}))
    variant = ProtocolVariant(settings["variant"])
    if settings["optimize"] or settings["scaling"]:
        best = optimize.optimize_joint(trial, variant)
        row = [value, best.p_star, best.rm_star, best.objective]
        if settings["scaling"]:
            row.append(best.objective / math.sqrt(trial.lam))
        return tuple(row + [_certified_status(best)])
    closed = analytic.expected_density_closed(trial, variant)
    numeric = analytic.expected_density_numeric(trial, variant)
    if not abs(closed - numeric) <= TWIN_RTOL * abs(closed):
        gap = abs(closed - numeric) / abs(closed) if closed else math.inf
        return (
            value, closed, numeric,
            f"error: closed form and quadrature differ by {gap:.3g} relative "
            f"(more than {TWIN_RTOL:g})",
        )
    return (value, closed, numeric, "ok")


def _row_optimize(mode: str, params: NetworkParams, settings: dict) -> tuple:
    variant = ProtocolVariant(settings["variant"])
    if mode == "rm":
        res = optimize.optimize_rm(params, variant)
        p_star = params.p
    else:
        res = optimize.optimize_joint(params, variant)
        p_star = res.p_star
    return (
        mode,
        p_star,
        res.rm_star,
        res.objective,
        res.residual_rm,
        res.residual_p,
        res.iterations,
        int(res.converged),
        _certified_status(res),
    )


# =====================================================================
# subcommand handlers
# =====================================================================

def run_fig2(params: NetworkParams, settings: dict, outdir: Path):
    header = (
        "phi",
        "rm_numerical",
        "rm_bound_derived",
        "rm_bound_printed",
        "derived_bound_holds",
        "printed_bound_holds",
        "status",
    )
    rows = [
        _row_or_error(header, _row_fig2, float(phi), params) for phi in settings["phi_grid"]
    ]
    notes = [
        "bound columns: the printed variant (discriminant 4k^3 - 2kC^2) is the "
        "one that provably dominates the optimum; the derived variant "
        "(discriminant 4k^3 - kC^2) is reported for comparison and its "
        "violations are flagged in derived_bound_holds."
    ]
    return [_write_csv(outdir, "fig2", header, rows)], notes, _errors_in(rows)


def run_fig34(params: NetworkParams, settings: dict, outdir: Path):
    header = (
        "phi",
        "p_star",
        "rm_star_numeric",
        "rm_star_closed_form",
        "converged",
        "status",
    )
    rows = [
        _row_or_error(header, _row_fig34, float(phi), params) for phi in settings["phi_grid"]
    ]
    return [_write_csv(outdir, "fig3_fig4", header, rows)], [], _errors_in(rows)


def run_fig5(params: NetworkParams, settings: dict, outdir: Path):
    grid = settings["phi_grid"]
    header = ["phi", "edp_directional_opt", "edp_omni_opt"]
    if settings["simulate"]:
        # row i simulates under seed + i: check the first and last run
        # settings here, so that a bad --trials or --seed is a usage error
        # rather than a table of failed rows
        for seed in (settings["seed"], settings["seed"] + len(grid) - 1):
            sim = simulate.SimConfig.for_params(params, settings["trials"], seed)
            simulate.validate_for_estimation(params, sim)
        header += [
            "sim_directional_mean",
            "sim_directional_std_error",
            "sim_omni_mean",
            "sim_omni_std_error",
        ]
    header.append("status")
    rows = [
        _row_or_error(header, _row_fig5, float(phi), params, settings, seed)
        for seed, phi in enumerate(grid, settings["seed"])
    ]
    notes = []
    if any(abs(phi - 2.0 * math.pi) < 1e-12 for phi in grid):
        notes.append(
            "phi=2*pi row: the sector spans the full circle, so the two variants "
            "share both the relay geometry and the interferer set; their columns "
            "coincide (and the average forward progress collapses to zero, up to "
            "the rounding of sin(phi/2))."
        )
    return [_write_csv(outdir, "fig5", header, rows)], notes, _errors_in(rows)


def run_sweep(params: NetworkParams, settings: dict, outdir: Path):
    key = settings["param"]
    if settings["optimize"] or settings["scaling"]:
        header = [key, "p_star", "rm_star", "edp_opt"]
        if settings["scaling"]:
            header.append("edp_opt_over_sqrt_lambda")
    else:
        header = [key, "edp_closed", "edp_numeric"]
    header.append("status")
    rows = [
        _row_or_error(header, _row_sweep, float(v), params, settings) for v in settings["values"]
    ]
    return [_write_csv(outdir, "sweep", header, rows)], [], _errors_in(rows)


def run_optimize(params: NetworkParams, settings: dict, outdir: Path):
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
    rows = [_row_or_error(header, _row_optimize, settings["mode"], params, settings)]
    return [_write_csv(outdir, "optimize", header, rows)], [], _errors_in(rows)


def run_simulate(params: NetworkParams, settings: dict, outdir: Path):
    variant = ProtocolVariant(settings["variant"])
    sim = simulate.SimConfig.for_params(
        params, settings["trials"], settings["seed"], guard_radius=settings["guard_radius"]
    )
    simulate.validate_for_estimation(params, sim)
    header = (
        "mean",
        "std_error",
        "ci95_low",
        "ci95_high",
        "trials_used",
        "edp_closed",
        "z_score",
        "status",
    )
    try:
        trials = simulate.collect_trials(params, sim, variant)
        est = simulate.summarize_trials(trials.weight * trials.progress, params)
        closed = analytic.expected_density_closed(params, variant)
    except Exception as exc:
        # a run the model admits but the kernel cannot carry out: an error
        # row, and no per-trial table
        row = (math.nan,) * (len(header) - 1) + (_error_status(exc),)
        return [_write_csv(outdir, "simulate", header, [row], SIMULATE_SCHEMA_VERSION)], [], 1
    z = (est.mean - closed) / est.std_error
    row = (
        est.mean,
        est.std_error,
        est.mean - 1.96 * est.std_error,
        est.mean + 1.96 * est.std_error,
        est.trials_used,
        closed,
        z,
        "ok",
    )
    outputs = [_write_csv(outdir, "simulate", header, [row], SIMULATE_SCHEMA_VERSION)]
    if settings["emit_trials"]:
        # .tolist(): _fmt formats Python floats faster than numpy scalars
        trial_rows = zip(range(est.trials_used), *(column.tolist() for column in trials))
        outputs.append(
            _write_csv(
                outdir, "simulate_trials", simulate.TRIAL_COLUMNS, trial_rows,
                simulate.TRIAL_SCHEMA_VERSION,
            )
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

def _execute(
    command: str,
    params: NetworkParams,
    settings: dict,
    outdir: Path,
    overrides: list[str],
) -> int:
    started = _now()
    outputs, notes, error_rows = HANDLERS[command](params, settings, outdir)
    doc = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "params": params.to_exact_mapping(),
        "overrides": overrides,
        "seed": settings.get("seed", 0),
        "started": started,
        "finished": _now(),
        "outdir": str(outdir.resolve()),
        "outputs": outputs,
        "settings": settings,
        "notes": notes,
    }
    manifest = outdir / f"{command}_manifest.json"
    manifest.write_text(json.dumps(doc, indent=2) + "\n")
    written = ", ".join(o["file"] for o in outputs)
    print(f"{command}: wrote {written} and {manifest.name} in {outdir}")
    for note in notes:
        print(f"note: {note}")
    if error_rows:
        print(f"{command}: {error_rows} row(s) failed; see the status column", file=sys.stderr)
        return EXIT_ROW_ERRORS
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fits_option(action: argparse.Action, value) -> bool:
    """Whether ``value`` is one the option behind ``action`` can produce."""
    if action.choices is not None:
        return value in action.choices
    if action.type is None:  # a store_true flag
        return isinstance(value, bool)
    if action.type is _grid_spec:
        return isinstance(value, list) and bool(value) and all(map(_is_number, value))
    if value is None:
        return action.default is None
    return _is_number(value) and (action.type is float or isinstance(value, int))


def _check_settings(options: dict, settings: dict, path: Path) -> None:
    """Reject replayed settings the command's own flags could not produce:
    every one of its setting options needs a key, each value must fit its
    option's type, and no other key may appear."""
    problems = [
        f"manifest {path}: unknown settings key: {key}" for key in settings if key not in options
    ]
    for key, action in options.items():
        if key not in settings:
            problems.append(f"manifest {path}: settings lack key: {key}")
        elif not _fits_option(action, settings[key]):
            problems.append(f"manifest {path}: bad settings value {key}={settings[key]!r}")
    if problems:
        raise ParameterError(problems)


def rerun_from_manifest(path: Path, outdir_flag: str | None) -> int:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ParameterError([f"manifest {path} is not a JSON object"])
    missing = [key for key in ("command", "params", "settings") if key not in doc]
    if missing:
        raise ParameterError([f"manifest {path} lacks key: {key}" for key in missing])
    command = doc["command"]
    if not isinstance(command, str) or command not in HANDLERS:
        raise ParameterError([f"manifest names unknown command: {command}"])
    for key in ("params", "settings"):
        if not isinstance(doc[key], dict):
            raise ParameterError([f"manifest {path}: {key} is not a JSON object"])
    params = NetworkParams.from_mapping(doc["params"])
    _check_settings(_setting_options(_command_parser(command)), doc["settings"], path)
    if not (outdir_flag or "outdir" in doc):
        raise ParameterError([f"manifest {path} lacks key: outdir (or pass --outdir)"])
    outdir = Path(outdir_flag or doc["outdir"])
    return _execute(command, params, doc["settings"], outdir, doc.get("overrides", []))


# =====================================================================
# argument parsing
# =====================================================================

def _add_shared_options(parser: argparse.ArgumentParser) -> None:
    """Add the option groups every command takes: network parameters and run
    control."""
    grp = parser.add_argument_group("network parameters")
    grp.add_argument("--config", metavar="PATH", help="key=value or JSON parameter file")
    grp.add_argument("--lambda", dest="lambda", type=float, default=None,
                     help="node density (default 1)")
    grp.add_argument("--alpha", type=float, default=None,
                     help="path-loss exponent, must exceed 2 (default 3)")
    grp.add_argument("--beta-db", type=float, default=None,
                     help="SIR threshold in dB (default 10)")
    grp.add_argument("--beta-linear", dest="beta", type=float, default=None,
                     help="SIR threshold on the linear scale (alternative to --beta-db)")
    grp.add_argument("--mu", type=float, default=None,
                     help="fading rate; mean received power 1/mu (default 1)")
    grp.add_argument("--p", type=float, default=None,
                     help="transmission probability (default 0.12; fig2 uses 0.1)")
    grp.add_argument("--phi", type=float, default=None,
                     help="beamwidth in radians (default pi/2)")
    grp.add_argument("--r-m", dest="r_m", type=float, default=None,
                     help="reference distance (default 0)")

    rg = parser.add_argument_group("run control")
    rg.add_argument("--outdir", default=None, help="output directory "
                    f"(default ${OUTDIR_ENV} or the working directory)")
    rg.add_argument("--seed", type=int, default=0, help="64-bit run seed (default 0)")
    rg.add_argument("--workers", type=int, default=1,
                    help="accepted and ignored: trials run in one process")


def _fine_phi_grid_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phi-grid", type=_grid_spec, default=FINE_PHI_GRID,
                        help="beamwidth grid 'start:stop:count' or comma list "
                        "(default 24 points, pi/12 .. 2*pi)")


def _variant_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=[v.value for v in ProtocolVariant],
                        default=ProtocolVariant.DIRECTIONAL.value)


def _fig5_options(fig5: argparse.ArgumentParser) -> None:
    fig5.add_argument("--phi-grid", type=_grid_spec, default=COARSE_PHI_GRID,
                      help="beamwidth grid (default 12 points, pi/6 .. 2*pi)")
    fig5.add_argument("--simulate", action="store_true",
                      help="add Monte-Carlo columns at each optimized point")
    fig5.add_argument("--trials", type=int, default=2000,
                      help="trials per simulated point (default 2000)")


def _sweep_options(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--param", required=True, choices=PARAM_KEYS,
                       help="which parameter the grid varies")
    sweep.add_argument("--values", required=True, type=_grid_spec,
                       help="grid 'start:stop:count' or comma list")
    sweep.add_argument("--optimize", action="store_true",
                       help="jointly optimize (p, r_m) at every grid point")
    sweep.add_argument("--scaling", action="store_true",
                       help="scaling study: optimize and emit edp/sqrt(lambda)")
    _variant_option(sweep)


def _optimize_options(opt: argparse.ArgumentParser) -> None:
    opt.add_argument("--mode", choices=("joint", "rm"), default="joint",
                     help="joint (p, r_m) search or r_m-only at fixed p")
    _variant_option(opt)


def _simulate_options(simcmd: argparse.ArgumentParser) -> None:
    simcmd.add_argument("--trials", type=int, default=20000,
                        help="number of network draws (default 20000)")
    simcmd.add_argument("--guard-radius", type=float, default=None,
                        help="explicit near-field radius around the relay "
                        "(default 40/sqrt(lambda))")
    _variant_option(simcmd)
    simcmd.add_argument("--emit-trials", action="store_true",
                        help="also write the per-trial sample table")


#: Each command's one-line help and the function that adds its own options.
COMMANDS = {
    "fig2": (
        "optimal reference distance vs beamwidth at fixed p, with both "
        "analytic upper-bound variants",
        _fine_phi_grid_option,
    ),
    "fig34": (
        "jointly optimal transmission probability and reference distance "
        "vs beamwidth",
        _fine_phi_grid_option,
    ),
    "fig5": ("optimized progress density: directional vs omnidirectional", _fig5_options),
    "sweep": (
        "tabulate the progress density (or its optimum) over one parameter",
        _sweep_options,
    ),
    "optimize": ("optimize the progress density at the given parameters", _optimize_options),
    "simulate": ("Monte-Carlo estimate of the progress density", _simulate_options),
}


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command: the shared option groups, then its own."""
    parser = argparse.ArgumentParser(prog=f"sectorrelay {name}")
    _add_shared_options(parser)
    COMMANDS[name][1](parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, for --help, --version and --from-manifest. Its
    commands are placeholders that name them in the help; a run parses its
    command with _command_parser."""
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
        dest="replay_outdir",
        metavar="OUTDIR",
        default=None,
        help="output directory when replaying a manifest (subcommands take "
        "their own --outdir)",
    )
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help, _) in COMMANDS.items():
        sub.add_parser(name, help=help, add_help=False)
    return top


def _setting_options(parser: argparse.ArgumentParser) -> dict:
    """A command's settings, by key: the options of its parser, less the
    network parameters and --config (the manifest records the parameters
    apart), --outdir and --help."""
    skip = (*PARAM_KEYS, "config", "help", "outdir")
    return {a.dest: a for a in parser._actions if a.dest not in skip}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in COMMANDS:
            command = argv[0]
            parser = _command_parser(command)
            args = parser.parse_args(argv[1:])
            params, overrides = resolve_params(
                args, default_p=0.1 if command == "fig2" else None
            )
            settings = {key: getattr(args, key) for key in _setting_options(parser)}
            return _execute(command, params, settings, _resolve_outdir(args), overrides)
        top = build_parser()
        args, rest = top.parse_known_args(argv)
        # a command reaches its placeholder only after a top-level option
        if args.command and args.from_manifest:
            top.error("give a subcommand or --from-manifest, not both")
        if args.command:
            top.error("--outdir goes after the command: sectorrelay COMMAND --outdir PATH")
        if rest:
            top.error(f"unrecognized arguments: {' '.join(rest)}")
        if not args.from_manifest:
            top.error("a subcommand or --from-manifest is required")
        return rerun_from_manifest(Path(args.from_manifest), args.replay_outdir)
    except (ParameterError, DomainError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
