"""Output checks for the benchmark's CSV tables.

Each check takes a table's data rows (dicts of strings) and returns one
entry per row: None when the row passes, else the reason it fails. A
failing row counts toward the workload's failed rows; it never stops the
run. Values are compared with tolerances, not bytes, because a faster
optimizer may move optimum coordinates at the 1e-10 level.

The checks evaluate the package's own ``expected_density_closed``, so
the caller imports ``sectorrelay`` from the checkout before using them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import statistics
from pathlib import Path

import numpy as np
from sectorrelay import NetworkParams, ProtocolVariant, expected_density_closed

#: The paper's operating point, which the figure commands use by default.
BASE = {"lambda": 1.0, "alpha": 3.0, "beta_db": 10.0, "mu": 1.0, "p": 0.12, "phi": math.pi / 2}

#: fig2 optimizes r_m at this fixed transmission probability.
FIG2_P = 0.1

#: Share by which the reference grid may beat a reported optimum.
REF_TOL = 1e-6
#: Relative spread allowed in fig34's directional p* column.
P_CONST_TOL = 1e-7
#: Share by which the omnidirectional optimum may exceed the directional one.
DOMINANCE_TOL = 1e-9
#: Largest |z| of a simulated point against its closed-form column.
Z_MAX = 4.0
#: Relative gap allowed between the closed form and its quadrature twin.
QUAD_TOL = 1e-8

#: Log-spaced reference grid over (p, r_m), plus r_m = 0. Each further
#: level spans the cells next to the best point with ZOOM_POINTS points.
P_GRID = np.geomspace(1e-4, 1.0 - 1e-4, 48)
RM_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 48)))
ZOOM_LEVELS = 3
ZOOM_POINTS = 17

DIRECTIONAL = ProtocolVariant.DIRECTIONAL
OMNI = ProtocolVariant.OMNIDIRECTIONAL


def read_table(path: Path) -> tuple[list[str], list[dict]]:
    """Header and data rows of a CSV written by the CLI (schema line skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader.fieldnames or []), list(reader)


def params_for(**overrides) -> NetworkParams:
    """The base operating point with some keys replaced (``beta_db`` in dB)."""
    return NetworkParams.from_mapping({**BASE, **overrides})


def _zoom(grid: np.ndarray, i: int) -> np.ndarray:
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if lo == hi:
        return grid[i : i + 1]
    return np.geomspace(lo, hi, ZOOM_POINTS) if lo > 0 else np.linspace(lo, hi, ZOOM_POINTS)


@functools.lru_cache(maxsize=None)
def reference_best(params: NetworkParams, variant: ProtocolVariant, fixed_p: bool) -> float:
    """Largest closed-form value on the nested reference grids.

    With ``fixed_p`` only r_m varies; otherwise the grids span (p, r_m).
    """
    ps = np.array([params.p]) if fixed_p else P_GRID
    rs = RM_GRID
    best = -math.inf
    for _ in range(ZOOM_LEVELS):
        values = np.array([
            [expected_density_closed(dataclasses.replace(params, p=float(p), r_m=float(r)),
                                     variant) for r in rs]
            for p in ps
        ])
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        best = max(best, float(values[i, j]))
        ps, rs = _zoom(ps, i), _zoom(rs, j)
    return best


def _beaten(reported: float, params: NetworkParams, variant, fixed_p: bool = False):
    best = reference_best(params, variant, fixed_p)
    if not (best <= reported * (1.0 + REF_TOL)):
        return (
            f"{variant.value} optimum {reported:.17g} beaten by the reference grid's {best:.17g}"
        )
    return None


def _status(row: dict):
    return None if row["status"].startswith("ok") else row["status"]


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def fig2_rows(rows: list[dict]) -> list:
    """Optimal r_m at fixed p: not beaten by the r_m reference grid."""
    out = []
    for row in rows:
        bad = _status(row)
        if bad is None:
            params = params_for(p=FIG2_P, phi=float(row["phi"]))
            rm = float(row["rm_numerical"])
            reported = expected_density_closed(dataclasses.replace(params, r_m=rm))
            bad = _beaten(reported, params, DIRECTIONAL, fixed_p=True)
        out.append(bad)
    return out


def fig34_rows(rows: list[dict]) -> list:
    """Joint optimum per beamwidth: not beaten, and p* the same for every phi."""
    p_col = [float(r["p_star"]) for r in rows if _status(r) is None]
    p_mid = statistics.median(p_col) if p_col else math.nan
    out = []
    for row in rows:
        bad = _status(row)
        if bad is None:
            p, rm = float(row["p_star"]), float(row["rm_star_numeric"])
            params = params_for(phi=float(row["phi"]))
            reported = expected_density_closed(dataclasses.replace(params, p=p, r_m=rm))
            drift = None
            if not abs(p - p_mid) <= P_CONST_TOL * p_mid:
                drift = f"p* {p!r} departs from the column median {p_mid!r}"
            bad = _first(_beaten(reported, params, DIRECTIONAL), drift)
        out.append(bad)
    return out


def _z_reason(label: str, mean: float, std_error: float, closed: float):
    z = (mean - closed) / std_error if std_error > 0 else math.inf
    if not abs(z) <= Z_MAX:
        return f"{label} simulation z = {z:.3g} against the closed form"
    return None


def fig5_rows(rows: list[dict]) -> list:
    """Both optima not beaten, directional >= omni, simulated points within Z_MAX."""
    out = []
    for row in rows:
        bad = _status(row)
        if bad is None:
            params = params_for(phi=float(row["phi"]))
            e_dir = float(row["edp_directional_opt"])
            e_omni = float(row["edp_omni_opt"])
            order = None
            if not e_dir >= e_omni - DOMINANCE_TOL * max(abs(e_dir), abs(e_omni)):
                order = f"directional optimum {e_dir!r} below omni {e_omni!r}"
            reasons = [_beaten(e_dir, params, DIRECTIONAL), _beaten(e_omni, params, OMNI), order]
            if "sim_directional_mean" in row:
                for label, closed in (("directional", e_dir), ("omni", e_omni)):
                    reasons.append(
                        _z_reason(
                            label,
                            float(row[f"sim_{label}_mean"]),
                            float(row[f"sim_{label}_std_error"]),
                            closed,
                        )
                    )
            bad = _first(*reasons)
        out.append(bad)
    return out


def sweep_optimize_rows(rows: list[dict], key: str, variant: str, **overrides) -> list:
    """``sweep --optimize``: each row's optimum not beaten by the reference grid."""
    kind = ProtocolVariant(variant)
    out = []
    for row in rows:
        bad = _status(row)
        if bad is None:
            params = params_for(**{**overrides, key: float(row[key])})
            bad = _beaten(float(row["edp_opt"]), params, kind)
        out.append(bad)
    return out


def sweep_quadrature_rows(rows: list[dict]) -> list:
    """``sweep`` without --optimize: closed form and quadrature agree."""
    out = []
    for row in rows:
        bad = _status(row)
        if bad is None:
            closed, numeric = float(row["edp_closed"]), float(row["edp_numeric"])
            if not abs(closed - numeric) <= QUAD_TOL * abs(closed):
                bad = f"closed form {closed!r} and quadrature {numeric!r} disagree"
        out.append(bad)
    return out
