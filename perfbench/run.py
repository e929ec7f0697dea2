"""sectorrelay benchmark: figure tables, Monte-Carlo precision, off-default sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {figures,montecarlo,domain} \
        --seed N --seconds S --trace {0,1}

Each command of a workload runs through ``sectorrelay.cli.main`` in a
fresh interpreter (perfbench/child.py) with ``--workers 1``, importing the
package from the checkout's ``src``. A round runs every command of the
workload once; the run repeats rounds for about ``--seconds`` and reports
medians. End-to-end times are expressed at the CPU's full speed, using the
speed probe that runs in every interpreter (``at_full_speed``; the README
explains why). With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run makes one
untraced and one traced round and reports the per-layer metrics. The
line before it records the seed, nproc and library versions.

Every output row is checked (perfbench/checks.py); rows that fail count
toward ``failed`` and lower ``ok_frac`` without stopping the run.
perfbench/README.md describes the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: pi/6 and pi/2, printed so that the CLI parses them back exactly.
MC_PHI_GRID = "0.5235987755982988,1.5707963267948966"
MC_TRIALS = 1000
#: Fresh interpreters whose set-up time a run takes the median of.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
#: The precision mc_s_per_1pct_rse normalises to.
TARGET_RSE = 0.01
#: Duration of child.py's probe loop at full speed on the reference CPU
#: (the 2-vCPU development sandbox); times are given at that speed.
PROBE_REF_S = 50e-6


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and how to check its table."""

    label: str
    argv: tuple
    table: str
    rows: int
    check: str
    check_args: dict = field(default_factory=dict)


def workload_commands(name: str) -> list[Command]:
    if name == "figures":
        return [
            Command("fig2", ("fig2",), "fig2.csv", 24, "fig2_rows"),
            Command("fig34", ("fig34",), "fig3_fig4.csv", 24, "fig34_rows"),
            Command("fig5", ("fig5",), "fig5.csv", 12, "fig5_rows"),
        ]
    if name == "montecarlo":
        argv = ("fig5", "--simulate", "--trials", str(MC_TRIALS), "--phi-grid", MC_PHI_GRID)
        return [Command("fig5-simulate", argv, "fig5.csv", 2, "fig5_rows")]
    if name == "domain":
        commands = []
        for variant in ("directional", "omnidirectional"):
            commands += [
                Command(
                    f"beta-{variant}",
                    ("sweep", "--optimize", "--param", "beta_db", "--values=-15:20:15",
                     "--variant", variant),
                    "sweep.csv", 15, "sweep_optimize_rows",
                    {"key": "beta_db", "variant": variant},
                ),
                Command(
                    f"alpha-{variant}",
                    ("sweep", "--optimize", "--param", "alpha",
                     "--values=2.05,2.5,3,3.5,4,4.5,5,5.5,6", "--variant", variant),
                    "sweep.csv", 9, "sweep_optimize_rows",
                    {"key": "alpha", "variant": variant},
                ),
            ]
        commands.append(
            Command(
                "rm-quadrature",
                ("sweep", "--param", "r_m", "--values", "0:1.2:49",
                 "--alpha", "2.5", "--beta-db", "-10"),
                "sweep.csv", 49, "sweep_quadrature_rows",
            )
        )
        return commands
    raise ValueError(name)


WORKLOADS = ("figures", "montecarlo", "domain")


# =====================================================================
# arithmetic, kept free of I/O so the self-tests can feed it directly
# =====================================================================

def mc_s_per_1pct_rse(wall_s: float, rses: list[float]) -> float:
    """Seconds to bring every simulated point to 1 % relative standard error.

    ``(wall_s / n) * sum((rse_i / 0.01)**2)``: each point's share of the
    wall time, scaled by the trials it would need for the target RSE.
    """
    return wall_s / len(rses) * sum((rse / TARGET_RSE) ** 2 for rse in rses)


def at_full_speed(seconds: float, probe: list[float], ref: float = PROBE_REF_S) -> float:
    """``seconds`` expressed at the reference CPU's full speed.

    ``probe`` holds the durations of the speed probe's fixed loop during
    the interval and ``ref`` its duration at full speed, so each probe
    period counts ``ref / d`` of its length. Without probe readings the
    interval is returned as measured.
    """
    return seconds * statistics.fmean(ref / d for d in probe) if probe else seconds


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


def merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    """Sum the per-name statistics and counters of several traced children."""
    stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
    counters: dict = defaultdict(float)
    for trace in traces:
        for name, values in trace["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        for name, value in trace["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    return stats, counters


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics from merged trace statistics; 0 where a layer is idle."""

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def self_s(layer):
        return sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))

    joint = calls("optimize.optimize_joint")
    opts = joint + calls("optimize.optimize_rm")
    closed = "analytic.expected_density_closed"
    numeric = "analytic.expected_density_numeric"
    quad = "specfun.integrate_semi_infinite"
    trials = calls("simulate.run_trial")
    out = {
        "cli.self_s": (self_s("cli"), "s"),
        "optimize.optimize_joint.calls": (joint, "count"),
        "optimize.optimize_joint.iterations_mean": (
            ratio(counters["optimize_joint.iterations"], counters["optimize_joint.returned"]),
            "count"),
        "optimize.optimize_rm.ms_per_call": (
            1e3 * ratio(total("optimize.optimize_rm"), calls("optimize.optimize_rm")), "ms"),
        "optimize.solve_stationary_system.calls": (
            calls("optimize.solve_stationary_system"), "count"),
        "optimize.objective_evals_per_opt": (ratio(calls(closed), opts), "count"),
        "optimize.residual_evals_per_opt": (
            ratio(calls("analytic.stationarity_residuals"), opts), "count"),
        "optimize.self_s": (self_s("optimize"), "s"),
        "analytic.expected_density_closed.calls": (calls(closed), "count"),
        "analytic.expected_density_closed.us_per_call": (
            1e6 * ratio(total(closed), calls(closed)), "us"),
        "analytic.stationarity_residuals.calls": (
            calls("analytic.stationarity_residuals"), "count"),
        "analytic.expected_density_numeric.calls": (calls(numeric), "count"),
        "analytic.expected_density_numeric.ms_per_call": (
            1e3 * ratio(total(numeric), calls(numeric)), "ms"),
        "analytic.self_s": (self_s("analytic"), "s"),
        "specfun.integrate_semi_infinite.calls": (calls(quad), "count"),
        "specfun.integrate_semi_infinite.evaluations_per_call": (
            ratio(counters["integrate_semi_infinite.evaluations"], calls(quad)), "count"),
        "specfun.integrate_semi_infinite.abs_error_max": (
            counters["integrate_semi_infinite.abs_error_max"], "1"),
        "specfun.self_s": (self_s("specfun"), "s"),
        "model.NetworkParams.validate.calls": (calls("model.NetworkParams.validate"), "count"),
        "model.NetworkParams.validate.s": (total("model.NetworkParams.validate"), "s"),
        "model.self_s": (self_s("model"), "s"),
        "simulate.run_trial.calls": (trials, "count"),
        "simulate.run_trial.ms_per_trial": (
            1e3 * ratio(total("simulate.run_trial"), trials), "ms"),
        "simulate.sample_ppp.s": (total("simulate.sample_ppp"), "s"),
        "simulate.sample_ppp.points_per_trial": (
            ratio(counters["sample_ppp.points"], trials), "count"),
        "simulate.sector_covers.s": (total("simulate.sector_covers"), "s"),
        "simulate.interferer_useful_ratio": (
            ratio(counters["interferers.covering"], counters["interferers.drawn"]), "ratio"),
        "simulate.sir_at.self_s": (
            stats["simulate.sir_at"][2] if "simulate.sir_at" in stats else 0.0, "s"),
        "simulate.select_relay.s": (total("simulate.select_relay"), "s"),
        "simulate.redraws": (counters["redraws"], "count"),
        "simulate.relay_found_fraction": (ratio(counters["run_trial.relay_found"], trials), "ratio"),
        "simulate.self_s": (self_s("simulate"), "s"),
    }
    for variant, short in (("directional", "directional"), ("omnidirectional", "omni")):
        out[f"optimize.optimize_joint.{short}.ms_per_call"] = (
            1e3 * ratio(counters[f"optimize_joint.{variant}.s"],
                        counters[f"optimize_joint.{variant}.calls"]), "ms")
    return out


# =====================================================================
# running children
# =====================================================================

class Runner:
    """Runs fresh interpreters inside one work directory of the checkout."""

    def __init__(self, root: Path, workdir: Path):
        self.src = root / "src"
        self.workdir = workdir
        self.count = 0
        self.setup_samples: list[tuple[float, list[float]]] = []
        self.peak_rss_mib = 0.0
        self.versions: dict = {}

    def child(self, commands: list[list[str]], trace: bool = False) -> dict:
        self.count += 1
        job = self.workdir / f"job{self.count}.json"
        report = self.workdir / f"report{self.count}.json"
        log = self.workdir / f"child{self.count}.log"
        job.write_text(json.dumps({"src": str(self.src), "commands": commands, "trace": trace}))
        with open(log, "w") as fh:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job), str(report)],
                stdout=fh, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0 or not report.exists():
            tail = log.read_text()[-2000:]
            raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
        result = json.loads(report.read_text())
        if not trace:
            self.setup_samples.append((result["setup_s"], result["setup_probe"]))
        self.peak_rss_mib = max(self.peak_rss_mib, result["peak_rss_mib"])
        self.versions = result["versions"]
        return result


def cli_seed(seed: int, round_index: int) -> int:
    """The --seed of a round; fig5 adds the row index, so rounds stay apart."""
    return seed * 1_000_000 + 1000 * round_index


def run_round(runner: Runner, commands: list[Command], seed: int, index: int,
              trace: bool, outroot: Path) -> dict:
    """Run every command once, each in its own interpreter, in a seed-rotated order."""
    shift = (seed + index) % len(commands)
    results = {}
    for cmd in commands[shift:] + commands[:shift]:
        outdir = outroot / cmd.label
        argv = [*cmd.argv, "--outdir", str(outdir), "--workers", "1",
                "--seed", str(cli_seed(seed, index))]
        report = runner.child([argv], trace)
        results[cmd.label] = {
            "code": report["commands"][0]["code"],
            "s": report["commands"][0]["s"],
            "probe": report["commands"][0]["probe"],
            "outdir": outdir,
            "trace": report["trace"],
        }
    return results


# =====================================================================
# checking a round's outputs
# =====================================================================

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reasons: dict = field(default_factory=dict)

    def add(self, label: str, reasons: list) -> None:
        self.attempted += len(reasons)
        for reason in reasons:
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(f"{label}: {reason}", 0)
                self.reasons[f"{label}: {reason}"] += 1

    def broken(self, label: str, rows: int, why: str) -> None:
        self.correct = False
        self.add(label, [why] * rows)


def check_round(commands: list[Command], results: dict, tally: Tally) -> dict:
    """Check every row of a round; return the well-formed tables by label."""
    import checks

    tables = {}
    for cmd in commands:
        res = results[cmd.label]
        path = res["outdir"] / cmd.table
        if not path.exists():
            tally.broken(cmd.label, cmd.rows, f"exit code {res['code']}, no {cmd.table}")
            continue
        header, rows = checks.read_table(path)
        errors = sum(1 for row in rows if row.get("status", "").startswith("error"))
        expected_code = 3 if errors else 0
        if len(rows) != cmd.rows or "status" not in header or res["code"] != expected_code:
            tally.broken(
                cmd.label, cmd.rows,
                f"{len(rows)} rows, exit code {res['code']} (expected {cmd.rows} rows, "
                f"exit code {expected_code})",
            )
            continue
        tally.add(cmd.label, getattr(checks, cmd.check)(rows, **cmd.check_args))
        tables[cmd.label] = rows
    return tables


def simulated_rses(tables: dict) -> list[float]:
    """Relative standard error of every simulated point in a round's tables."""
    rses = []
    for rows in tables.values():
        for row in rows:
            for variant in ("directional", "omni"):
                key = f"sim_{variant}_mean"
                if key in row and row["status"].startswith("ok"):
                    rses.append(float(row[f"sim_{variant}_std_error"]) / float(row[key]))
    return rses


def csv_bytes(commands: list[Command], results: dict) -> int:
    return sum(
        (results[c.label]["outdir"] / c.table).stat().st_size
        for c in commands
        if (results[c.label]["outdir"] / c.table).exists()
    )


def replay_check(runner: Runner, results: dict, workdir: Path, tally: Tally) -> None:
    """Replay the fig2 manifest; the table must come back byte for byte."""
    original = results["fig2"]["outdir"]
    replay_dir = workdir / "replay"
    report = runner.child([["--from-manifest", str(original / "fig2_manifest.json"),
                            "--outdir", str(replay_dir)]])
    same = (
        report["commands"][0]["code"] == 0
        and (replay_dir / "fig2.csv").exists()
        and (replay_dir / "fig2.csv").read_bytes() == (original / "fig2.csv").read_bytes()
    )
    tally.add("replay", [None if same else "fig2 replay differs from the original table"])


# =====================================================================
# a whole run
# =====================================================================

def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        workdir: Path) -> tuple[dict, dict]:
    runner = Runner(root, workdir)
    commands = workload_commands(workload)
    tally = Tally()

    start = time.perf_counter()
    rounds = [run_round(runner, commands, seed, 0, False, workdir / "round0")]
    if trace:
        traced = run_round(runner, commands, seed, 0, True, workdir / "round0-traced")
    else:
        total = max(1, round(seconds / (time.perf_counter() - start)))
        for index in range(1, total):
            rounds.append(run_round(runner, commands, seed, index, False,
                                    workdir / f"round{index}"))
        while len(runner.setup_samples) < SETUP_SAMPLES:
            runner.child([])

    sys.path.insert(0, str(root / "src"))
    all_tables = [check_round(commands, r, tally) for r in rounds]
    if trace:
        check_round(commands, traced, tally)
    if workload == "figures":
        replay_check(runner, rounds[0], workdir, tally)

    def full_speed(result: dict) -> float:
        return at_full_speed(result["s"], result["probe"])

    raw_walls = [sum(r[c.label]["s"] for c in commands) for r in rounds]
    walls = [sum(full_speed(r[c.label]) for c in commands) for r in rounds]
    rses = [simulated_rses(t) for t in all_tables]
    if trace:
        traced_wall = sum(full_speed(traced[c.label]) for c in commands)
        stats, counters = merge_traces([traced[c.label]["trace"] for c in commands])
        metrics = layer_metrics(stats, counters)
        for name in ("fig2", "fig34", "fig5", "sweep"):
            metrics[f"cli.{name}.s"] = (
                sum(full_speed(rounds[0][c.label]) for c in commands if c.argv[0] == name), "s")
        metrics["cli.csv_bytes"] = (csv_bytes(commands, rounds[0]), "bytes")
        flat = [r for points in rses for r in points]
        metrics["simulate.per_trial_rel_var"] = (
            MC_TRIALS * statistics.fmean(r * r for r in flat) if flat else 0.0, "1")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
    else:
        wall_s = statistics.median(walls)
        # A workload without simulated points is exact: its wall time is
        # already the time to any precision.
        mc = (statistics.median(mc_s_per_1pct_rse(w, p) for w, p in zip(walls, rses))
              if all(rses) else wall_s)
        metrics = {
            "setup_s": (statistics.median(at_full_speed(t, p) for t, p in runner.setup_samples),
                        "s"),
            "wall_s": (wall_s, "s"),
            "mc_s_per_1pct_rse": (mc, "s"),
            "ok_frac": (1.0 - failed_frac(tally.failed, tally.attempted), "ratio"),
            "peak_rss_mib": (runner.peak_rss_mib, "MiB"),
        }

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        **runner.versions,
        "rounds": len(rounds),
        "round_walls_s": walls,
        "raw_round_walls_s": raw_walls,
        "raw_setup_samples_s": [t for t, _ in runner.setup_samples],
        "failed_frac": failed_frac(tally.failed, tally.attempted),
        "failures": tally.reasons,
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")

    root = Path.cwd()
    if not (root / "src" / "sectorrelay" / "__init__.py").is_file():
        print(f"error: no sectorrelay sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workroot = root / ".perfbench-work"
    workdir = workroot / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           root, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    for reason, count in info["failures"].items():
        print(f"failed row x{count}: {reason}", file=sys.stderr)
    print("# run " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
