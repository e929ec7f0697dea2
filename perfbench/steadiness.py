"""Run a workload under several seeds and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workload figures --seeds 1-10

The spread is the distance between the first and third quartile of the
runs' values, as a share of their median, set against the metric's bound
in BENCHMARK.json. Each run's result line is echoed as it finishes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values: dict = {}
    for seed in args.seeds:
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        print(out[-1], flush=True)
        for name, metric in json.loads(out[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{args.workload:10s} {metric['name']:18s} median {statistics.median(vals):.6g} "
              f"{metric['unit']:5s} spread {spread:.3f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
