"""One fresh interpreter of the benchmark: set up sectorrelay, run CLI commands.

Usage: python3 perfbench/child.py JOB.json REPORT.json

JOB holds ``src`` (the package's source directory), ``commands`` (a list
of argument lists for ``sectorrelay.cli.main``, run in order in this
process) and ``trace`` (wrap the package's layers first). REPORT receives
the set-up time, each command's exit code and time, the speed probe's
readings over the set-up and over each command, the peak resident memory,
the library versions and, when traced, the layer statistics.

Set-up time runs from the first statement of this file until importing
``sectorrelay`` and its CLI has returned the first closed-form value.

The process pins itself to one CPU and a probe thread times a fixed
50-microsecond loop every 10 ms on that CPU. On a shared machine the CPU
alternates between its full speed and slower spells caused by other
tenants; the probe readings record which, so that the parent can express
each time at the CPU's full speed (see ``run.at_full_speed``).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

PROBE_PERIOD_S = 0.01
PROBE_LOOP = 300


class Probe:
    """Start times and durations of a fixed loop, run every PROBE_PERIOD_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            start = clock()
            acc = 0.0
            for i in range(PROBE_LOOP):
                acc += math.sqrt(i) * math.exp(-i * 1e-3)
            self.samples.append((start, clock() - start))

    def between(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.samples if start <= t < end]

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = Probe()
    job_path, report_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)

    import sectorrelay
    import sectorrelay.cli
    from sectorrelay import NetworkParams, expected_density_closed

    expected_density_closed(
        NetworkParams(lam=1.0, alpha=3.0, beta=10.0, p=0.12, phi=math.pi / 2, r_m=0.3)
    )
    setup_end = time.perf_counter()
    if not os.path.realpath(sectorrelay.__file__).startswith(src + os.sep):
        probe.stop()
        print(f"sectorrelay imported from {sectorrelay.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    for argv in job["commands"]:
        start = time.perf_counter()
        try:
            code = sectorrelay.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        commands.append({"argv": argv, "code": code, "start": start, "end": time.perf_counter()})
    probe.stop()

    import numpy
    import scipy

    report = {
        "setup_s": setup_end - _START,
        "setup_probe": probe.between(_START, setup_end),
        "commands": [
            {"argv": c["argv"], "code": c["code"], "s": c["end"] - c["start"],
             "probe": probe.between(c["start"], c["end"])}
            for c in commands
        ],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": None
        if tracer is None
        else {"stats": tracer.stats, "counters": dict(tracer.counters)},
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
