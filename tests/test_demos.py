"""The narrated demos and the README's Python quick start run to completion.

Each script in demos/, and the quick-start block of README.md, runs in its
own interpreter with the package on PYTHONPATH, as a reader would run it
from the repository root.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    # every warning is an error: the kernel silences numpy's floating-point
    # warnings only where it checks the results itself
    proc = _run_python(["-W", "error", str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_python_quick_start_runs():
    # the first python block after the heading is the documented API tour
    section = (ROOT / "README.md").read_text().split("## Python quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from sectorrelay import" in code
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
