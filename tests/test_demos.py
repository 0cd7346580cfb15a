"""Every narrative script in demos/, and the README quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    proc = _run([str(script)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


def test_readme_quick_start_runs():
    # The blocks build on each other, so they run in order in one interpreter.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 4
    proc = _run(["-c", "\n".join(blocks)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
