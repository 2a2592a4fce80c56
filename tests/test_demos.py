"""Every demo script, and README's library quick start, runs to completion
against the package in src/."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = run_python(["-c", code], tmp_path).splitlines()
    assert lines[0] == "oscillatory"
    ends = [float(v) for v in lines[1].split()[:4]]
    assert ends == pytest.approx([math.pi, 2 * math.pi, 2 * math.pi, 3 * math.pi],
                                 rel=0, abs=1e-9)
