"""Every demo script, and the README's library sketch, runs to completion
against the installed package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import commsym

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(commsym.__file__).resolve().parents[1])


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_library_sketch_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", readme, re.S).group(1)
    done = run_python(["-c", sketch], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "25\n"
