"""The demos and the README tour run clean, and the package namespace
exports exactly the names the demos import from it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import markov_poisson

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # gig1_queue.py writes its curve file into the working directory; a
    # numpy overflow would fail the demo, as it fails the tests in process
    src = str(Path(markov_poisson.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_exports_what_the_demos_import():
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "markov_poisson":
                imported.update(alias.name for alias in node.names)
    assert imported == set(markov_poisson.__all__)


def test_readme_tour_runs_and_shows_what_it_says():
    (tour,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    scope = {}
    exec(compile(tour, "README.md", "exec"), scope)
    assert scope["g"] == pytest.approx([2 / 3, -2 / 3])
    assert scope["report"].delta1 == 5
