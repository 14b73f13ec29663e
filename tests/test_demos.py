"""The demos run clean, and the package namespace exports exactly the
names they import from it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markov_poisson

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # gig1_queue.py writes its curve file into the working directory
    src = str(Path(markov_poisson.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_package_exports_what_the_demos_import():
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "markov_poisson":
                imported.update(alias.name for alias in node.names)
    assert imported == set(markov_poisson.__all__)
