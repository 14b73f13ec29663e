"""The traced benchmark run wraps program names; a rename must fail here.

``perfbench/layertrace.py`` is read as text and executed into a fresh
module, so no bytecode cache is written next to it.
"""

import contextlib
import io
import types
from pathlib import Path

from markov_poisson.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPEC = str(ROOT / "demos" / "specs" / "running_example.json")


def _layertrace():
    path = ROOT / "perfbench" / "layertrace.py"
    module = types.ModuleType("layertrace")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_command_runs_under_the_tracer():
    layertrace = _layertrace()
    ops = [
        ["verify", "--spec", SPEC],
        ["solve", "--spec", SPEC],
        ["potential", "--spec", SPEC],
        ["simulate", "--spec", SPEC, "--x0", "1", "--cycles", "200", "--seed", "1"],
        ["gig1", "--kappa", "2"],
    ]
    tracer = layertrace.Tracer()
    with tracer:
        patched = list(tracer._patched)
        codes = []
        for argv in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
    assert codes == [0] * len(ops)
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    traced = {(span[layertrace.LAYER], span[layertrace.NAME]) for span in tracer.spans}
    for name in [("certify", "verify"), ("certify", "minorize"), ("split", "lu_factor"),
                 ("split", "lu_solve")]:
        assert name in traced
    # the chain caches its powers: one computation for each op but gig1's
    metrics, _ = layertrace.layer_metrics(tracer, 1, [1.0] * len(tracer.roots()))
    assert metrics["chain.kernel_powers_calls"][0] == 4
