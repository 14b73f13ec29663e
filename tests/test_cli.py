import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_poisson.cli import build_parser, main
from markov_poisson.errors import SpecFileError
from markov_poisson.specfile import _fmt_float, dumps_canonical, parse_chain_spec

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SPEC = ROOT / "demos" / "specs" / "running_example.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_bundled_spec(capsys):
    code, out = run_cli(capsys, "solve", "--spec", str(BUNDLED_SPEC))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["tables"]["g_star"] == pytest.approx([2 / 3, -2 / 3])
    assert report["certificates"]["b1"] == 2.5
    assert report["bounds"]["delta1"] == 5.0
    assert all(a["passed"] for a in report["assertions"])


def test_verify_reports_drift_violation(tmp_path, capsys):
    doc = json.loads(BUNDLED_SPEC.read_text())
    # with f = (1, 0) the inequality off C needs v1(1) >= v1(0)
    doc["functions"]["v1"] = [4.0, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--spec", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["code"] == "drift-violation"


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "states": 2,\n  "kernel": [[0.5, 0.5],\n}')
    code, out = run_cli(capsys, "verify", "--spec", str(bad))
    assert code == 2
    report = json.loads(out)
    assert report["error"]["code"] == "spec-file-error"
    assert "line" in report["error"]["message"]


def test_unknown_keys_rejected(tmp_path, capsys):
    doc = json.loads(BUNDLED_SPEC.read_text())
    doc["kernell"] = []
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--spec", str(bad))
    assert code == 2
    assert "kernell" in json.loads(out)["error"]["message"]


def test_simulate_deterministic_reports(tmp_path, capsys):
    argv = [
        "simulate", "--spec", str(BUNDLED_SPEC),
        "--x0", "1", "--cycles", "3000", "--seed", "42",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    est = report["estimates"]["g_star_x0"]
    assert abs(est["point"] - (-2 / 3)) <= 3 * est["std_error"]


def test_simulate_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys,
        "simulate", "--spec", str(BUNDLED_SPEC),
        "--x0", "1", "--cycles", "500", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


def test_potential_subcommand(capsys):
    code, out = run_cli(capsys, "potential", "--spec", str(BUNDLED_SPEC))
    assert code == 0
    report = json.loads(out)
    assert report["tables"]["g_tilde"] == pytest.approx([8 / 9, -4 / 9], abs=1e-9)
    assert report["tables"]["gap"] == pytest.approx([2 / 9, 2 / 9], abs=1e-9)
    assert report["solve_residual"] <= 1e-10
    assert report["assertions"][0]["name"] == "potential_residual"


def test_gig1_subcommand_writes_curves(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    code, out = run_cli(
        capsys, "gig1", "--kappa", "2.0", "--x-points", "11", "--curves", str(curves)
    )
    assert code == 0
    report = json.loads(out)
    assert report["comparison"]["strictly_tighter"] is True
    table = np.loadtxt(curves)
    assert table.shape == (11, 5)


def test_unwritable_curve_file_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    from markov_poisson import gig1

    built = []
    monkeypatch.setattr(gig1, "build_certificate", lambda *a: built.append(a))
    curves = tmp_path / "no" / "such" / "dir" / "curves.txt"
    code, out = run_cli(capsys, "gig1", "--kappa", "2", "--curves", str(curves))
    assert code == 2
    report = json.loads(out)
    assert list(report) == ["command", "error", "passed"]
    assert report["error"]["code"] == "spec-file-error"
    assert report["error"]["message"].startswith("cannot write curve file")
    assert not built and not curves.exists()


@pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["missing", "existing"])
@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["gig1", "--kappa", "1e300"], 1),  # the comparison overflows in the body
        (["gig1", "--kappa", "0.5"], 2),  # the model is refused after the file check
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_failed_gig1_run_leaves_the_curve_file_as_it_was(tmp_path, capsys, argv,
                                                         expected_code, existing):
    curves = tmp_path / "curves.txt"
    if existing is not None:
        curves.write_bytes(existing)
    code, _ = run_cli(capsys, *argv, "--curves", str(curves))
    assert code == expected_code
    if existing is None:
        assert not curves.exists()
    else:
        assert curves.read_bytes() == existing


def test_gig1_draws_curves_only_for_a_curve_file(tmp_path, capsys, monkeypatch):
    # the report's comparison needs no grid: the curves are drawn on
    # linspace(0, x_max, x_points) only when --curves asks for them
    from markov_poisson import gig1

    drawn = []
    original = gig1.bound_curves

    def counted(cert, xs):
        drawn.append(len(xs))
        return original(cert, xs)

    monkeypatch.setattr(gig1, "bound_curves", counted)
    code, plain = run_cli(capsys, "gig1", "--kappa", "2", "--x-points", "7")
    assert (code, drawn) == (0, [])
    curves = tmp_path / "curves.txt"
    code, out = run_cli(capsys, "gig1", "--kappa", "2", "--x-points", "7",
                        "--curves", str(curves))
    assert (code, drawn) == (0, [7])
    report = json.loads(out)
    assert report.pop("curve_file") == str(curves)
    assert report == json.loads(plain)


def test_gig1_simulate_mode(capsys):
    code, out = run_cli(
        capsys,
        "simulate", "--gig1", "--kappa", "2.0",
        "--x0", "1.0", "--cycles", "2000", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimates"]["all_inside"] is True
    # the same queue options describe the same model in both commands
    queue = ["--family", "logistic", "--mu", "-0.4", "--sigma", "0.8", "--kappa", "2.5"]
    code, out = run_cli(capsys, "gig1", *queue)
    assert code == 0
    certificate = json.loads(out)["certificate"]
    code, out = run_cli(capsys, "simulate", "--gig1", *queue, "--x0", "1", "--cycles", "200")
    assert code == 0
    simulated = json.loads(out)["certificate"]
    for key in ("x0", "lambda", "b1", "c1"):
        assert simulated[key] == certificate[key], key


def test_inputs_echo_round_trips(capsys):
    code, out = run_cli(capsys, "solve", "--spec", str(BUNDLED_SPEC))
    assert code == 0
    echoed = json.loads(out)["inputs"]["spec"]
    reparsed = parse_chain_spec(json.dumps(echoed))
    original = parse_chain_spec(BUNDLED_SPEC.read_text())
    assert np.array_equal(reparsed.chain.kernel, original.chain.kernel)
    assert reparsed.small == original.small
    for name in original.functions:
        assert np.array_equal(reparsed.functions[name], original.functions[name])


def test_canonical_float_round_trip():
    values = [1 / 3, 2 / 3, 0.1, 1e-300, 6.197740398750353e-12, 35.0]
    text = dumps_canonical({"v": values})
    assert json.loads(text)["v"] == values


#: floats at the edges of the 17-digit format: signed zero, subnormals, the extremes
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1 / 3, 0.1, 1e16, 1e17, 35.0]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)))
def test_float_rows_print_as_scalars_do(values):
    # the float-row path gives the bytes of the per-scalar path, lists and arrays alike
    expected = "[" + ", ".join(_fmt_float(v) for v in values) + "]"
    assert dumps_canonical(values) == expected
    assert dumps_canonical(np.array(values, dtype=float)) == expected


def test_mixed_rows_keep_their_scalar_bytes():
    assert dumps_canonical([0, 0.5]) == "[0, 0.5]"
    assert dumps_canonical([True, 1.0]) == "[true, 1]"
    assert dumps_canonical([np.float64(0.1), 0.2]) == "[0.10000000000000001, 0.20000000000000001]"


@pytest.mark.parametrize(
    "row",
    [[0.5, math.nan], [math.inf], [-math.inf, 1.0], [0, math.nan], np.array([1.0, math.inf])],
    ids=["float-nan", "float-inf", "float-minus-inf", "mixed-nan", "array-inf"],
)
def test_non_finite_rows_are_rejected(row):
    with pytest.raises(ValueError, match="NaN or infinity"):
        dumps_canonical({"row": row})


@pytest.mark.parametrize(
    "row_text, message",
    [
        ('["x", 0.5]', "kernel row 1 contains non-numeric entries"),
        ("[1.0]", "kernel row 1 must be a list of 2 numbers"),
        ("[1e999, 0.5]", "kernel row 1 contains non-finite entries"),
        ("[1" + "0" * 400 + ", 0.5]", "kernel row 1 contains non-finite entries"),
    ],
    ids=["string", "short", "overflow", "integer-overflow"],
)
def test_bad_kernel_rows_are_named(row_text, message):
    # a bad row is named in its own words, after the good row before it
    doc = json.loads(BUNDLED_SPEC.read_text())
    doc["kernel"][1] = "ROW"
    with pytest.raises(SpecFileError) as err:
        parse_chain_spec(json.dumps(doc).replace('"ROW"', row_text))
    assert str(err.value) == message


def test_simulate_requires_exactly_one_mode(capsys):
    code, out = run_cli(capsys, "simulate", "--x0", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", str(BUNDLED_SPEC), "--x0", "5"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "2"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "-1"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1.5"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--cycles", "0"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--cycles", "1"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--cycles", "1000000000000"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--workers", "0"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--workers", "-3"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--max-steps", "-1"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--seed", "-1"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--seed", str(2**64)],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--family", "laplace"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--mu=-1"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--sigma", "2"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--kappa", "7"],
        ["--spec", str(BUNDLED_SPEC), "--x0", "1", "--grid-step", "0.004"],
        ["--gig1", "--x0", "abc"],
        ["--gig1", "--x0", "-3"],
        ["--gig1", "--x0", "nan"],
        ["--gig1", "--x0", "inf"],
        ["--gig1", "--x0", "1", "--cycles", "0"],
        ["--gig1", "--x0", "1", "--cycles", "1"],
        ["--gig1", "--x0", "1", "--cycles", "1000000000000"],
        ["--gig1", "--x0", "1", "--workers", "0"],
        ["--gig1", "--x0", "1", "--max-steps", "-1"],
        ["--gig1", "--x0", "1", "--seed", "-1"],
        ["--gig1", "--x0", "1", "--seed", str(2**64)],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != str(BUNDLED_SPEC)),
)
def test_simulate_rejects_start_state_and_cycle_count_out_of_range(capsys, argv):
    # the state index must lie in 0..n-1 (n = 2 here), the waiting time
    # must be finite and >= 0, 2..mc.MAX_CYCLES cycles (one cycle has no
    # standard error) must run in at least one worker, the step budget
    # cannot be negative, the seed must fit the uint64 stream key, and the
    # queue options belong to --gig1 alone
    code, out = run_cli(capsys, "simulate", *argv)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["code"] == "spec-file-error"


def test_simulate_spec_needs_only_f_and_small_set(tmp_path, capsys):
    # simulate never reads drift functions, so a spec with v1 and no v2 runs
    doc = json.loads(BUNDLED_SPEC.read_text())
    doc["functions"] = {"f": doc["functions"]["f"], "v1": doc["functions"]["v1"]}
    spec = tmp_path / "no_v2.json"
    spec.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "simulate", "--spec", str(spec), "--x0", "1",
                        "--cycles", "500", "--seed", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv, code, assertion",
    [
        (["verify"], 1, "verify_completed"),
        (["solve"], 1, "solve_completed"),
        (["simulate", "--x0", "1", "--cycles", "200"], 1, "simulation_completed"),
        (["potential"], 0, None),
    ],
    ids=["verify", "solve", "simulate", "potential"],
)
def test_spec_without_small_set(tmp_path, capsys, argv, code, assertion):
    # only potential runs without a minorization; the others fail their
    # first assertion with an input error raised inside the computation
    doc = json.loads(BUNDLED_SPEC.read_text())
    del doc["small_set"]
    spec = tmp_path / "no_small_set.json"
    spec.write_text(json.dumps(doc))
    got, out = run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:])
    report = json.loads(out)
    assert (got, report["passed"]) == (code, code == 0)
    if assertion is None:
        assert "error" not in report
        return
    assert report["error"]["code"] == "spec-file-error"
    assert report["assertions"] == [
        {"name": assertion, "passed": False, "detail": report["error"]["message"]}
    ]


def test_simulate_runs_at_most_one_shard_per_cpu(capsys, monkeypatch):
    # a worker count far past the CPUs runs as many shards as there are
    # CPUs, with the estimates of one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["simulate", "--spec", str(BUNDLED_SPEC), "--x0", "1", "--cycles", "500",
            "--seed", "3"]
    code1, out1 = run_cli(capsys, *argv)
    code, out = run_cli(capsys, *argv, "--workers", "1000000000000")
    assert code1 == code == 0
    assert json.loads(out)["estimates"] == json.loads(out1)["estimates"]


def test_simulate_spec_honours_max_steps(capsys):
    code, out = run_cli(capsys, "simulate", "--spec", str(BUNDLED_SPEC), "--x0", "1",
                        "--cycles", "100", "--max-steps", "0")
    assert code == 1
    report = json.loads(out)
    assert report["inputs"]["max_steps"] == 0
    assert report["error"]["code"] == "max-steps-exceeded"


def test_grid_step_past_the_cap_is_refused_before_allocation(capsys):
    # the increment grid at step 1e-12 would hold 3e13 points; the run is
    # refused with search-exhausted, as a drift grid past its cap is
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "gig1", "--grid-step", "1e-12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    report = json.loads(out)
    assert report["error"]["code"] == "search-exhausted"
    assert [a["name"] for a in report["assertions"]] == ["certificate_built"]
    assert peak < 10 * 2**20


@pytest.mark.parametrize("command", [["gig1"], ["simulate", "--gig1", "--x0", "1"]])
@pytest.mark.parametrize(
    "option",
    [
        ["--grid-step", "0"],
        ["--grid-step", "-0.01"],
        ["--grid-step", "nan"],
        ["--kappa", "1"],
        ["--kappa", "inf"],
        ["--mu", "0.5"],
        ["--sigma", "-1"],
        ["--sigma", "inf"],
        ["--sigma", "1e200"],  # a finite scale whose variance overflows
        ["--seed", "-1"],
        ["--seed", str(2**64)],
    ],
    ids=" ".join,
)
def test_queue_parameters_out_of_range_are_input_errors(capsys, command, option):
    code, out = run_cli(capsys, *command, *option)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["code"] == "spec-file-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["gig1", "--kappa", "1e300"],  # the comparison a(1 + b1) overflows
        ["gig1", "--kappa", "1e308"],  # b1 and phi(v1) overflow
        ["simulate", "--gig1", "--kappa", "1e300", "--x0", "0", "--cycles", "10"],
        # v1(x0) overflows: refused before any cycle runs into the step budget
        ["simulate", "--gig1", "--x0", "1e200", "--cycles", "10", "--max-steps", "1000"],
        ["gig1", "--x-max", "1e160", "--curves", os.devnull],  # the curves overflow
        # a (1 + b1) ~ 7e11 at kappa 1.1: competing overflows, the envelope does not
        ["gig1", "--x-max", "1e150", "--curves", os.devnull],
    ],
    ids=" ".join,
)
def test_queue_overflow_is_a_coded_error(capsys, argv):
    # a certificate or bound that overflows cannot be written as a report,
    # and the coded error is all the run prints: numpy does not warn of it
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["error"]["code"] == "non-finite-result"
    assert report["assertions"][-1]["passed"] is False


@pytest.mark.parametrize("command", [["gig1"], ["simulate", "--gig1", "--x0", "1"]])
def test_drift_grid_past_its_cap_is_refused_before_allocation(capsys, command):
    # mean -1e-8 puts the drift horizon near 5.5e8, a grid of 5.5e10 points
    import tracemalloc

    from markov_poisson.gig1 import MAX_GRID_POINTS

    tracemalloc.start()
    try:
        code, out = run_cli(capsys, *command, "--mu=-1e-8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    report = json.loads(out)
    assert report["error"]["code"] == "search-exhausted"
    assert f"MAX_GRID_POINTS = {MAX_GRID_POINTS}" in report["error"]["message"]
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "option",
    [["--x-max", "nan"], ["--x-max", "inf"], ["--x-max", "-1"], ["--x-points", "-1"],
     ["--x-points", "0"], ["--x-points", "10000000000"]],
    ids=" ".join,
)
def test_gig1_curve_grid_out_of_range_is_an_input_error(capsys, option):
    # the curves are drawn on linspace(0, x_max, x_points), echoed in the report
    code, out = run_cli(capsys, "gig1", *option)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["code"] == "spec-file-error"


def test_errors_before_any_report_exit_2(tmp_path, capsys):
    # a kernel that fails validation and a quadrature that misses its mass
    # check are rejected with their own codes, not with a traceback
    doc = json.loads(BUNDLED_SPEC.read_text())
    doc["kernel"][0] = [0.5, 0.4]
    bad = tmp_path / "row.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "potential", "--spec", str(bad))
    assert (code, json.loads(out)["error"]["code"]) == (2, "row-sum-violation")
    code, out = run_cli(capsys, "gig1", "--family", "laplace")
    assert (code, json.loads(out)["error"]["code"]) == (2, "quadrature-failure")


def _count_calls(monkeypatch, name):
    """Count calls of a chain-layer function through every module binding it."""
    import importlib
    import pkgutil

    import markov_poisson

    calls = []
    original = getattr(importlib.import_module("markov_poisson.chain"), name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(markov_poisson.__path__):
        module = importlib.import_module(f"markov_poisson.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_simulate_builds_kernel_powers_once(tmp_path, capsys, monkeypatch):
    # the chain caches P^1..P^m: the minorization, its check and the
    # op's CycleSystem (and through it the sampler) share one kernel_powers
    # call per op of simulate --spec, solve and potential, with and
    # without a bridge
    from markov_poisson.chain import validate_chain
    from markov_poisson.split import hitting

    rng = np.random.default_rng(20250401)
    P = rng.dirichlet(np.ones(30), size=30)
    f = rng.uniform(0.0, 2.0, size=30)
    C = [0, 1, 2]
    chain = validate_chain(P)
    _, v1 = hitting(chain, C, f + 1.0)
    _, v2 = hitting(chain, C, np.full(30, 2.0))
    doc = {"states": 30, "kernel": P.tolist(),
           "functions": {"f": f.tolist(), "v1": v1.tolist(), "v2": v2.tolist()},
           "small_set": {"C": C, "m": 3}}
    bridge = tmp_path / "bridge.json"
    bridge.write_text(json.dumps(doc))
    for spec in (BUNDLED_SPEC, bridge):
        for argv in (["simulate", "--x0", "1", "--cycles", "200", "--seed", "1"],
                     ["solve"], ["potential"]):
            calls = _count_calls(monkeypatch, "kernel_powers")
            code, out = run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:])
            monkeypatch.undo()
            assert code == 0
            assert len(calls) == 1, (spec, argv[0])


def test_potential_solves_for_pi_once(capsys, monkeypatch):
    # the chain caches pi and its cyclic classes: one stationary solve and
    # one decomposition per op
    names = ("stationary", "cyclic_decomposition")
    for command in ("solve", "potential"):
        calls = [_count_calls(monkeypatch, name) for name in names]
        code, _ = run_cli(capsys, command, "--spec", str(BUNDLED_SPEC))
        monkeypatch.undo()
        assert code == 0
        assert [len(c) for c in calls] == [1, 1], command


def test_readme_command_line_lists_only_existing_options():
    # every --option the README's command-line section names is an option
    # of some subcommand, so a removed option cannot linger in the docs
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## Numerical conventions")]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    known = {opt for p in subcommands.choices.values() for opt in p._option_string_actions}
    assert documented, "no options found in the README's command-line section"
    assert documented <= known, sorted(documented - known)


def spec_variant(tmp_path, **edits):
    """The running example with ``doc[section][key] = value`` for each edit, as a file.

    An edit that is not a dict replaces its whole section.
    """
    doc = json.loads(BUNDLED_SPEC.read_text())
    for section, entries in edits.items():
        if not isinstance(entries, dict):
            doc[section] = entries
            continue
        for key, value in entries.items():
            doc.setdefault(section, {})[key] = value
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_bundled_spec(capsys):
    code, out = run_cli(capsys, "verify", "--spec", str(BUNDLED_SPEC))
    assert code == 0
    report = json.loads(out)
    certs = report["certificates"]
    assert (certs["b1"], certs["b2"], certs["b3"], certs["b4"]) == (2.5, 3.0, 9.0, 11.0)
    assert report["assertions"] == [
        {"name": "drift_minorization_certificate", "passed": True},
        {"name": "second_level_certificate", "passed": True},
    ]


def test_solve_with_a_pinned_minorization(tmp_path, capsys):
    # phi named from "distributions": P(0, .) = (1/2, 1/2) >= 1 * phi holds
    spec = spec_variant(tmp_path, distributions={"half": [0.5, 0.5]},
                        small_set={"lambda": 1, "phi": "half"})
    code, out = run_cli(capsys, "solve", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert (report["certificates"]["lambda"], report["certificates"]["phi"]) == (1.0, [0.5, 0.5])
    # an inline phi that P(0, .) does not dominate: 1/2 < 3/4 at state 1
    spec = spec_variant(tmp_path, small_set={"lambda": 1, "phi": [0.25, 0.75]})
    code, out = run_cli(capsys, "solve", "--spec", spec)
    assert code == 1
    report = json.loads(out)
    assert report["error"]["code"] == "minorization-violation"
    assert report["assertions"] == [
        {"name": "solve_completed", "passed": False, "detail": report["error"]["message"]}
    ]


def test_potential_reports_drift_violation_of_v3(tmp_path, capsys):
    # v3 is charged by v1 = (1, 4): off C it needs v3(1) >= v3(0) + 16
    spec = spec_variant(tmp_path, functions={"v3": [1.0, 10.0]})
    code, out = run_cli(capsys, "potential", "--spec", spec)
    assert code == 1
    report = json.loads(out)
    assert report["error"]["code"] == "drift-violation"
    assert report["assertions"][-1]["name"] == "potential_completed"
    assert report["assertions"][-1]["passed"] is False


@pytest.mark.parametrize("command", ["verify", "solve", "potential"])
@pytest.mark.parametrize(
    "functions",
    [{}, {"v1": [4.0, 1.0]}, {"v1": [1.0, 0.5]}, {"v3": [1.0, 10.0]}],
    ids=["valid", "v1 violated", "v1 small", "v3 violated"],
)
def test_no_report_repeats_an_assertion_name(tmp_path, capsys, command, functions):
    # a failure is recorded under a name no body uses, never under the
    # name of an assertion the body has already passed
    spec = spec_variant(tmp_path, functions=functions)
    code, out = run_cli(capsys, command, "--spec", spec)
    names = [a["name"] for a in json.loads(out)["assertions"]]
    assert len(names) == len(set(names)), names
    assert code == (1 if functions else 0)


@pytest.mark.parametrize(
    "content", [None, b'{"states": 1, "labels": ["\xe9"], "kernel": [[1.0]]}'],
    ids=["missing", "not-utf-8"],
)
@pytest.mark.parametrize(
    "command", [["verify"], ["solve"], ["potential"], ["simulate", "--x0", "0"]], ids=" ".join
)
def test_unreadable_spec_file_is_an_input_error(tmp_path, capsys, command, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_bytes(content)
    code, out = run_cli(capsys, *command, "--spec", str(path))
    assert code == 2
    report = json.loads(out)
    assert list(report) == ["command", "error", "passed"]
    assert report["error"]["code"] == "spec-file-error"


@pytest.mark.parametrize(
    "edits, code, message",
    [
        ({"distributions": {"d": [0.5, 0.6]}}, "row-sum-violation",
         "distribution 'd' sums to 1+1.000e-01"),
        ({"small_set": {"lambda": 1, "phi": [0.5, 0.6]}}, "row-sum-violation",
         "small_set phi sums to 1+1.000e-01"),
        ({"distributions": {"d": [1.5, -0.5]}}, "negativity-violation",
         "distribution 'd' has negative mass -5.000e-01"),
        ({"small_set": {"lambda": 1, "phi": [1.5, -0.5]}}, "negativity-violation",
         "small_set phi has negative mass -5.000e-01"),
    ],
    ids=["distribution", "phi", "negative-distribution", "negative-phi"],
)
def test_bad_distribution_mass_names_the_spec_entry(tmp_path, capsys, edits, code, message):
    exit_code, out = run_cli(capsys, "verify", "--spec", spec_variant(tmp_path, **edits))
    assert exit_code == 2
    error = json.loads(out)["error"]
    assert error["code"] == code
    assert error["message"].startswith(message)


ONE_STATE_ZEROS = {name: [0.0] for name in ("f", "v1", "v2", "v3", "v4")}


@pytest.mark.parametrize(
    "edits",
    [
        {"kernel": {0: ["0.5", "0.5"]}},
        {"functions": {"f": [True, False]}},
        {"distributions": {"d": [True, False]}},
        {"distributions": {"d": ["0.5", "0.5"]}},
        {"small_set": {"lambda": 0.5, "phi": [True, False]}},
        {"small_set": {"lambda": 1, "phi": ["0.5", "0.5"]}},
        {"states": True, "labels": ["a"], "kernel": [[1.0]], "functions": ONE_STATE_ZEROS},
        {"small_set": {"m": True}},
        {"small_set": {"C": [False]}},
        {"small_set": {"lambda": True, "phi": [0.5, 0.5]}},
    ],
    ids=["string-kernel", "bool-function", "bool-distribution", "string-distribution",
         "bool-phi", "string-phi", "bool-states", "bool-m", "bool-C", "bool-lambda"],
)
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, edits):
    # each spelling reads as a valid number to Python or numpy, and the
    # rest of the spec is valid, so only the type check can reject it
    code, out = run_cli(capsys, "verify", "--spec", spec_variant(tmp_path, **edits))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "spec-file-error"


@pytest.mark.parametrize(
    "argv", [["verify"], ["solve"], ["potential"], ["simulate", "--x0", "1"]], ids=" ".join
)
def test_small_set_past_the_power_cap_is_refused_before_allocation(tmp_path, capsys, argv):
    # the chain would keep P^0..P^m, 10**9 + 1 matrices of 2 x 2 (32 GB):
    # the spec is refused at parse, before any power is formed
    import tracemalloc

    from markov_poisson.specfile import MAX_POWER_ENTRIES

    spec = spec_variant(tmp_path, small_set={"m": 10**9})
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, argv[0], "--spec", spec, *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "spec-file-error"
    assert f"MAX_POWER_ENTRIES = {MAX_POWER_ENTRIES}" in error["message"]
    assert peak < 10 * 2**20


def test_rejected_input_report_goes_to_out_file(tmp_path, capsys):
    out_path = tmp_path / "o.json"
    spec = spec_variant(tmp_path, kernel={0: [0.5, 0.4]})
    code, out = run_cli(capsys, "verify", "--spec", spec, "--out", str(out_path))
    assert (code, out) == (2, "")
    report = json.loads(out_path.read_text())
    assert list(report) == ["command", "error", "passed"]
    assert report["error"]["code"] == "row-sum-violation"


def test_unwritable_out_file_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "validate_chain")
    out_path = tmp_path / "no" / "such" / "dir" / "o.json"
    code, out = run_cli(capsys, "verify", "--spec", str(BUNDLED_SPEC), "--out", str(out_path))
    assert code == 2
    report = json.loads(out)
    assert list(report) == ["command", "error", "passed"]
    assert report["error"]["code"] == "spec-file-error"
    assert report["error"]["message"].startswith("cannot write report file")
    assert not calls and not out_path.exists()


def test_out_file_may_replace_the_spec(tmp_path, capsys):
    # --out opens without truncating, so the spec at the same path is read first
    path = tmp_path / "spec.json"
    path.write_text(BUNDLED_SPEC.read_text())
    code, out = run_cli(capsys, "verify", "--spec", str(path), "--out", str(path))
    assert (code, out) == (0, "")
    assert json.loads(path.read_text())["inputs"]["spec"] == json.loads(BUNDLED_SPEC.read_text())


#: spec files the layout cases name in place of a path
LAYOUT_SPECS = {
    "running_example": {},
    "bad_v1": {"functions": {"v1": [4.0, 1.0]}},
    "bad_v3": {"functions": {"v3": [1.0, 10.0]}},
    "row_sum": {"kernel": {0: [0.5, 0.4]}},
}
SHORT = ["command", "error", "passed"]
FAILED = ["command", "inputs", "error", "assertions", "passed"]
RUN = ["x0", "cycles", "seed", "workers", "max_steps"]
QUEUE = ["family", "mu", "sigma", "kappa", "grid_step", "x_max", "x_points", "seed"]
SOLVE = ["poisson_residual", "occupation_matches_stationary", "cycle_f_bound",
         "cycle_tau_bound", "cycle_f_phi_bound", "cycle_tau_phi_bound", "solution_envelope",
         "comparison_inequality", "pi_f_le_b1", "phi_gstar_zero", "uniform_marginal_bound",
         "martingale_identity", "power_drift_bound"]
POTENTIAL = ["potential_residual", "poisson_residual_aperiodic", "gap_constant_per_class",
             "gap_equals_minus_pi_gstar"]


@pytest.mark.parametrize(
    "argv, keys, inputs, assertions",
    [
        pytest.param(
            ["verify", "--spec", "running_example"],
            ["command", "inputs", "certificates", "assertions", "passed"], ["spec"],
            ["drift_minorization_certificate", "second_level_certificate"], id="verify"),
        pytest.param(["verify", "--spec", "bad_v1"], FAILED, ["spec"],
                     ["verify_completed"], id="verify error"),
        pytest.param(["verify", "--spec", "row_sum"], SHORT, None, None, id="verify input"),
        pytest.param(
            ["solve", "--spec", "running_example"],
            ["command", "inputs", "certificates", "period", "pi", "pi_f", "tables", "bounds",
             "diagnostics", "assertions", "passed"], ["spec"], SOLVE, id="solve"),
        pytest.param(["solve", "--spec", "bad_v1"], FAILED, ["spec"], ["solve_completed"],
                     id="solve error"),
        pytest.param(["solve", "--spec", "row_sum"], SHORT, None, None, id="solve input"),
        pytest.param(
            ["potential", "--spec", "running_example"],
            ["command", "inputs", "period", "solve_residual", "tables", "diagnostics", "bounds",
             "assertions", "passed"], ["spec"], POTENTIAL + ["truncation_gap_bounds"],
            id="potential"),
        pytest.param(
            ["potential", "--spec", "bad_v3"],
            ["command", "inputs", "period", "solve_residual", "tables", "diagnostics", "error",
             "assertions", "passed"], ["spec"], POTENTIAL + ["potential_completed"],
            id="potential error"),
        pytest.param(["potential", "--spec", "row_sum"], SHORT, None, None, id="potential input"),
        pytest.param(
            ["simulate", "--spec", "running_example", "--x0", "1", "--cycles", "200"],
            ["command", "inputs", "estimates", "assertions", "passed"], ["spec"] + RUN,
            ["mc_matches_exact_gstar", "mc_matches_exact_pif"], id="simulate spec"),
        pytest.param(
            ["simulate", "--spec", "running_example", "--x0", "1", "--max-steps", "0"],
            FAILED, ["spec"] + RUN, ["simulation_completed"], id="simulate spec error"),
        pytest.param(["simulate", "--spec", "running_example", "--x0", "2"], SHORT, None, None,
                     id="simulate spec input"),
        pytest.param(
            ["simulate", "--gig1", "--x0", "1", "--cycles", "200"],
            ["command", "inputs", "certificate", "estimates", "assertions", "passed"],
            ["gig1"] + RUN, ["estimates_inside_envelope"], id="simulate gig1"),
        pytest.param(
            ["simulate", "--gig1", "--x0", "1", "--cycles", "200", "--max-steps", "0"],
            FAILED, ["gig1"] + RUN, ["simulation_completed"], id="simulate gig1 error"),
        pytest.param(["simulate", "--gig1", "--x0", "-3"], SHORT, None, None,
                     id="simulate gig1 input"),
        pytest.param(
            ["gig1", "--x-points", "11"],
            ["command", "inputs", "certificate", "comparison", "assertions", "passed"], QUEUE,
            ["certificate_positive", "drift_spot_check", "ours_coeff_le_competing_coeff"],
            id="gig1"),
        # HORIZON_PAD = -20 cuts the certificate search short: SearchExhausted
        pytest.param(["gig1", "--x-points", "11"], FAILED, QUEUE, ["certificate_built"],
                     id="gig1 error"),
        pytest.param(["gig1", "--grid-step", "0"], SHORT, None, None, id="gig1 input"),
    ],
)
def test_report_layout(request, tmp_path, capsys, monkeypatch, argv, keys, inputs, assertions):
    # every command shares one skeleton: a success and an error inside the
    # computation echo the inputs and list assertions, an input error gives
    # the short report; no float is compared
    if request.node.callspec.id == "gig1 error":
        from markov_poisson import gig1

        monkeypatch.setattr(gig1, "HORIZON_PAD", -20.0)
    argv = [spec_variant(tmp_path, **LAYOUT_SPECS[a]) if a in LAYOUT_SPECS else a for a in argv]
    code, out = run_cli(capsys, *argv)
    report = json.loads(out)
    assert list(report) == keys
    assert report["command"] == argv[0]
    assert report["passed"] is (code == 0)
    if inputs is None:
        assert code == 2
        return
    assert code == (1 if "error" in report else 0)
    assert list(report["inputs"]) == inputs
    assert [a["name"] for a in report["assertions"]] == assertions


def test_module_entry_point(tmp_path):
    # `python -m markov_poisson.cli` runs main and exits with its code
    import markov_poisson

    env = {**os.environ, "PYTHONPATH": str(Path(markov_poisson.__file__).parents[1])}
    for spec, expected in ((BUNDLED_SPEC, 0), (tmp_path / "missing.json", 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "markov_poisson.cli", "verify", "--spec", str(spec)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == expected, proc.stderr
        assert json.loads(proc.stdout)["passed"] is (expected == 0)


def test_cli_import_leaves_out_scipy_integrate_and_stats():
    # importing the front end loads none of the five scipy subpackages
    # below; the queue commands load scipy.special on first use, the
    # commands that factor a matrix load scipy.linalg, and no command
    # loads the other three
    import markov_poisson

    env = {**os.environ, "PYTHONPATH": str(Path(markov_poisson.__file__).parents[1])}
    probe = "\n".join([
        "import contextlib, io, sys",
        "from markov_poisson.cli import main",
        "if sys.argv[1:]:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        main(sys.argv[1:])",
        "names = ('scipy.stats', 'scipy.sparse', 'scipy.integrate', 'scipy.special',",
        "         'scipy.linalg')",
        "print([m for m in names if m in sys.modules])",
    ])
    cases = [
        ([], "[]"),
        (["verify", "--spec", str(BUNDLED_SPEC)], "[]"),
        (["gig1", "--kappa", "2"], "['scipy.special']"),
        (["simulate", "--gig1", "--kappa", "2", "--x0", "1", "--cycles", "20"],
         "['scipy.special']"),
        (["solve", "--spec", str(BUNDLED_SPEC)], "['scipy.linalg']"),
    ]
    for argv, loaded in cases:
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == loaded, argv
