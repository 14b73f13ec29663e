import json
from pathlib import Path

import numpy as np
import pytest

from markov_poisson.cli import main
from markov_poisson.specfile import dumps_canonical, parse_chain_spec

BUNDLED_SPEC = Path(__file__).resolve().parents[1] / "demos" / "specs" / "running_example.json"


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


def test_gig1_simulate_mode(capsys):
    code, out = run_cli(
        capsys,
        "simulate", "--gig1", "--kappa", "2.0",
        "--x0", "1.0", "--cycles", "2000", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimates"]["all_inside"] is True


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
        ["--gig1", "--x0", "abc"],
        ["--gig1", "--x0", "-3"],
        ["--gig1", "--x0", "nan"],
        ["--gig1", "--x0", "inf"],
        ["--gig1", "--x0", "1", "--cycles", "0"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != str(BUNDLED_SPEC)),
)
def test_simulate_rejects_start_state_and_cycle_count_out_of_range(capsys, argv):
    # the state index must lie in 0..n-1 (n = 2 here), the waiting time
    # must be finite and >= 0, and at least one cycle must run
    code, out = run_cli(capsys, "simulate", *argv)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["code"] == "spec-file-error"


def test_simulate_spec_honours_max_steps(capsys):
    code, out = run_cli(capsys, "simulate", "--spec", str(BUNDLED_SPEC), "--x0", "1",
                        "--cycles", "100", "--max-steps", "0")
    assert code == 1
    report = json.loads(out)
    assert report["inputs"]["max_steps"] == 0
    assert report["error"]["code"] == "max-steps-exceeded"


@pytest.mark.parametrize("command", [["gig1"], ["simulate", "--gig1", "--x0", "1"]])
@pytest.mark.parametrize(
    "option",
    [
        ["--grid-step", "0"],
        ["--grid-step", "-0.01"],
        ["--grid-step", "nan"],
        ["--kappa", "1"],
        ["--mu", "0.5"],
        ["--sigma", "-1"],
        ["--sigma", "inf"],
    ],
    ids=" ".join,
)
def test_queue_parameters_out_of_range_are_input_errors(capsys, command, option):
    code, out = run_cli(capsys, *command, *option)
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
    code, out = run_cli(capsys, "gig1", "--tail-sigmas", "1.5")
    assert (code, json.loads(out)["error"]["code"]) == (2, "quadrature-failure")


def _count_calls(monkeypatch, name, modules):
    """Count calls of a chain-layer function through every module binding it."""
    import importlib

    calls = []
    original = getattr(importlib.import_module("markov_poisson.chain"), name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in modules:
        module = importlib.import_module(f"markov_poisson.{mod}")
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_simulate_builds_kernel_powers_once(tmp_path, capsys, monkeypatch):
    # the sampler takes P^1..P^m and the residual rows from the op's
    # CycleSystem: one kernel_powers call per op, with and without a bridge
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
        calls = _count_calls(monkeypatch, "kernel_powers", ("chain", "split", "mc", "cli"))
        code, out = run_cli(capsys, "simulate", "--spec", str(spec), "--x0", "1",
                            "--cycles", "200", "--seed", "1")
        assert code == 0
        assert len(calls) == 1, spec


def test_potential_solves_for_pi_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "stationary", ("chain", "split", "potential", "cli"))
    code, _ = run_cli(capsys, "potential", "--spec", str(BUNDLED_SPEC))
    assert code == 0
    assert len(calls) == 1
