"""Command-line front end.

Subcommands: verify, solve, potential, simulate, gig1. Every command
emits one machine-readable JSON report (stdout, or --out FILE) carrying
an echo of its inputs, all computed quantities, and a pass/fail entry
per assertion. Reports are bit-faithful: floats carry 17 significant
digits, and Monte Carlo results embed their master seed, so re-running
a command with the echoed inputs reproduces the report byte for byte.

Every command shares one skeleton, :func:`main`. The command reads its
inputs and returns ``(inputs, failure_name, body)``; ``body(report,
checks)`` fills the report and records assertions. Exit codes: 0 all
assertions passed; 1 an assertion failed, or ``body`` raised a
ToolkitError, reported as the ``error`` entry plus a failed
``failure_name`` assertion; 2 a ToolkitError while reading the inputs
(an --out or --curves file that cannot be opened, a spec file that
cannot be read or parsed, an option out of range), reported as
``command``, ``error`` and ``passed`` alone. Every report goes to --out
once that file has opened, and to stdout otherwise.

One process builds the parser once (:func:`build_parser` is cached), so
an in-process call pays only for its own command. :func:`main` carries
nothing else from one call to the next: parsing returns a fresh
namespace, and the queue defaults the parser holds are only read.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import bounds as _bounds
from . import gig1 as _gig1
from .certify import minorize, verify_bundle, verify_potential
from .errors import SpecFileError, ToolkitError
from .mc import (DEFAULT_MAX_STEPS, MAX_CYCLES, FiniteChainSampler, gstar_from_cycles,
                 pif_from_cycles, run_cycles)
from .potential import truncated_potential, verify_truncation_gap
from .specfile import dumps_canonical, load_chain_spec
from .split import CycleSystem, marginal_curve

TOL_ASSERT = 1e-10
TOL_IDENTITY = 1e-8


class _Assertions(list):
    def check(self, name: str, passed: bool, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.append(entry)


def _bundle_from_spec(spec):
    f = spec.function("f")
    v1 = spec.function("v1")
    v2 = spec.function("v2")
    if spec.small is None:
        raise SpecFileError("this command needs a 'small_set' declaration")
    return verify_bundle(spec.chain, f, v1, v2, **spec.small)


def _potential_cert_from_spec(spec, bundle):
    """The second-level certificate when the spec declares v3 and v4, else None."""
    if {"v3", "v4"} <= set(spec.functions):
        return verify_potential(bundle, spec.function("v3"), spec.function("v4"))
    return None


def _certificates(bundle, pot_cert) -> dict:
    certs = {
        "b1": bundle.b1,
        "b2": bundle.b2,
        "lambda": bundle.lam,
        "m": bundle.m,
        "C": list(bundle.C),
        "phi": bundle.phi.mass,
    }
    if pot_cert is not None:
        certs["b3"] = pot_cert.b3
        certs["b4"] = pot_cert.b4
    return certs


def _verify_body(spec, report, checks):
    bundle = _bundle_from_spec(spec)
    checks.check("drift_minorization_certificate", True)
    pot_cert = _potential_cert_from_spec(spec, bundle)
    if pot_cert is not None:
        checks.check("second_level_certificate", True)
    report["certificates"] = _certificates(bundle, pot_cert)


def _solve_body(spec, report, checks):
    chain = spec.chain
    f = spec.function("f")
    bundle = _bundle_from_spec(spec)
    system = CycleSystem(bundle)
    pi = chain.pi
    pi_f = float(pi @ f)
    f_c = f - pi_f
    g = system.canonical_solution(f)
    nu = system.occupation_measure().mass
    G_f = system.solve(f)
    s_charge = np.zeros(chain.n)
    s_charge[list(bundle.C)] = bundle.b1
    G_s = system.solve(s_charge)
    tau = system.tau
    G_f_at_phi = float(system.phi @ G_f)
    tau_at_phi = float(system.phi @ tau)

    pot_cert = _potential_cert_from_spec(spec, bundle)
    breport = _bounds.finite_bound_report(bundle, pot_cert)

    poisson_residual = float(np.max(np.abs(chain.kernel @ g - g + f_c)))
    checks.check("poisson_residual", poisson_residual <= 1e-9, poisson_residual)
    l1 = float(np.abs(nu - pi).sum())
    checks.check("occupation_matches_stationary", l1 <= TOL_ASSERT, l1)
    # the upper envelope v1 + b1 m/lambda is also the bound on f's cycle sums
    checks.check("cycle_f_bound", bool(np.all(G_f <= breport.envelope_upper + TOL_ASSERT)))
    tau_bound = _bounds.cycle_bound(bundle.v2, bundle.b2, bundle.m, bundle.lam)
    checks.check("cycle_tau_bound", bool(np.all(tau <= tau_bound + TOL_ASSERT)))
    checks.check("cycle_f_phi_bound", G_f_at_phi <= breport.delta1 + TOL_ASSERT)
    checks.check("cycle_tau_phi_bound", tau_at_phi <= breport.delta2 + TOL_ASSERT)
    checks.check(
        "solution_envelope",
        bool(
            np.all(g <= breport.envelope_upper + TOL_ASSERT)
            and np.all(g >= breport.envelope_lower - TOL_ASSERT)
            and np.all(np.abs(g) <= breport.envelope_abs + TOL_ASSERT)
        ),
    )
    checks.check(
        "comparison_inequality",
        bool(np.all(G_f <= bundle.v1 + G_s + 1e-9)),
    )
    checks.check("pi_f_le_b1", pi_f <= bundle.b1 + TOL_ASSERT, pi_f)
    # phi G_{f_c} = E_phi tau * nu(f_c) and nu = pi, so phi(g*) = 0 at every m
    phi_g = float(bundle.phi.mass @ g)
    checks.check("phi_gstar_zero", abs(phi_g) <= TOL_ASSERT, phi_g)

    marg = marginal_curve(chain, f, 200)
    worst_marg = float(np.max(marg - breport.marginal_bound[None, :]))
    checks.check("uniform_marginal_bound", worst_marg <= TOL_ASSERT, worst_marg)

    mart = marginal_curve(chain, g, 50)
    partial = np.cumsum(np.vstack([np.zeros(chain.n), marginal_curve(chain, f_c, 49)]), axis=0)
    mart_res = float(np.max(np.abs(mart + partial - g[None, :])))
    checks.check("martingale_identity", mart_res <= TOL_IDENTITY, mart_res)

    ok = True
    for v, b in ((bundle.v1, bundle.b1), (bundle.v2, bundle.b2)):
        curve = marginal_curve(chain, v, 100)
        steps = np.arange(101)[:, None]
        ok &= bool(np.all(curve <= v[None, :] + steps * b + TOL_IDENTITY))
    checks.check("power_drift_bound", ok)

    report["certificates"] = _certificates(bundle, pot_cert)
    report["period"] = chain.cyclic.period
    report["pi"] = pi
    report["pi_f"] = pi_f
    report["tables"] = {
        "g_star": g,
        "expected_tau": tau,
        "cycle_f": G_f,
        "nu": nu,
        "envelope_slack_upper": breport.envelope_upper - g,
        "envelope_slack_lower": g - breport.envelope_lower,
    }
    report["bounds"] = breport.as_dict()
    report["diagnostics"] = {
        "phi_g_star": phi_g,
        "poisson_residual": poisson_residual,
        "cycle_f_at_phi": G_f_at_phi,
        "expected_tau_at_phi": tau_at_phi,
    }


def _potential_body(spec, report, checks):
    chain = spec.chain
    f = spec.function("f")
    p = chain.cyclic.period
    result = truncated_potential(chain, f, p)
    g_t = result.g_tilde
    f_c = f - float(chain.pi @ f)
    one_step = float(np.max(np.abs(chain.kernel @ g_t - g_t + f_c)))
    checks.check("potential_residual", result.residual <= TOL_ASSERT, result.residual)
    report["period"] = p
    report["solve_residual"] = result.residual
    report["tables"] = {"g_tilde": g_t}
    report["diagnostics"] = {"one_step_poisson_residual": one_step}
    if p == 1:
        checks.check("poisson_residual_aperiodic", one_step <= TOL_IDENTITY, one_step)

    if spec.small is not None and {"f", "v1", "v2"} <= set(spec.functions):
        bundle = _bundle_from_spec(spec)
        g = CycleSystem(bundle).canonical_solution(f)
        gap = g_t - g
        report["tables"]["g_star"] = g
        report["tables"]["gap"] = gap
        spread = max(
            float(np.ptp(gap[list(cls)])) if len(cls) > 1 else 0.0
            for cls in chain.cyclic.classes
        )
        checks.check("gap_constant_per_class", spread <= TOL_IDENTITY, spread)
        if p == 1:
            expected = -float(chain.pi @ g)
            dev = float(np.max(np.abs(gap - expected)))
            checks.check("gap_equals_minus_pi_gstar", dev <= TOL_IDENTITY, dev)
        pot_cert = _potential_cert_from_spec(spec, bundle)
        if pot_cert is not None:
            try:
                truncation_gap = verify_truncation_gap(bundle, pot_cert, g, result)
                checks.check("truncation_gap_bounds", True)
                report["bounds"] = {
                    "gap_lower": truncation_gap["bound_lower"],
                    "gap_upper": truncation_gap["bound_upper"],
                    "gap_abs": truncation_gap["bound_abs"],
                }
                report["tables"]["gap_slack_upper"] = truncation_gap["slack_upper"]
                report["tables"]["gap_slack_lower"] = truncation_gap["slack_lower"]
            except ToolkitError as err:
                checks.check("truncation_gap_bounds", False, str(err))


#: the commands that read one chain-spec: (name, help, body, failure name)
SPEC_COMMANDS = (
    ("verify", "check certificates declared in a chain-spec", _verify_body, "verify_completed"),
    ("solve", "exact solution, occupation law, and all bounds", _solve_body, "solve_completed"),
    ("potential", "block-truncated potential sum and its gap", _potential_body,
     "potential_completed"),
)


def cmd_spec(args, body, failure_name):
    """A command of SPEC_COMMANDS: load the spec, echo it, run ``body`` on it."""
    spec = load_chain_spec(args.spec)
    return {"spec": spec.document}, failure_name, functools.partial(body, spec)


def _state_index(text: str, n: int) -> int:
    """--x0 with --spec: a state index in 0..n-1."""
    try:
        x0 = int(text)
    except ValueError:
        x0 = -1
    if not 0 <= x0 < n:
        raise SpecFileError(f"--x0 must be a state index in 0..{n - 1}, got {text!r}")
    return x0


def _waiting_time(text: str) -> float:
    """--x0 with --gig1: a finite waiting time >= 0."""
    try:
        x0 = float(text)
    except ValueError:
        x0 = math.nan
    if not (math.isfinite(x0) and x0 >= 0.0):
        raise SpecFileError(f"--x0 must be a finite waiting time >= 0, got {text!r}")
    return x0


def _check_seed(seed: int) -> None:
    """--seed: a master seed in 0..2**64 - 1, the range of the stream keys."""
    if not 0 <= seed < 2**64:
        raise SpecFileError(f"--seed must be in 0..2**64 - 1, got {seed}")


def _queue_options_given(args) -> dict:
    """The queue options given on the command line, by name."""
    return {name: value for name in args.queue_defaults
            if (value := getattr(args, name)) is not None}


def _gig1_model(args) -> tuple[_gig1.GIG1Model, dict]:
    """The queue model the options describe and their echo; a bad value is a spec-file error."""
    queue = {**args.queue_defaults, **_queue_options_given(args)}
    try:
        model = _gig1.GIG1Model(
            increment=_gig1.Increment(queue["family"], queue["mu"], queue["sigma"]),
            kappa=queue["kappa"],
            step=queue["grid_step"],
        )
    except ValueError as err:
        raise SpecFileError(str(err)) from None
    return model, queue


def cmd_simulate(args):
    """Regenerative Monte Carlo on a chain-spec (--spec) or on the queue (--gig1)."""
    if (args.spec is None) == (not args.gig1):
        raise SpecFileError("simulate needs exactly one of --spec or --gig1")
    if not args.gig1 and (given := _queue_options_given(args)):
        option = "--" + next(iter(given)).replace("_", "-")
        raise SpecFileError(f"{option} is a queue option and needs --gig1")
    if args.cycles < 2:
        # one cycle gives a point but no standard error
        raise SpecFileError(f"--cycles must be at least 2, got {args.cycles}")
    if args.cycles > MAX_CYCLES:
        raise SpecFileError(f"--cycles must be at most {MAX_CYCLES}, got {args.cycles}")
    if args.workers < 1:
        raise SpecFileError(f"--workers must be at least 1, got {args.workers}")
    if args.max_steps < 0:
        raise SpecFileError(f"--max-steps must be at least 0, got {args.max_steps}")
    _check_seed(args.seed)
    if args.gig1:
        x0 = _waiting_time(args.x0)
        model, queue = _gig1_model(args)
        mode = {"gig1": queue}
        body = functools.partial(_simulate_queue, model, x0, args)
    else:
        spec = load_chain_spec(args.spec)
        x0 = _state_index(args.x0, spec.chain.n)
        mode = {"spec": spec.document}
        body = functools.partial(_simulate_chain, spec, x0, args)
    inputs = {
        **mode,
        "x0": args.x0,
        "cycles": args.cycles,
        "seed": args.seed,
        "workers": args.workers,
        "max_steps": args.max_steps,
    }
    return inputs, "simulation_completed", body


def _simulate_chain(spec, x0, args, report, checks):
    chain = spec.chain
    f = spec.function("f")
    if spec.small is None:
        raise SpecFileError("simulate needs a 'small_set' declaration")
    cert = minorize(chain, **spec.small)
    system = CycleSystem(cert)
    pi_f = float(chain.pi @ f)
    g_exact = system.canonical_solution(f)
    sc = FiniteChainSampler(cert, f)
    n = args.cycles
    sums, lengths = run_cycles(sc, [None, x0], n, args.seed, args.workers, args.max_steps)
    pif_est = pif_from_cycles(sums[:n], lengths[:n])
    g_est = gstar_from_cycles(sums[n:], lengths[n:], pi_f)
    report["estimates"] = {
        "pi_f": {"point": pif_est.point, "std_error": pif_est.std_error},
        "g_star_x0": {"point": g_est.point, "std_error": g_est.std_error},
        "exact": {"pi_f": pi_f, "g_star_x0": float(g_exact[x0])},
        "n_cycles": args.cycles,
        "seed": args.seed,
    }
    checks.check(
        "mc_matches_exact_gstar",
        abs(g_est.point - g_exact[x0]) <= 3.0 * g_est.std_error,
        g_est.point - float(g_exact[x0]),
    )
    checks.check(
        "mc_matches_exact_pif",
        abs(pif_est.point - pi_f) <= 3.0 * pif_est.std_error,
        pif_est.point - pi_f,
    )


def _simulate_queue(model, x0, args, report, checks):
    cert = _gig1.build_certificate(model)
    result = _gig1.mc_validate(
        cert, [x0], args.cycles, args.seed,
        workers=args.workers, max_steps=args.max_steps,
    )
    report["certificate"] = {
        "x0": cert.x0, "lambda": cert.lam, "b1": cert.b1, "c1": cert.model.c1,
    }
    report["estimates"] = result
    checks.check("estimates_inside_envelope", result["all_inside"])


def cmd_gig1(args):
    _check_seed(args.seed)
    if not (math.isfinite(args.x_max) and args.x_max >= 0.0):
        raise SpecFileError(f"--x-max must be finite and >= 0, got {args.x_max}")
    if not 1 <= args.x_points <= _gig1.MAX_GRID_POINTS:
        raise SpecFileError(
            f"--x-points must lie in 1..{_gig1.MAX_GRID_POINTS}, got {args.x_points}"
        )
    if args.curves:
        _check_writable(args.curves, "curve")
    model, queue = _gig1_model(args)
    inputs = {**queue, "x_max": args.x_max, "x_points": args.x_points, "seed": args.seed}

    def body(report, checks):
        cert = _gig1.build_certificate(model)
        a, competing, ours = _bounds.envelope_comparison(cert.b1, cert.lam, cert.phi_v1)
        worst = _gig1.drift_spot_check(cert, 100, np.random.default_rng(args.seed))
        report["certificate"] = {
            "x0": cert.x0,
            "lambda": cert.lam,
            "b1": cert.b1,
            "b2": cert.b2,
            "c1": cert.model.c1,
            "phi_atom": cert.phi_atom(),
            "phi_v1": cert.phi_v1,
        }
        report["comparison"] = {"a": a, "competing_asymptotic_coeff": competing,
                                "ours_asymptotic_coeff": ours}
        checks.check("certificate_positive", 0.0 < cert.lam < 1.0 and cert.b1 > 0.0)
        checks.check("drift_spot_check", worst <= 1e-6, worst)
        checks.check("ours_coeff_le_competing_coeff", ours <= competing + 1e-12)
        report["comparison"]["strictly_tighter"] = bool(ours < competing)
        if args.curves:
            xs = np.linspace(0.0, args.x_max, args.x_points)
            curves = _gig1.bound_curves(cert, xs)
            table = np.column_stack(
                [xs, curves["ours_upper"], curves["ours_lower"], curves["ours_abs"], curves["competing"]]
            )
            np.savetxt(
                args.curves,
                table,
                fmt="%.17g",
                header="x ours_upper ours_lower ours_abs competing",
            )
            report["curve_file"] = args.curves

    return inputs, "certificate_built", body


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="markov-poisson",
        description="Certificates, exact solutions, bounds, and regenerative "
        "Monte Carlo for Poisson's equation on Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True, help="chain-spec JSON file")

    def add_queue(p, kappa):
        # an option left out stays None, so simulate can tell it was not given
        p.set_defaults(queue_defaults={"family": "normal", "mu": -0.5, "sigma": 1.0,
                                       "kappa": kappa, "grid_step": 0.01})
        p.add_argument("--family", choices=_gig1.FAMILIES, help="queue increment family")
        p.add_argument("--mu", type=float, help="queue increment location")
        p.add_argument("--sigma", type=float, help="queue increment scale")
        p.add_argument("--kappa", type=float, help="queue drift margin parameter, > 1")
        p.add_argument("--grid-step", type=float, help="queue quadrature spacing")

    for name, help_, body, failure_name in SPEC_COMMANDS:
        p = sub.add_parser(name, help=help_, parents=[spec, out])
        p.set_defaults(func=functools.partial(cmd_spec, body=body, failure_name=failure_name))

    p = sub.add_parser("simulate", help="regenerative Monte Carlo estimates", parents=[out])
    p.add_argument("--spec", default=None, help="finite-chain spec file")
    p.add_argument("--gig1", action="store_true", help="simulate the queueing example instead")
    p.add_argument("--x0", required=True, help="starting state (index, or waiting time with --gig1)")
    p.add_argument("--cycles", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    add_queue(p, kappa=2.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gig1", help="queueing-example certificate, curves, comparison",
                       parents=[out])
    add_queue(p, kappa=1.1)
    p.add_argument("--x-max", type=float, default=20.0)
    p.add_argument("--x-points", type=int, default=201)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curves", default=None, help="write bound curves as columnar text here")
    p.set_defaults(func=cmd_gig1)
    return parser


def _check_writable(path, what: str):
    """Open --out or --curves before any work; append mode leaves a spec at that path
    readable, and a file the probe creates is removed, so a failed run leaves none."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as err:
        raise SpecFileError(f"cannot write {what} file: {err}") from None
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": args.command}
    out = None
    checks = None
    try:
        if args.out:
            _check_writable(args.out, "report")
            out = args.out
        inputs, failure_name, body = args.func(args)
        report["inputs"] = inputs
        checks = _Assertions()
        body(report, checks)
        body = None  # frees the op's chain and its cached powers before the report is written
    except ToolkitError as err:
        report["error"] = {"code": err.code, "message": str(err)}
        if checks is not None:
            checks.check(failure_name, False, str(err))
    if checks is None:  # the inputs were rejected before any computation
        report["passed"] = False
        code = 2
    else:
        report["assertions"] = checks
        report["passed"] = all(item["passed"] for item in checks)
        code = 0 if report["passed"] else 1
    text = dumps_canonical(report) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
