"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Two criteria need care in what they hold the program to:

* A8 holds the block-truncated potential g_tilde = lim sum_{i<np} P^i f_c
  to the equation it satisfies exactly: (P - I) g_tilde = -f_c + c, where
  c(x) = p * sum_{y in D} pi(y) f_c(y) on the cyclic class D of x. With
  p = 1 this is the one-step equation itself; on periodic chains g_tilde
  differs from g* by a different constant on each class, so it solves the
  one-step equation only up to those per-class offsets.

* A10 simulates the queueing example at kappa = 1.1, where the
  certificate's small set reaches out to x0 = 13.75 and lambda ~ 6.2e-12:
  a split-chain cycle would last ~1.6e11 steps. ``mc_validate`` then
  regenerates at the queue's atom {0} and recovers the same g* as
  g_a - phi(g_a), so the check runs in seconds.
"""

import time

import numpy as np
import pytest

from markov_poisson.bounds import envelope_comparison
from markov_poisson.errors import MaxStepsExceeded
from markov_poisson.gig1 import (
    GIG1Model,
    Increment,
    build_certificate,
    drift_spot_check,
    mc_validate,
)
from markov_poisson.mc import FiniteChainSampler, run_cycles
from markov_poisson.potential import truncated_potential
from markov_poisson.split import marginal_curve


def _report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[A{num:02d}] {status} {label}{suffix}")
    return ok


def test_a01_exact_solution_solves_equation(suite):
    insts = suite.instances
    periodic = [i for i in insts if i.decomp.period in (2, 3)]
    ms = {i.bundle.m for i in insts}
    worst = max(i.poisson_residual for i in insts)
    ok = (
        len(insts) >= 50
        and len(periodic) >= 5
        and ms == {1, 2, 3}
        and worst <= 1e-9
        and suite.build_seconds < 30.0
    )
    detail = (
        f"{len(insts)} instances, {len(periodic)} periodic, worst residual "
        f"{worst:.2e}, built in {suite.build_seconds:.1f}s"
    )
    assert _report(1, "canonical solution solves the equation", ok, detail)


def test_a02_cycle_and_solution_bounds(suite):
    worst = np.inf
    for inst in suite.instances:
        b = inst.bundle
        ratio = b.m / b.lam
        slacks = [
            np.min(b.v1 + b.b1 * ratio - inst.cycle_f),
            np.min(b.v2 + b.b2 * ratio - inst.tau),
            inst.report.delta1 - float(b.phi.mass @ inst.cycle_f),
            inst.report.delta2 - float(b.phi.mass @ inst.tau),
            np.min(inst.report.envelope_upper - inst.g_star),
            np.min(inst.g_star - inst.report.envelope_lower),
            np.min(inst.report.envelope_abs - np.abs(inst.g_star)),
        ]
        worst = min(worst, float(np.min(slacks)))
    ok = worst >= -1e-10
    assert _report(2, "cycle sums and solution inside all bounds", ok, f"min slack {worst:.2e}")


def test_a03_occupation_identity(suite):
    worst = max(float(np.abs(inst.nu - inst.pi).sum()) for inst in suite.instances)
    ok = worst <= 1e-10
    assert _report(3, "occupation measure equals stationary law", ok, f"worst L1 {worst:.2e}")


def test_a04_uniform_marginal_bound(suite):
    worst = -np.inf
    for inst in suite.instances:
        curve = marginal_curve(inst.chain, inst.f, 200)
        worst = max(worst, float(np.max(curve - inst.report.marginal_bound[None, :])))
    ok = worst <= 1e-10
    assert _report(4, "marginals under the uniform bound to n=200", ok, f"worst excess {worst:.2e}")


def test_a05_one_step_normalization(suite):
    worst = 0.0
    count = 0
    for inst in suite.instances:
        if inst.bundle.m != 1:
            continue
        count += 1
        worst = max(worst, abs(float(inst.bundle.phi.mass @ inst.g_star)))
    ok = count > 0 and worst <= 1e-10
    assert _report(5, "phi-average of the solution vanishes at m=1", ok,
                   f"{count} instances, worst {worst:.2e}")


def test_a06_martingale_and_power_drift(suite):
    worst_mart = 0.0
    worst_power = -np.inf
    for inst in suite.instances:
        mart = marginal_curve(inst.chain, inst.g_star, 50)
        partial = np.cumsum(
            np.vstack([np.zeros(inst.chain.n), marginal_curve(inst.chain, inst.f_c, 49)]),
            axis=0,
        )
        worst_mart = max(worst_mart, float(np.max(np.abs(mart + partial - inst.g_star[None, :]))))
        for v, b in ((inst.bundle.v1, inst.bundle.b1), (inst.bundle.v2, inst.bundle.b2)):
            curve = marginal_curve(inst.chain, v, 100)
            steps = np.arange(101)[:, None]
            worst_power = max(worst_power, float(np.max(curve - v[None, :] - steps * b)))
    ok = worst_mart <= 1e-8 and worst_power <= 1e-8
    assert _report(6, "martingale identity and iterated drift bound", ok,
                   f"martingale {worst_mart:.2e}, drift excess {worst_power:.2e}")


def test_a07_generalized_comparison(suite):
    worst = np.inf
    for inst in suite.instances:
        slack = inst.bundle.v1 + inst.cycle_s - inst.cycle_f
        worst = min(worst, float(slack.min()))
    ok = worst >= -1e-9
    assert _report(7, "cycle comparison inequality", ok, f"min slack {worst:.2e}")


def test_a08_truncated_potential(suite, two_state):
    from markov_poisson.potential import verify_truncation_gap

    failures = []
    worst_poisson = 0.0
    for inst in suite.instances:
        p = inst.decomp.period
        result = truncated_potential(inst.chain, inst.f, p=p)
        if result.residual > 1e-10:
            failures.append(f"{inst.name}: solve residual {result.residual:.2e}")
            continue
        g_t = result.g_tilde
        # the block sum satisfies (P g_t - g_t + f_c)(x) = lim_n P^{np} f_c(x)
        # = p * sum_{y in D} pi(y) f_c(y) for x in cyclic class D; the right
        # side vanishes when p = 1, leaving the one-step equation itself
        limit = np.zeros(inst.chain.n)
        for cls in inst.decomp.classes:
            idx = list(cls)
            limit[idx] = p * float(inst.pi[idx] @ inst.f_c[idx])
        poisson = float(np.max(np.abs(inst.chain.kernel @ g_t - g_t + inst.f_c - limit)))
        worst_poisson = max(worst_poisson, poisson)
        if poisson > 1e-8:
            failures.append(f"{inst.name}: one-step residual {poisson:.2e} (period {p})")
        gap = g_t - inst.g_star
        spread = max(
            (float(np.ptp(gap[list(cls)])) if len(cls) > 1 else 0.0)
            for cls in inst.decomp.classes
        )
        if spread > 1e-8:
            failures.append(f"{inst.name}: gap varies within a class by {spread:.2e}")
        try:
            verify_truncation_gap(inst.bundle, inst.pot, inst.g_star, result)
        except Exception as err:  # BoundViolation
            failures.append(f"{inst.name}: {err}")

    # the hand-checked two-state instance with its explicit certificate data
    from markov_poisson.bounds import truncation_gap_bounds
    from markov_poisson.certify import verify_bundle, verify_potential

    ts = two_state
    bundle = verify_bundle(ts.chain, [1, 0], [1, 4], [1, 5], [0], 1)
    pot = verify_potential(bundle, [1, 17], [1, 21])
    result = truncated_potential(ts.chain, ts.f, p=1)
    gap = result.g_tilde - ts.g_star
    _, _, bound_abs = truncation_gap_bounds(bundle, pot)
    if not np.allclose(gap, 2 / 9, atol=1e-9) or bound_abs != pytest.approx(35.0):
        failures.append("two-state example gap/bound mismatch")

    ok = not failures
    detail = (
        (f"{len(failures)} failing sub-checks" if failures else "all sub-checks hold")
        + f", worst per-class residual {worst_poisson:.2e}"
    )
    _report(8, "truncated potential solves the per-class equation on every instance", ok,
            detail)
    assert ok, "; ".join(failures[:6])


def test_a09_two_state_monte_carlo(two_state):
    sc = FiniteChainSampler(two_state.bundle, two_state.f)
    t0 = time.perf_counter()
    sums, lengths = run_cycles(sc, [1], 100_000, master_seed=424242)
    pi_f = float(two_state.pi @ two_state.f)
    y = sums - pi_f * lengths
    g_est = float(y.mean())
    g_se = float(y.std(ddof=1)) / np.sqrt(len(y))
    tau_est = float(lengths.mean())
    tau_se = float(lengths.std(ddof=1)) / np.sqrt(len(lengths))
    elapsed = time.perf_counter() - t0
    sums2, lengths2 = run_cycles(sc, [1], 100_000, master_seed=424242)
    deterministic = np.array_equal(sums, sums2) and np.array_equal(lengths, lengths2)
    ok = (
        abs(g_est - (-2 / 3)) <= 3 * g_se
        and abs(tau_est - 5.0) <= 3 * tau_se
        and deterministic
        and elapsed < 10.0
    )
    detail = (
        f"g*(1)={g_est:.4f}+-{g_se:.4f}, E_tau={tau_est:.3f}+-{tau_se:.3f}, "
        f"{elapsed:.1f}s, deterministic={deterministic}"
    )
    assert _report(9, "regenerative Monte Carlo reproduces exact values", ok, detail)


def test_a10_queueing_example():
    t0 = time.perf_counter()
    failures = []
    model = GIG1Model(increment=Increment("normal", -0.5, 1.0), kappa=1.1)
    cert = build_certificate(model)
    spot = drift_spot_check(cert, 100, np.random.default_rng(2))
    if spot > 1e-6:
        failures.append(f"drift spot check violated by {spot:.2e}")
    a, competing_coeff, ours_coeff = envelope_comparison(cert.b1, cert.lam, cert.phi_v1)
    if not ours_coeff < competing_coeff:
        failures.append("coefficient comparison not strict")
    # the certificate forces lambda ~ 6.2e-12: a split-chain cycle would last
    # ~1.6e11 steps on average, while the queue's cycles regenerate at its
    # atom {0} and stay short
    try:
        result = mc_validate(
            cert, [0.0, 1.0, 2.0, 5.0, 10.0], n_cycles=200,
            master_seed=7, max_steps=2_000_000,
        )
        if not result["all_inside"]:
            failures.append("an estimate escaped the envelope")
    except MaxStepsExceeded as err:
        failures.append(
            f"simulation infeasible: {err}; lambda={cert.lam:.3e} implies "
            f"~{1 / cert.lam:.2e} steps per cycle"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s")
    ok = not failures
    detail = (
        f"x0={cert.x0:.4g}, lambda={cert.lam:.3e}, b1={cert.b1:.4f}, "
        f"coeffs {ours_coeff:.3f} < {competing_coeff:.3e}, {elapsed:.0f}s"
        + ("" if ok else "; " + "; ".join(failures))
    )
    _report(10, "queueing example pipeline with Monte Carlo validation", ok, detail)
    assert ok, "; ".join(failures)
