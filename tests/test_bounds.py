import numpy as np
import pytest

from markov_poisson.bounds import (
    delta_bound,
    finite_bound_report,
    envelope_comparison,
    uniform_marginal_bound,
    solution_envelope,
    truncation_gap_bounds,
)
from markov_poisson.certify import verify_bundle, verify_potential
from markov_poisson.chain import validate_chain


@pytest.fixture
def bundle():
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    return verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)


def test_delta_bounds_running_example(bundle):
    phi_v1 = float(bundle.phi.mass @ bundle.v1)
    phi_v2 = float(bundle.phi.mass @ bundle.v2)
    assert (phi_v1, phi_v2) == pytest.approx((2.5, 3.0))
    d1 = delta_bound(float(bundle.v1.min()), phi_v1, bundle.b1, bundle.m, bundle.lam)
    d2 = delta_bound(float(bundle.v2.min()), phi_v2, bundle.b2, bundle.m, bundle.lam)
    assert d1 == pytest.approx(5.0)  # min{1 + 5, 2.5 + 2.5}
    assert d2 == pytest.approx(6.0)  # min{1 + 6, 3 + 3}


def test_delta_bound_direct_substitution():
    assert delta_bound(inf_v=0.0, phi_v=0.0, b=1.0, m=1, lam=1.0) == pytest.approx(1.0)


def test_envelope_curves(bundle):
    upper, lower, absolute = solution_envelope(bundle, bundle.v1, bundle.v2)
    assert upper == pytest.approx([3.5, 6.5])
    assert lower == pytest.approx([-10.0, -20.0])
    assert absolute == pytest.approx([10.0, 20.0])


def test_envelope_zero_lyapunov_limit():
    chain = validate_chain([[1.0]])
    b = verify_bundle(chain, [0.0], [0.0], [0.0], [0], 1)
    # with v = 0 the curves collapse to the constant terms
    upper, lower, _ = solution_envelope(b, b.v1, b.v2)
    assert upper == pytest.approx([b.b1 * b.m / b.lam])
    assert lower == pytest.approx([-b.b1 * (b.b2 * b.m / b.lam)])


def test_marginal_bound_curve(bundle):
    curve = uniform_marginal_bound(bundle, delta1=5.0)
    assert curve == pytest.approx([8.5, 11.5])


def test_truncation_gap_bounds_running_example(bundle):
    pot = verify_potential(bundle, [1, 17], [1, 21])
    lower, upper, absolute = truncation_gap_bounds(bundle, pot)
    assert lower == pytest.approx(-11.5)
    assert upper == pytest.approx(35.0)
    assert absolute == pytest.approx(35.0)
    # on the flip chain, of period p = 2, the p*b3 and p*b4 terms are doubled
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    b = verify_bundle(flip, [1, 0], [1, 1], [1, 2], [0], 2)
    pot2 = verify_potential(b, [1, 2], [1, 3])
    assert (b.b1, b.b2, pot2.b3, pot2.b4, b.lam) == (1.0, 2.0, 2.0, 3.0, 1.0)
    lower2, upper2, _ = truncation_gap_bounds(b, pot2)
    assert lower2 == pytest.approx(-(2 * 2.0 + 1.0 * 2))
    assert upper2 == pytest.approx(1.0 * (2 * 3.0 + 2.0 * 2))


def test_envelope_comparison_values():
    a, competing, ours = envelope_comparison(b1=2.0, lam=0.5, phi_v1=1.0)
    assert (a, competing, ours) == pytest.approx((4.0, 12.0, 2.0))


def test_envelope_comparison_a_floor():
    a, competing, ours = envelope_comparison(b1=2.0, lam=1.0, phi_v1=10.0)
    assert a == pytest.approx(1.0)
    assert competing == pytest.approx(3.0)
    assert ours == pytest.approx(2.0)
    assert ours <= competing


def test_ours_never_exceeds_hl():
    rng = np.random.default_rng(3)
    for _ in range(200):
        b1 = float(rng.uniform(0.01, 50))
        lam = float(rng.uniform(0.01, 1.0))
        phi_v1 = float(rng.uniform(0.0, 100))
        a, competing, ours = envelope_comparison(b1, lam, phi_v1)
        assert a >= 1.0
        assert ours <= competing + 1e-12


def test_delta_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inf_v = float(rng.uniform(0, 5))
        phi_v = float(rng.uniform(0, 5))
        b = float(rng.uniform(0.1, 5))
        m = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.1, 1.0))
        base = delta_bound(inf_v, phi_v, b, m, lam)
        assert delta_bound(inf_v, phi_v, b * 1.1, m, lam) >= base
        assert delta_bound(inf_v, phi_v, b, m + 1, lam) >= base
        assert delta_bound(inf_v, phi_v, b, m, lam * 0.9) >= base


def test_envelope_contains_exact_solution(suite):
    for inst in suite.instances:
        assert np.all(inst.g_star <= inst.report.envelope_upper + 1e-10)
        assert np.all(inst.g_star >= inst.report.envelope_lower - 1e-10)
        assert np.all(np.abs(inst.g_star) <= inst.report.envelope_abs + 1e-10)


def test_delta1_never_exceeds_inf_branch(suite):
    for inst in suite.instances:
        b = inst.bundle
        assert inst.report.delta1 <= float(b.v1.min()) + 2 * b.b1 * b.m / b.lam + 1e-12


def test_stationary_reward_average_below_b1(suite):
    for inst in suite.instances:
        assert float(inst.pi @ inst.f) <= inst.bundle.b1 + 1e-10


def test_report_abs_is_max_of_branches(suite):
    for inst in suite.instances[:10]:
        r = inst.report
        b = inst.bundle
        other = b.b1 * (b.v2 + b.b2 * b.m / b.lam)
        assert np.allclose(r.envelope_abs, np.maximum(r.envelope_upper, other))


def test_report_serialization_round_trip(bundle):
    report = finite_bound_report(bundle)
    data = report.as_dict()
    assert data["delta1"] == pytest.approx(5.0)
    assert data["envelope_upper"] == pytest.approx([3.5, 6.5])
    assert data["comparison_a"] == pytest.approx(1.0)
