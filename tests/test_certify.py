import numpy as np
import pytest

from markov_poisson.certify import (
    minorize,
    verify_bundle,
    verify_drift,
    verify_potential,
)
from markov_poisson.chain import validate_chain
from markov_poisson.errors import (
    DriftViolation,
    EmptyMinorization,
    MinorizationViolation,
    NegativityViolation,
)


@pytest.fixture
def chain():
    return validate_chain([[0.5, 0.5], [0.25, 0.75]])


def test_verify_drift_minimal_constant(chain):
    v, b = verify_drift(chain, [1, 4], [1, 0], [0])
    assert b == pytest.approx(2.5)
    assert v.tolist() == [1.0, 4.0] and not v.flags.writeable


def test_verify_drift_second_example(chain):
    _, b = verify_drift(chain, [1, 5], [1, 1], [0])
    assert b == pytest.approx(3.0)


def test_verify_drift_zero_case_clamps_b(chain):
    _, b = verify_drift(chain, [0, 0], [0, 0], [0])
    assert 0.0 < b <= 1e-12


def test_verify_drift_reports_violating_state(chain):
    # v too small at state 1: (Pv)(1) = 2.5 > v(1) - f(1) = 2
    with pytest.raises(DriftViolation) as err:
        verify_drift(chain, [1, 3], [1, 1], [0])
    assert err.value.states == [1]


def test_verify_drift_rejects_negative_inputs(chain):
    with pytest.raises(NegativityViolation):
        verify_drift(chain, [1, -1], [1, 0], [0])
    with pytest.raises(NegativityViolation):
        verify_drift(chain, [1, 4], [-1, 0], [0])


def test_drift_certificate_residual_invariant(suite):
    # residual r(x) = (Pv)(x) - v(x) + f(x) - b*I_C(x) <= tolerance everywhere
    for inst in suite.instances:
        bundle, pot = inst.bundle, inst.pot
        for v, f, b in (
            (bundle.v1, inst.f, bundle.b1),
            (bundle.v2, 1.0, bundle.b2),
            (pot.v3, bundle.v1, pot.b3),
            (pot.v4, bundle.v2, pot.b4),
        ):
            r = inst.chain.kernel @ v - v + f
            r[list(bundle.C)] -= b
            assert r.max() <= 1e-12


def test_minorize_single_row(chain):
    cert = minorize(chain, [0], 1)
    assert cert.lam == pytest.approx(1.0)
    assert np.allclose(cert.phi.mass, [0.5, 0.5])


def test_minorize_two_rows(chain):
    cert = minorize(chain, [0, 1], 1)
    assert cert.lam == pytest.approx(0.75)
    assert np.allclose(cert.phi.mass, [1 / 3, 2 / 3])


def test_minorize_disjoint_support():
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(EmptyMinorization):
        minorize(flip, [0, 1], 1)


def test_minorize_componentwise_and_maximal():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        m = int(rng.integers(1, 4))
        C = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        cert = minorize(chain, C, m)
        Pm = np.linalg.matrix_power(chain.kernel, m)
        floor = Pm[C, :].min(axis=0)
        assert np.min(floor - cert.lam * cert.phi.mass) >= -1e-12
        # any larger lambda breaks the inequality at some y
        scaled = cert.lam * (1 + 1e-9) * cert.phi.mass
        assert np.min(floor - scaled) < 0.0


def test_minorize_shrinking_c_never_decreases_lambda():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        big = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
        small = sorted(rng.choice(big, size=int(rng.integers(1, len(big))), replace=False).tolist())
        assert minorize(chain, small, 1).lam >= minorize(chain, big, 1).lam - 1e-15


def test_verify_bundle_running_example(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)
    assert (bundle.b1, bundle.b2, bundle.lam) == pytest.approx((2.5, 3.0, 1.0))


def test_verify_bundle_degenerate_single_state():
    one = validate_chain([[1.0]])
    bundle = verify_bundle(one, [0.0], [0.0], [0.0], [0], 1)
    assert bundle.lam == pytest.approx(1.0)
    assert bundle.b1 > 0.0


def test_verify_bundle_propagates_drift_violation(chain):
    with pytest.raises(DriftViolation):
        verify_bundle(chain, [1, 1], [1, 0], [1, 5], [0], 1)


def test_verify_bundle_with_supplied_minorization(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1, lam=0.8, phi=[0.5, 0.5])
    assert bundle.lam == pytest.approx(0.8)


def test_verify_bundle_rejects_overstated_lambda(chain):
    with pytest.raises(MinorizationViolation):
        verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1, lam=1.0, phi=[0.6, 0.4])


def test_verify_potential_constants(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)
    pot = verify_potential(bundle, [1, 17], [1, 21])
    assert pot.b3 == pytest.approx(9.0)
    assert pot.b4 == pytest.approx(11.0)


def test_verify_potential_detects_violation(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)
    with pytest.raises(DriftViolation) as err:
        verify_potential(bundle, [1, 10], [1, 21])
    assert err.value.states == [1]
