import numpy as np
import pytest

from markov_poisson.certify import (
    Distribution,
    SmallSetCertificate,
    minorize,
    verify_bundle,
)
from markov_poisson.chain import validate_chain
from markov_poisson.errors import (
    InconsistentCertificate,
    MinorizationViolation,
    Unreachable,
)
from markov_poisson.split import CycleSystem, hitting, marginal_curve


@pytest.fixture
def chain():
    return validate_chain([[0.5, 0.5], [0.25, 0.75]])


@pytest.fixture
def bundle(chain):
    return verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)


def test_residual_kernel_empty_when_lambda_one(chain):
    Q = CycleSystem(minorize(chain, [0], 1)).Q
    assert Q.shape == (1, 2) and not Q.any() and not Q.flags.writeable


def test_residual_kernel_rows(chain):
    Q = CycleSystem(minorize(chain, [0, 1], 1)).Q
    assert np.allclose(Q, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_residual_kernel_rejects_overstated_certificate(chain):
    # building the certificate checks it, so no system is ever formed
    with pytest.raises(MinorizationViolation):
        SmallSetCertificate(chain, (0, 1), 1, 0.9, Distribution(mass=[1 / 3, 2 / 3]))


def test_hitting_running_example(chain):
    H, u_f = hitting(chain, [0], [1, 0])
    assert np.allclose(H, [[1.0], [1.0]])
    assert np.allclose(u_f, [0.0, 0.0])
    _, u_e = hitting(chain, [0], [1, 1])
    assert u_e == pytest.approx([0.0, 4.0])


def test_hitting_from_inside_c_is_trivial(chain):
    H, u = hitting(chain, [0, 1], [5.0, 7.0])
    assert np.array_equal(H, np.eye(2))
    assert np.array_equal(u, np.zeros(2))


def test_hitting_unreachable():
    with pytest.raises(Unreachable) as err:
        hitting(validate_chain(np.eye(2)), [0], [1, 1])
    assert err.value.state == 1


def test_cycle_values_running_example(chain, bundle):
    system = CycleSystem(bundle)
    assert system.solve([2 / 3, -1 / 3]) == pytest.approx([2 / 3, -2 / 3])
    assert system.tau == pytest.approx([1.0, 5.0])
    assert system.phi @ system.tau == pytest.approx(3.0)


def test_cycle_values_zero_charge(chain, bundle):
    assert np.array_equal(CycleSystem(bundle).solve([0, 0]), [0.0, 0.0])


def test_cycle_values_nonnegative_for_nonnegative_charge(suite):
    for inst in suite.instances[:10]:
        assert inst.cycle_f.min() >= -1e-12


def test_tau_dominates_first_hit_plus_m(suite):
    for inst in suite.instances:
        _, u_e = hitting(inst.chain, inst.bundle.C, np.ones(inst.chain.n))
        assert np.all(inst.tau >= u_e + inst.bundle.m - 1e-9)


def test_canonical_solution_running_example(chain, bundle):
    g = CycleSystem(bundle).canonical_solution([1, 0])
    assert g == pytest.approx([2 / 3, -2 / 3])
    # matches the pinned linear-solve solution (4/3, 0) up to the constant -2/3
    assert g - np.array([4 / 3, 0.0]) == pytest.approx([-2 / 3, -2 / 3])


def test_canonical_solution_constant_reward(chain, bundle):
    g = CycleSystem(bundle).canonical_solution([3.5, 3.5])
    assert np.max(np.abs(g)) <= 1e-12


def test_phi_gstar_vanishes_at_m_equal_one(chain, bundle):
    g = CycleSystem(bundle).canonical_solution([1, 0])
    assert abs(bundle.phi.mass @ g) <= 1e-10


def test_two_step_certificate_hand_values(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 2)
    system = CycleSystem(bundle)
    g = system.canonical_solution([1, 0])
    assert g == pytest.approx([5 / 6, -1 / 2])
    assert system.tau == pytest.approx([2.0, 6.0])


def test_three_cycle_hand_values():
    chain = validate_chain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    _, v1 = hitting(chain, [0], [1, 0, 0])
    _, v2 = hitting(chain, [0], np.ones(3))
    bundle = verify_bundle(chain, [1, 0, 0], v1, v2, [0], 3)
    system = CycleSystem(bundle)
    g = system.canonical_solution([1, 0, 0])
    assert g == pytest.approx([0.0, -2 / 3, -1 / 3], abs=1e-12)
    assert system.tau == pytest.approx([3.0, 5.0, 4.0])


def test_occupation_measure_examples(chain, bundle):
    assert CycleSystem(bundle).occupation_measure().mass == pytest.approx([1 / 3, 2 / 3])
    one = validate_chain([[1.0]])
    b1 = verify_bundle(one, [0.0], [0.0], [0.0], [0], 1)
    assert CycleSystem(b1).occupation_measure().mass == pytest.approx([1.0])


def test_occupation_measure_three_cycle_uniform():
    chain = validate_chain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    _, v1 = hitting(chain, [0], [1, 0, 0])
    _, v2 = hitting(chain, [0], np.ones(3))
    bundle = verify_bundle(chain, [1, 0, 0], v1, v2, [0], 3)
    assert CycleSystem(bundle).occupation_measure().mass == pytest.approx([1 / 3] * 3)


def test_exact_marginal_examples(chain):
    curve = marginal_curve(chain, [1, 0], 2)
    assert curve[0, 1] == pytest.approx(0.0)
    assert curve[0, 0] == pytest.approx(1.0)
    assert curve[1, 1] == pytest.approx(0.25)
    assert curve[2, 1] == pytest.approx(0.3125)


def test_bridge_sums_zero_for_one_step(chain):
    # at m = 1 there is no bridge: the block charge is h itself on C
    h = np.array([1.0, 2.0])
    system = CycleSystem(minorize(chain, [0], 1))
    assert np.array_equal(system.B @ h, h[[0]])


def test_bridge_sums_match_path_enumeration(chain):
    # m = 2: the block charge at w is h(w) plus the bridge term
    # sum_y [lam*phi(y) + (1-lam)*Q(w,y)] * sum_z P(w,z) h(z) P(z,y) / P^2(w,y)
    small = minorize(chain, [0, 1], 2)
    assert 0.0 < small.lam < 1.0
    h = np.array([0.7, -0.2])
    system = CycleSystem(small)
    P = chain.kernel
    P2 = P @ P
    Q = system.Q
    for i, w in enumerate(small.C):
        direct = h[w]
        for y in range(2):
            weight = small.lam * small.phi.mass[y] + (1.0 - small.lam) * Q[i, y]
            bridge = sum(P[w, z] * h[z] * P[z, y] for z in range(2)) / P2[w, y]
            direct += weight * bridge
        assert (system.B @ h)[i] == pytest.approx(direct, rel=1e-14)


def test_inconsistent_certificate_rejected():
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    # lambda small enough to pass the minorization tolerance while phi
    # keeps real mass on an endpoint that one step cannot reach
    tiny = SmallSetCertificate(flip, (0,), 1, 1e-8, Distribution(mass=[1e-5, 1.0 - 1e-5]))
    with pytest.raises(InconsistentCertificate):
        CycleSystem(tiny)


def test_cycle_system_factors_one_matrix(monkeypatch):
    # one LU of I - K serves every charge, with states both on and off C
    # and a residual kernel on C (lam < 1)
    import scipy.linalg

    rng = np.random.default_rng(6)
    chain = validate_chain(rng.dirichlet(np.ones(6), size=6))
    small = minorize(chain, [0, 1], 1)
    assert small.lam < 1.0
    shapes = []
    original = scipy.linalg.lu_factor

    def counted(A, *args, **kwargs):
        shapes.append(A.shape)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    CycleSystem(small)
    assert shapes == [(6, 6)]


def test_hitting_on_every_state_solves_nothing(monkeypatch):
    # C = every state leaves no state outside C: point masses, a zero
    # charge sum and no factorization
    from markov_poisson import split

    factored = []
    monkeypatch.setattr(split, "_lu", lambda A: factored.append(A.shape))
    chain = validate_chain(np.random.default_rng(11).dirichlet(np.ones(4), size=4))
    H, u = hitting(chain, [3, 1, 0, 2], [1.0, 2.0, 3.0, 4.0])
    assert factored == []
    assert np.array_equal(H, np.eye(4))
    assert np.array_equal(u, np.zeros(4))


@pytest.mark.parametrize("C", [[], [-1], [4], [0, 4]])
def test_hitting_refuses_a_set_outside_the_states(C):
    chain = validate_chain(np.random.default_rng(11).dirichlet(np.ones(4), size=4))
    with pytest.raises(ValueError):
        hitting(chain, C, np.ones(4))


def test_singular_system_guard():
    import warnings

    from markov_poisson.split import _lu
    from markov_poisson.errors import SingularSystem

    with pytest.raises(SingularSystem), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the zero pivot first
        _lu(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_charge_shape_mismatch_rejected(chain, bundle):
    with pytest.raises(ValueError):
        CycleSystem(bundle).solve([1.0, 2.0, 3.0])


def test_poisson_residual_small_random_sweep():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        f = rng.uniform(0, 2, n)
        C = sorted(rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist())
        _, v1 = hitting(chain, C, f)
        _, v2 = hitting(chain, C, np.ones(n))
        bundle = verify_bundle(chain, f, v1, v2, C, int(rng.integers(1, 4)))
        g = CycleSystem(bundle).canonical_solution(f)
        from markov_poisson.chain import stationary

        f_c = f - stationary(chain).mass @ f
        assert np.max(np.abs(chain.kernel @ g - g + f_c)) <= 1e-9


def test_comparison_inequality_on_suite(suite):
    # any valid drift (v, f, s = b*I_C) bounds the f-cycle by v + s-cycle
    for inst in suite.instances:
        lhs = inst.cycle_f
        rhs = inst.bundle.v1 + inst.cycle_s
        assert np.all(lhs <= rhs + 1e-9)


def test_martingale_identity_on_suite(suite):
    for inst in suite.instances[:20]:
        mart = marginal_curve(inst.chain, inst.g_star, 50)
        partial = np.cumsum(
            np.vstack([np.zeros(inst.chain.n), marginal_curve(inst.chain, inst.f_c, 49)]),
            axis=0,
        )
        assert np.max(np.abs(mart + partial - inst.g_star[None, :])) <= 1e-8


def test_power_drift_inequality_on_suite(suite):
    for inst in suite.instances[:20]:
        for v, b in ((inst.bundle.v1, inst.bundle.b1), (inst.bundle.v2, inst.bundle.b2)):
            curve = marginal_curve(inst.chain, v, 100)
            steps = np.arange(101)[:, None]
            assert np.all(curve <= v[None, :] + steps * b + 1e-8)


def test_atom_solution_shifted_by_phi_average_is_gstar(suite):
    # regenerating at any single state a is a certificate with m = 1, lam = 1
    # and phi = P(a, .); its canonical solution g_a solves the same Poisson
    # equation, and phi(g*) = 0 at m = 1 fixes the constant: g* = g_a - phi(g_a)
    pairs = 0
    for inst in suite.instances:
        if inst.bundle.m != 1:
            continue
        for a in range(inst.chain.n):
            atom = SmallSetCertificate(
                inst.chain, (a,), 1, 1.0, Distribution(mass=inst.chain.kernel[a])
            )
            g_a = CycleSystem(atom).canonical_solution(inst.f)
            shifted = g_a - float(inst.bundle.phi.mass @ g_a)
            assert np.max(np.abs(shifted - inst.g_star)) <= 1e-12, (inst.name, a)
            pairs += 1
    assert pairs > 0
