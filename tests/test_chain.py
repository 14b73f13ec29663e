import numpy as np
import pytest

from markov_poisson.chain import (
    Distribution,
    cyclic_decomposition,
    kernel_powers,
    stationary,
    validate_chain,
)
from markov_poisson.errors import (
    MultipleRecurrentClasses,
    NegativeEntry,
    NegativityViolation,
    RowSumViolation,
)


def test_distribution_validation():
    d = Distribution(mass=[0.5, 0.5])
    assert d.mass.sum() == 1.0
    with pytest.raises(NegativityViolation):
        Distribution(mass=[1.5, -0.5])
    with pytest.raises(RowSumViolation):
        Distribution(mass=[0.5, 0.6])


def test_validate_accepts_stochastic_rows():
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    assert chain.n == 2
    assert np.allclose(chain.kernel.sum(axis=1), 1.0)


def test_validate_accepts_single_state():
    assert validate_chain([[1.0]]).n == 1


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumViolation) as err:
        validate_chain([[0.5, 0.6], [0.25, 0.75]])
    assert err.value.row == 0
    assert err.value.deficit == pytest.approx(0.1)


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_chain([[1.1, -0.1], [0.5, 0.5]])


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_chain([[0.5, 0.5]])


def test_kernel_is_read_only():
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(ValueError):
        chain.kernel[0, 0] = 0.0


def test_stationary_two_state():
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(stationary(chain).mass, [1 / 3, 2 / 3], atol=1e-14)


def test_stationary_single_state():
    assert stationary(validate_chain([[1.0]])).mass == pytest.approx([1.0])


def test_stationary_flip_chain():
    chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(stationary(chain).mass, [0.5, 0.5], atol=1e-15)


def test_stationary_with_transient_state():
    # state 2 drains into the recurrent pair {0, 1}
    chain = validate_chain([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.3, 0.3, 0.4]])
    pi = stationary(chain).mass
    assert pi[2] == 0.0
    assert np.allclose(pi[:2], [1 / 3, 2 / 3], atol=1e-14)


def test_chain_structure_is_computed_once_and_read_only():
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    pi = chain.pi
    assert chain.pi is pi
    assert chain.cyclic is chain.cyclic
    assert pi.tolist() == stationary(chain).mass.tolist()
    with pytest.raises(ValueError):
        pi[0] = 0.5


def test_stationary_rejects_two_recurrent_classes():
    with pytest.raises(MultipleRecurrentClasses, match="chain has 2 closed communicating"):
        stationary(validate_chain(np.eye(2)))


def test_stationary_residual_on_random_chains():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        pi = stationary(chain).mass
        assert np.max(np.abs(pi @ chain.kernel - pi)) <= 1e-12


def test_kernel_power_basics():
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(kernel_powers(flip, 2)[-1], np.eye(2))
    assert np.array_equal(kernel_powers(flip, 0)[-1], np.eye(2))
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(
        kernel_powers(chain, 2)[-1], [[0.375, 0.625], [0.3125, 0.6875]], atol=1e-15
    )


def test_kernel_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kernel_powers(validate_chain([[1.0]]), -1)


def test_kernel_power_rows_stay_stochastic():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        for m in (1, 2, 7, 64):
            sums = kernel_powers(chain, m)[-1].sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-10


def test_cyclic_decomposition_flip():
    decomp = cyclic_decomposition(validate_chain([[0.0, 1.0], [1.0, 0.0]]))
    assert decomp.period == 2
    assert decomp.classes == (frozenset({0}), frozenset({1}))


def test_cyclic_decomposition_aperiodic():
    decomp = cyclic_decomposition(validate_chain([[0.5, 0.5], [0.25, 0.75]]))
    assert decomp.period == 1
    assert decomp.classes == (frozenset({0, 1}),)


def test_cyclic_decomposition_three_cycle():
    decomp = cyclic_decomposition(validate_chain([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert decomp.period == 3
    assert all(len(cls) == 1 for cls in decomp.classes)


def test_cyclic_decomposition_transient_states():
    chain = validate_chain([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    decomp = cyclic_decomposition(chain)
    assert decomp.period == 2
    assert decomp.transient == (2,)


def test_cyclic_classes_capture_all_one_step_mass(suite):
    # structural zero check: mass from D_i lands entirely in D_{i+1 mod p}
    for inst in suite.instances:
        decomp = inst.decomp
        if decomp.period == 1:
            continue
        P = inst.chain.kernel
        for i, cls in enumerate(decomp.classes):
            nxt = list(decomp.classes[(i + 1) % decomp.period])
            for x in cls:
                outside = np.setdiff1d(np.arange(inst.chain.n), nxt)
                assert np.all(P[x, outside] == 0.0)
                assert P[x, nxt].sum() == pytest.approx(1.0, abs=1e-15)
