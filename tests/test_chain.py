import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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


def _structured_chain(rng, periods, n_transient):
    """A kernel with one closed class per entry of ``periods``, each of that
    period, and ``n_transient`` transient states, under a random relabelling.

    Returns the kernel and, per closed class, its cyclic classes in the new
    labels. Inside a class, state 0 of each cyclic class steps to every state
    of the next and every state steps to its state 0, so the class is strongly
    connected and its cycle through the states 0 has length p. Transient state
    j steps to a closed-class state or to a transient state below j, and may
    also step to any transient state, so transient cycles occur.
    """
    blocks, start = [], 0
    for p in periods:
        sizes = rng.integers(1, 4, size=p)
        blocks.append([list(range(start + sizes[:i].sum(), start + sizes[: i + 1].sum()))
                       for i in range(p)])
        start += int(sizes.sum())
    n = start + n_transient
    adj = np.zeros((n, n), dtype=bool)
    for block in blocks:
        for i, cls in enumerate(block):
            nxt = block[(i + 1) % len(block)]
            adj[cls[0], nxt] = True
            adj[cls, nxt[0]] = True
            adj[np.ix_(cls, nxt)] |= rng.random((len(cls), len(nxt))) < 0.3
    for j in range(start, n):
        adj[j, rng.integers(0, j)] = True
        adj[j, start:] |= rng.random(n_transient) < 0.3
    kernel = np.where(adj, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    perm = rng.permutation(n)  # old label -> new label
    relabelled = np.empty_like(kernel)
    relabelled[np.ix_(perm, perm)] = kernel
    relabelled /= relabelled.sum(axis=1, keepdims=True)
    return relabelled, [[{int(perm[x]) for x in cls} for cls in block] for block in blocks]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    periods=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    n_transient=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_cyclic_decomposition_matches_strong_components(periods, n_transient, seed):
    kernel, blocks = _structured_chain(np.random.default_rng(seed), periods, n_transient)
    chain = validate_chain(kernel)
    # oracle: strongly connected components, closed when no edge leaves them
    adj = kernel > 0.0
    _, labels = connected_components(csr_matrix(adj), directed=True, connection="strong")
    u, v = np.nonzero(adj)
    closed = np.setdiff1d(labels, labels[u[labels[u] != labels[v]]])
    assert closed.size == len(periods)
    if closed.size != 1:
        message = (f"chain has {closed.size} closed communicating classes; "
                   "the stationary distribution is not unique")
        with pytest.raises(MultipleRecurrentClasses) as err:
            cyclic_decomposition(chain)
        assert str(err.value) == message
        return
    decomp = cyclic_decomposition(chain)
    assert decomp.transient == tuple(int(t) for t in np.flatnonzero(labels != closed[0]))
    assert decomp.period == periods[0]
    (block,) = blocks
    first = min(min(cls) for cls in block)
    shift = next(i for i, cls in enumerate(block) if first in cls)
    assert [set(cls) for cls in decomp.classes] == block[shift:] + block[:shift]
