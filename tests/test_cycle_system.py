"""Properties of the factored regeneration system, and invariant checks
that must survive ``python -O``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import markov_poisson
from conftest import build_instance
from markov_poisson.certify import minorize
from markov_poisson.chain import cyclic_decomposition, stationary, validate_chain
from markov_poisson.errors import InvariantViolation, SingularSystem
from markov_poisson.potential import truncated_potential, verify_truncation_gap
from markov_poisson.split import CycleSystem, hitting, marginal_curve

BUNDLED_SPEC = Path(__file__).resolve().parents[1] / "demos" / "specs" / "running_example.json"


@st.composite
def chains_with_certificates(draw):
    """A chain of at most 12 states with a maximal minorization on it.

    The recurrent class is aperiodic (p = 1) or block-cyclic with period
    2 or 3; transient states leak into it; the states are shuffled. C lies
    inside one cyclic class, so the rows of P^m over C share support, and
    |C| = 1 gives lam = 1.
    """
    n_rec = draw(st.integers(1, 10))
    n_tr = draw(st.integers(0, 12 - n_rec))
    p = draw(st.integers(1, min(3, n_rec)))
    m = draw(st.integers(1, 5))
    size_c = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_rec + n_tr
    cuts = np.sort(rng.choice(np.arange(1, n_rec), size=p - 1, replace=False))
    classes = np.split(np.arange(n_rec), cuts)
    P = np.zeros((n, n))
    for i, cls in enumerate(classes):
        nxt = classes[(i + 1) % p]
        P[np.ix_(cls, nxt)] = rng.dirichlet(np.ones(nxt.size), size=cls.size)
    for t in range(n_rec, n):
        # a transient state moves to any recurrent state or to a transient
        # state of lower or equal index, so it leaves for good eventually
        P[t, : t + 1] = rng.dirichlet(np.ones(t + 1))
    perm = rng.permutation(n)
    chain = validate_chain(P[np.ix_(perm, perm)])
    home = classes[int(rng.integers(0, p))]
    C = rng.choice(home, size=min(size_c, home.size), replace=False)
    where = np.argsort(perm)  # original state -> shuffled index
    small = minorize(chain, where[C].tolist(), m)
    return chain, small, rng


def block_sum_limit(kernel, f_c, p):
    """Independent oracle: add blocks sum_{kp<=i<(k+1)p} P^i f_c until they vanish."""
    term = f_c.copy()
    total = np.zeros_like(f_c)
    for _ in range(10**5):
        block = np.zeros_like(f_c)
        for _ in range(p):
            block += term
            term = kernel @ term
        total += block
        if np.max(np.abs(block)) <= 1e-15:
            return total
    raise AssertionError("block sums did not vanish")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(chains_with_certificates())
def test_cycle_system_invariants(case):
    chain, small, rng = case
    n = chain.n
    system = CycleSystem(chain, small)
    pi = stationary(chain).mass
    f = rng.uniform(0.0, 2.0, n)

    g = system.canonical_solution(f)
    f_c = f - pi @ f
    assert np.max(np.abs(chain.kernel @ g - g + f_c)) <= 1e-9
    assert np.abs(system.occupation_measure().mass - pi).sum() <= 1e-10

    # nonnegative charges, so the sizes compared carry no cancellation
    X = rng.uniform(0.0, 1.0, (n, 3))
    columns = np.column_stack([system.solve(X[:, j]) for j in range(3)])
    assert np.max(np.abs(system.solve(X) - columns)) <= 1e-12 * np.max(np.abs(columns))
    G_f = system.solve(f)
    assert np.max(np.abs(system.solve(np.eye(n)) @ f - G_f)) <= 1e-12 * np.max(np.abs(G_f))

    # the truncated potential's one solve against the block sum it equals
    p = cyclic_decomposition(chain).period
    g_tilde = truncated_potential(chain, f, p).g_tilde
    assert np.max(np.abs(g_tilde - block_sum_limit(chain.kernel, f_c, p))) <= 1e-9


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(chains_with_certificates())
def test_bounds_contain_exact_values_and_gap_is_constant_per_class(case):
    # hitting-sum Lyapunov functions v1..v4 on the drawn small set, as in
    # the shared instance suite; every inequality below is guaranteed
    chain, small, rng = case
    inst = build_instance("drawn", chain, rng.uniform(0.0, 2.0, chain.n), small.C, small.m)
    b, report, g = inst.bundle, inst.report, inst.g_star
    tol = 1e-10
    assert np.all(g <= report.envelope_upper + tol)
    assert np.all(g >= report.envelope_lower - tol)
    assert np.all(np.abs(g) <= report.envelope_abs + tol)
    ratio = b.m / b.lam
    assert np.all(inst.cycle_f <= b.v1 + b.b1 * ratio + tol)
    assert np.all(inst.tau <= b.v2 + b.b2 * ratio + tol)
    assert b.phi.mass @ inst.cycle_f <= report.delta1 + tol
    assert b.phi.mass @ inst.tau <= report.delta2 + tol
    curve = marginal_curve(chain, inst.f, 200)
    assert np.all(curve <= report.marginal_bound[None, :] + tol)

    p = inst.decomp.period
    result = truncated_potential(chain, inst.f, p)
    gap = verify_truncation_gap(chain, b, inst.pot, g, result)["gap"]
    for cls in inst.decomp.classes:
        assert np.ptp(gap[sorted(cls)]) <= 1e-8


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(chains_with_certificates())
def test_one_system_matches_the_first_hit_decomposition(case):
    # oracle: the two-stage derivation, G_h = u_h + H (B h + (1-lam) Q G_h)
    # with the first-hit law H and the pre-hit sums u_h on C's boundary
    chain, small, rng = case
    n = chain.n
    system = CycleSystem(chain, small)
    X = rng.uniform(0.0, 1.0, (n, 3))
    G = system.solve(X)
    for j in range(3):
        H, u = hitting(chain, small.C, X[:, j])
        core = np.eye(n)
        if system.Q is not None:
            core -= (1.0 - small.lam) * H @ system.Q
        oracle = np.linalg.solve(core, u + H @ (system.B @ X[:, j]))
        assert np.max(np.abs(G[:, j] - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(G)))


def gth_stationary(P):
    """Independent oracle: the stationary law by Grassmann-Taksar-Heyman elimination.

    It never subtracts, so it keeps full relative accuracy on nearly
    absorbing chains, where 1 - P(x, x) would cancel.
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


@st.composite
def nearly_absorbing_chains(draw):
    """A dense chain of at most 8 states with one nearly absorbing state off C.

    That state leaves with total mass 10^u, u uniform on [-16, -4], so the
    absorbing-boundary system I - P_out comes within rounding of singular.
    """
    n = draw(st.integers(2, 8))
    size_c = draw(st.integers(1, min(2, n - 1)))
    m = draw(st.integers(1, 3))
    escape = 10.0 ** draw(st.floats(-16.0, -4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.dirichlet(np.ones(n), size=n)
    C = rng.choice(n, size=size_c, replace=False)
    sticky = int(rng.choice(np.setdiff1d(np.arange(n), C)))
    others = np.arange(n) != sticky
    P[sticky, others] = escape * rng.dirichlet(np.ones(n - 1))
    P[sticky, sticky] = 1.0 - escape
    return validate_chain(P), C.tolist(), m, rng.uniform(0.0, 2.0, n)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(nearly_absorbing_chains())
def test_near_singular_systems_raise_or_answer_right(case):
    # a coded error is an honest answer; a returned solution must be right
    chain, C, m, f = case
    small = minorize(chain, C, m)
    try:
        system = CycleSystem(chain, small)
        g = system.canonical_solution(f)
        nu = system.occupation_measure().mass
    except (SingularSystem, InvariantViolation):
        return
    pi = gth_stationary(chain.kernel)
    assert np.max(np.abs(chain.kernel @ g - g + f - pi @ f)) <= 1e-9
    assert np.abs(nu - pi).sum() <= 1e-10


def test_invariant_checks_raise_coded_errors_under_python_O():
    # python -O strips assert statements; each invariant check must still
    # raise InvariantViolation, and the CLI must report it with its code
    script = textwrap.dedent(
        f"""
        import contextlib, io, json
        import numpy as np
        from markov_poisson import chain as chain_mod, split
        from markov_poisson.certify import minorize
        from markov_poisson.chain import Distribution, FiniteChain, validate_chain
        from markov_poisson.cli import main
        from markov_poisson.errors import InvariantViolation

        seen = {{"debug": __debug__}}

        def code_of(call):
            try:
                call()
            except InvariantViolation as err:
                return err.code
            return None

        # rows that do not sum to one leave no stationary fixed point
        skewed = FiniteChain(n=2, kernel=np.array([[0.5, 0.6], [0.25, 0.75]]))
        seen["stationary"] = code_of(lambda: chain_mod.stationary(skewed))

        # every chain caches the law chain.stationary returns as its pi
        wrong = Distribution(mass=[0.5, 0.5])  # the true law is (1/3, 2/3)
        chain_mod.stationary = lambda c: wrong
        chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
        small = minorize(chain, [0], 1)
        seen["poisson"] = code_of(
            lambda: split.CycleSystem(chain, small).canonical_solution([1.0, 0.0])
        )
        seen["occupation"] = code_of(lambda: split.CycleSystem(chain, small).occupation_measure())

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            seen["exit"] = main(["solve", "--spec", {str(BUNDLED_SPEC)!r}])
        seen["report_error"] = json.loads(out.getvalue())["error"]["code"]
        print(json.dumps(seen))
        """
    )
    src = str(Path(markov_poisson.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {
        "debug": False,
        "stationary": "invariant-violation",
        "poisson": "invariant-violation",
        "occupation": "invariant-violation",
        "exit": 1,
        "report_error": "invariant-violation",
    }
