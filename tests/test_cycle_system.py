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
from markov_poisson.chain import stationary, validate_chain
from markov_poisson.potential import truncated_potential, verify_truncation_gap
from markov_poisson.split import CycleSystem, marginal_curve

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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(chains_with_certificates())
def test_cycle_system_invariants(case):
    chain, small, rng = case
    n = chain.n
    system = CycleSystem(chain, small)
    pi = stationary(chain).mass
    f = rng.uniform(0.0, 2.0, n)

    g = system.canonical_solution(f).values
    f_c = f - pi @ f
    assert np.max(np.abs(chain.kernel @ g - g + f_c)) <= 1e-9
    assert np.abs(system.occupation_measure().mass - pi).sum() <= 1e-10

    # nonnegative charges, so the sizes compared carry no cancellation
    X = rng.uniform(0.0, 1.0, (n, 3))
    columns = np.column_stack([system.solve(X[:, j]) for j in range(3)])
    assert np.max(np.abs(system.solve(X) - columns)) <= 1e-12 * np.max(np.abs(columns))
    G_f = system.solve(f)
    assert np.max(np.abs(system.solve(np.eye(n)) @ f - G_f)) <= 1e-12 * np.max(np.abs(G_f))


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
    result = truncated_potential(chain, inst.f, p, pi=inst.pi)
    gap = verify_truncation_gap(chain, b, inst.pot, g, result, p)["gap"]
    for cls in inst.decomp.classes:
        assert np.ptp(gap[sorted(cls)]) <= 1e-8


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

        chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
        small = minorize(chain, [0], 1)
        wrong = Distribution(mass=[0.5, 0.5])  # the true law is (1/3, 2/3)
        split.stationary = lambda c: wrong
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
