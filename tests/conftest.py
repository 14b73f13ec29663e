"""Shared instance suite: randomized finite chains with valid certificates.

Lyapunov functions are constructed from exact expected hitting sums,

    v1 = E_x sum_{j<T_C} (f + 1)(X_j),   v2 = E_x sum_{j<T_C} 2,
    v3 = E_x sum_{j<T_C} (v1 + 1)(X_j),  v4 = E_x sum_{j<T_C} (v2 + 1)(X_j),

so off C each drift inequality (Pv)(x) <= v(x) - h(x) holds with a margin
of exactly 1, as in perfbench's inputs. Plain hitting sums (charges f, 1,
v1, v2) hold it with equality, and on chains with long hitting times
rounding alone then decides whether the 1e-12 drift tolerance accepts them.

The suite mixes dense aperiodic chains, block-cyclic periodic chains
(period 2 and 3, small set inside one cyclic class), and the three
canonical hand-checked instances. It is session-scoped and timed; the
acceptance tests reuse it across criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from markov_poisson.bounds import BoundReport, finite_bound_report
from markov_poisson.certify import (
    CertificateBundle,
    PotentialCertificate,
    verify_bundle,
    verify_potential,
)
from markov_poisson.chain import (
    CyclicDecomposition,
    FiniteChain,
    validate_chain,
)
from markov_poisson.split import CycleSystem, hitting

SUITE_SEED = 20240801


@dataclass(frozen=True)
class Instance:
    name: str
    chain: FiniteChain
    f: np.ndarray
    bundle: CertificateBundle
    pot: PotentialCertificate
    v3: np.ndarray
    v4: np.ndarray
    decomp: CyclicDecomposition
    pi: np.ndarray
    f_c: np.ndarray
    g_star: np.ndarray
    poisson_residual: float
    cycle_f: np.ndarray  # G_f(x) = E_x sum_{j<tau} f(X_j)
    cycle_s: np.ndarray  # the same for s = b1 * I_C
    tau: np.ndarray  # E_x tau
    nu: np.ndarray
    report: BoundReport


@dataclass(frozen=True)
class Suite:
    instances: list
    build_seconds: float


def random_aperiodic_chain(rng: np.random.Generator, n: int) -> FiniteChain:
    return validate_chain(rng.dirichlet(np.ones(n), size=n))


def random_periodic_chain(rng: np.random.Generator, n: int, p: int):
    """Block-cyclic chain with period exactly p; returns (chain, classes)."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=p - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    classes = []
    start = 0
    for size in sizes:
        classes.append(np.arange(start, start + size))
        start += size
    P = np.zeros((n, n))
    for i, cls in enumerate(classes):
        nxt = classes[(i + 1) % p]
        for x in cls:
            P[x, nxt] = rng.dirichlet(np.ones(len(nxt)))
    return validate_chain(P), classes


def build_instance(name: str, chain: FiniteChain, f: np.ndarray, C, m: int) -> Instance:
    n = chain.n
    _, v1 = hitting(chain, C, f + 1.0)
    _, v2 = hitting(chain, C, np.full(n, 2.0))
    bundle = verify_bundle(chain, f, v1, v2, C, m)
    _, v3 = hitting(chain, C, v1 + 1.0)
    _, v4 = hitting(chain, C, v2 + 1.0)
    pot = verify_potential(chain, bundle, v3, v4)
    pi = chain.pi
    f_c = f - float(pi @ f)
    system = CycleSystem(chain, bundle)
    g = system.canonical_solution(f)
    residual = float(np.max(np.abs(chain.kernel @ g - g + f_c)))
    s = np.zeros(n)
    s[list(bundle.C)] = bundle.b1
    nu = system.occupation_measure().mass
    decomp = chain.cyclic
    report = finite_bound_report(bundle, pot, decomp.period)
    return Instance(
        name=name,
        chain=chain,
        f=f,
        bundle=bundle,
        pot=pot,
        v3=v3,
        v4=v4,
        decomp=decomp,
        pi=pi,
        f_c=f_c,
        g_star=g,
        poisson_residual=residual,
        cycle_f=system.solve(f),
        cycle_s=system.solve(s),
        tau=system.tau,
        nu=nu,
        report=report,
    )


def _canonical_instances() -> list:
    out = []
    two_state = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    out.append(build_instance("two-state", two_state, np.array([1.0, 0.0]), (0,), 1))
    one_state = validate_chain([[1.0]])
    out.append(build_instance("one-state", one_state, np.array([0.0]), (0,), 1))
    cycle3 = validate_chain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    out.append(build_instance("three-cycle", cycle3, np.array([1.0, 0.0, 0.0]), (0,), 3))
    return out


def build_suite() -> Suite:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SUITE_SEED)
    instances = _canonical_instances()
    ms = [1, 2, 3]
    for k in range(42):
        n = int(rng.integers(2, 21))
        chain = random_aperiodic_chain(rng, n)
        f = rng.uniform(0.0, 2.0, size=n)
        m = ms[k % 3]
        size = int(rng.integers(1, min(n, 4) + 1))
        C = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        instances.append(build_instance(f"aperiodic-{k}", chain, f, C, m))
    for k in range(10):
        p = 2 if k % 2 == 0 else 3
        n = int(rng.integers(2 * p, 21))
        chain, classes = random_periodic_chain(rng, n, p)
        f = rng.uniform(0.0, 2.0, size=n)
        m = ms[k % 3]
        home = classes[int(rng.integers(0, p))]
        size = int(rng.integers(1, min(len(home), 3) + 1))
        C = tuple(sorted(rng.choice(home, size=size, replace=False).tolist()))
        instances.append(build_instance(f"periodic-p{p}-{k}", chain, f, C, m))
    return Suite(instances=instances, build_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def suite() -> Suite:
    return build_suite()


@pytest.fixture(scope="session")
def two_state(suite) -> Instance:
    return suite.instances[0]
