"""Exact regeneration structure of a finite chain split at a small set.

The regeneration time is tau = T_beta + m: successive visits to C spaced
at least m steps apart each toss a Bernoulli(lambda) coin, and the first
success distributes the state m steps later according to phi. The split
chain is never materialized on an enlarged state space. Instead, every
cycle expectation

    G_h(x) = E_x sum_{j=0}^{tau-1} h(X_j)

solves the first-step equations of one split-chain cycle: off C one step
of P; on C the m-step block at the coin toss (endpoint mixture
lambda*phi + (1-lambda)*Q plus the conditioned bridge over the m-1
intermediate indices), then, when the coin fails, a fresh cycle from an
endpoint drawn from Q. Visits to C strictly inside a bridge segment do not
schedule coin tosses; the block encodes that by construction.

The equations for every charge share one dense matrix, solved by LU with
partial pivoting; a pivot below 1e-13 raises SingularSystem (impossible
under a valid certificate, surfaced defensively). :class:`CycleSystem`
factors it once per certificate, on the certificate's own chain, and then
solves any block of charges; it reads P, ..., P^m from the chain's cached
``powers``.
:func:`hitting` solves the absorbing-boundary equations for the first
hit of C, which build hitting-sum Lyapunov functions.
``scipy.linalg`` is imported at the first factorization or solve, so
commands that factor nothing never load it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .certify import SmallSetCertificate, _check_subset
from .chain import Distribution, FiniteChain, _bfs_levels, _complement, values_of
from .errors import (
    InconsistentCertificate,
    InvariantViolation,
    NegativeResidual,
    SingularSystem,
    Unreachable,
)

#: LU pivots below this raise SingularSystem
PIVOT_TOL = 1e-13
#: phi mass allowed on endpoints with P^m(x, y) = 0
ENDPOINT_MASS_TOL = 1e-10


def lu_factor(A: np.ndarray):
    """``scipy.linalg.lu_factor``, imported on first use."""
    from scipy.linalg import lu_factor

    return lu_factor(A)


def lu_solve(lu_and_piv, b, trans: int = 0, check_finite: bool = True):
    """``scipy.linalg.lu_solve``, imported on first use."""
    from scipy.linalg import lu_solve

    return lu_solve(lu_and_piv, b, trans=trans, check_finite=check_finite)


def _lu(A: np.ndarray):
    lu, piv = lu_factor(A)
    smallest = np.min(np.abs(np.diag(lu)))
    if smallest < PIVOT_TOL:
        raise SingularSystem(f"pivot {smallest:.3e} below {PIVOT_TOL:.0e}")
    return lu, piv


def _residual_rows(Pm: np.ndarray, small: SmallSetCertificate) -> np.ndarray:
    """Rows of Q(x, .) = (P^m(x, .) - lam*phi)/(1 - lam) for x in C.

    The non-regenerative mixture component on C; a zero block when lam = 1
    (it is never drawn, and (1 - lam) Q vanishes). The certificate has
    passed ``small.verify``, so the rows are nonnegative up to rounding
    noise, which is clipped.
    """
    if small.lam < 1.0:
        rows = (Pm[list(small.C), :] - small.lam * small.phi.mass[None, :]) / (1.0 - small.lam)
        np.clip(rows, 0.0, None, out=rows)
        sums = rows.sum(axis=1)
        if sums.min() < 0.5:
            raise NegativeResidual(
                "a residual row lost its mass: lambda is too close to 1 for the "
                "mixture to be meaningful (declare lambda = 1 instead)"
            )
        rows /= sums[:, None]
    else:
        rows = np.zeros((len(small.C), Pm.shape[1]))
    rows.flags.writeable = False
    return rows


def _reach_check(chain: FiniteChain, C: tuple) -> None:
    """Every state must reach C with positive probability along some path:
    a breadth-first search of the reversed graph from C."""
    unreached = np.flatnonzero(_bfs_levels((chain.kernel > 0.0).T, C) < 0)
    if unreached.size:
        raise Unreachable(int(unreached[0]))


def hitting(chain: FiniteChain, C, h):
    """First-hit distribution on C and pre-hit sums of the charge h.

    Returns
    -------
    H : (n, |C|) ndarray
        H(x, w) = P_x(X_{T_1} = w) with T_1 = inf{n >= 0 : X_n in C}.
    u : (n,) ndarray
        E_x sum_{j<T_1} h(X_j) (zero on C).

    Both solve I - P on the states outside C, with C as absorbing
    boundary. Raises ValueError if C is empty or names a state outside
    0..n-1, and Unreachable if some state cannot reach C.
    """
    C = _check_subset(C, chain.n)
    _reach_check(chain, C)
    outside = _complement(chain.n, C)
    # rows for x in C are point masses
    H = np.zeros((chain.n, len(C)))
    H[list(C), np.arange(len(C))] = 1.0
    h = values_of(h, chain.n)
    u = np.zeros(chain.n)
    if outside.size:
        P = chain.kernel
        A = np.eye(outside.size) - P[np.ix_(outside, outside)]
        lu = _lu(A)

        def solve(rhs):
            # one step of iterative refinement keeps drift residuals of
            # hitting-sum Lyapunov functions below the 1e-12 tolerance
            x = lu_solve(lu, rhs)
            x += lu_solve(lu, rhs - A @ x)
            return x

        H[outside, :] = solve(P[np.ix_(outside, list(C))])
        u[outside] = solve(h[outside])
    return H, u


class CycleSystem:
    """The factored regeneration system of one certificate's chain.

    Every cycle expectation G_h = E_. sum_{j<tau} h(X_j) solves the
    first-step equations of one split-chain cycle, the same matrix for
    every charge:

        (I - K) G_h = R h.

    Off C a cycle takes one step of P: K(x, .) = P(x, .) and (R h)(x) =
    h(x). On C it runs the m-step block and, when the lam-coin fails,
    starts afresh from the residual endpoint: K(w, .) = (1-lam) Q(w, .)
    (zero when lam = 1) and (R h)(w) = (B h)(w). B is the (|C|, n) block
    matrix: (B h)(w) is the expected charge of the m-step block started at
    w, h(w) plus the bridge over indices 1..m-1 conditioned on the
    endpoint drawn from lam*phi + (1-lam)*Q(w, .). Endpoints with
    P^m(w, y) = 0 carry no mixture mass and are excluded. At m = 1, B
    holds the indicator rows of C.

    Construction reads the chain from ``cert.chain`` and ``powers`` =
    [I, P, ..., P^m] from the chain's cache, and computes Q, B and the LU
    factorization of I - K once; E tau is computed on first use, and pi
    is the chain's own ``chain.pi``. Only the minorization is read, so a
    bare SmallSetCertificate and a full CertificateBundle (one of its
    kind) both serve as ``cert``.

    This is the one entry point to every cycle quantity: ``solve(h)``
    (G_h), ``tau`` (E_x tau), ``canonical_solution(f)`` (g*) and
    ``occupation_measure()`` (nu = pi); values from phi are ``phi @ G_h``.
    """

    def __init__(self, cert: SmallSetCertificate):
        self.chain = chain = cert.chain
        self.C = cert.C
        self.m = cert.m
        self.lam = cert.lam
        self.phi = cert.phi.mass
        self.powers = powers = chain.powers(cert.m)
        Pm = powers[-1]
        self.Q = _residual_rows(Pm, cert)
        _reach_check(chain, cert.C)
        B = np.zeros((len(self.C), chain.n))
        for i, w in enumerate(self.C):
            live = Pm[w, :] > 0.0
            if self.phi[~live].sum() > ENDPOINT_MASS_TOL:
                raise InconsistentCertificate(
                    f"phi places mass on endpoints with P^m({w}, .) = 0"
                )
            B[i, w] = 1.0
            weights = self.lam * self.phi + (1.0 - self.lam) * self.Q[i]
            scaled = np.zeros(chain.n)
            scaled[live] = weights[live] / Pm[w, live]
            for j in range(1, self.m):
                B[i, :] += powers[j][w, :] * (powers[self.m - j] @ scaled)
        self.B = B
        K = chain.kernel.copy()
        K[list(self.C)] = (1.0 - self.lam) * self.Q
        self._lu = _lu(np.eye(chain.n) - K)

    def solve(self, charges) -> np.ndarray:
        """G_h for one charge of shape (n,) or a block of charges (n, k)."""
        X = values_of(charges)
        if X.ndim not in (1, 2) or X.shape[0] != self.chain.n:
            raise ValueError(f"expected {self.chain.n} rows of charges, got shape {X.shape}")
        rhs = X.copy()
        rhs[list(self.C)] = self.B @ X
        return lu_solve(self._lu, rhs)

    @cached_property
    def tau(self) -> np.ndarray:
        """E_x tau: the charge h = 1.

        Its m-step block contributes exactly m per coin toss (the bridge
        conditionals integrate to one); E_phi tau is ``phi @ tau``.
        """
        return self.solve(np.ones(self.chain.n))

    def canonical_solution(self, f) -> np.ndarray:
        """The canonical solution g* of (P - I)g = -f_c with f_c = f - pi(f).

        g*(x) = E_x sum_{j<tau} f_c(X_j); the Poisson residual is verified
        to 1e-9 before returning (InvariantViolation otherwise). The
        additive normalization of g* is the one induced by tau, and
        phi . g* = 0 at every m: phi . G_h = E_phi tau nu(h), the transposed
        solve of :meth:`occupation_measure`, and nu = pi gives nu(f_c) = 0.
        """
        f = values_of(f, self.chain.n)
        f_c = f - float(self.chain.pi @ f)
        g = self.solve(f_c)
        residual = np.max(np.abs((self.chain.kernel @ g - g) + f_c))
        if not residual <= 1e-9:
            raise InvariantViolation(f"Poisson residual {residual:.3e} exceeds 1e-9")
        return g

    def occupation_measure(self) -> Distribution:
        """Expected time per cycle from phi, normalized by the cycle length.

        nu(z) = E_phi sum_{j<tau} I(X_j = z) / E_phi tau. This equals the
        stationary distribution; the identity is verified to 1e-10 in L1
        (InvariantViolation otherwise).
        """
        # phi G_h = y R h with y = phi (I - K)^{-1}: one transposed solve
        # gives every h, y(x) per unit of h(x) off C and y_C B on C's blocks
        C = list(self.C)
        y = lu_solve(self._lu, self.phi, trans=1)
        per_state = y[C] @ self.B
        y[C] = 0.0
        per_state += y
        nu = per_state / per_state.sum()
        l1 = float(np.abs(nu - self.chain.pi).sum())
        if not l1 <= 1e-10:
            raise InvariantViolation(
                f"occupation measure deviates from stationary by {l1:.3e} in L1"
            )
        return Distribution(mass=nu)


def marginal_curve(chain: FiniteChain, f, n_max: int) -> np.ndarray:
    """Rows i = 0..n_max of E_x f(X_i) for every state at once."""
    out = np.empty((n_max + 1, chain.n))
    vec = values_of(f, chain.n)
    out[0] = vec
    for i in range(1, n_max + 1):
        vec = chain.kernel @ vec
        out[i] = vec
    return out
