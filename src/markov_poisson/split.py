"""Exact regeneration structure of a finite chain split at a small set.

The regeneration time is tau = T_beta + m: successive visits to C spaced
at least m steps apart each toss a Bernoulli(lambda) coin, and the first
success distributes the state m steps later according to phi. The split
chain is never materialized on an enlarged state space. Instead, every
cycle expectation

    G_h(x) = E_x sum_{j=0}^{tau-1} h(X_j)

is computed from a one-layer decomposition: the pre-hit segment up to
T_1 (an absorbing-boundary linear solve), the m-step block at the coin
toss (endpoint mixture lambda*phi + (1-lambda)*Q plus the conditioned
bridge over the m-1 intermediate indices), and a continuation from the
residual endpoint. Visits to C strictly inside a bridge segment do not
schedule coin tosses; the decomposition encodes that by construction.

The unknowns G_h form a dense linear system solved by LU with partial
pivoting; a pivot below 1e-13 raises SingularSystem (impossible under a
valid certificate, surfaced defensively). :class:`CycleSystem` factors it
once per chain and certificate and then solves any block of charges.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .certify import SmallSetCertificate
from .chain import ATOL, Distribution, FiniteChain, _bfs_levels, kernel_powers, values_of
from .errors import (
    InconsistentCertificate,
    InvariantViolation,
    NegativeResidual,
    SingularSystem,
    Unreachable,
)

#: LU pivots below this raise SingularSystem
PIVOT_TOL = 1e-13
#: phi or Q mass allowed on endpoints with P^m(x, y) = 0
ENDPOINT_MASS_TOL = 1e-10


def _lu(A: np.ndarray):
    lu, piv = lu_factor(A)
    smallest = np.min(np.abs(np.diag(lu)))
    if smallest < PIVOT_TOL:
        raise SingularSystem(f"pivot {smallest:.3e} below {PIVOT_TOL:.0e}")
    return lu, piv


def _residual_rows(Pm: np.ndarray, small: SmallSetCertificate) -> np.ndarray | None:
    """Rows of Q(x, .) = (P^m(x, .) - lam*phi)/(1 - lam) for x in C.

    The non-regenerative mixture component on C; None when lam = 1 (it
    is never drawn).
    """
    if small.lam >= 1.0:
        return None
    gap = Pm[list(small.C), :] - small.lam * small.phi.mass[None, :]
    # the tolerance applies to P^m - lam*phi, as in SmallSetCertificate.verify:
    # after the division by 1 - lam, rounding noise of a certificate that
    # verify accepts can exceed it when lam is close to 1
    rows = gap / (1.0 - small.lam)
    if gap.min() < -ATOL:
        i, y = np.unravel_index(np.argmin(rows), rows.shape)
        raise NegativeResidual(
            f"Q({small.C[i]},{y}) = {rows.min():.3e} < 0: certificate invalid at tolerance"
        )
    np.clip(rows, 0.0, None, out=rows)
    sums = rows.sum(axis=1)
    if sums.min() < 0.5:
        raise NegativeResidual(
            "a residual row lost its mass: lambda is too close to 1 for the "
            "mixture to be meaningful (declare lambda = 1 instead)"
        )
    rows /= sums[:, None]
    rows.flags.writeable = False
    return rows


def _reach_check(chain: FiniteChain, C: tuple) -> None:
    """Every state must reach C with positive probability along some path:
    a breadth-first search of the reversed graph from C."""
    unreached = np.flatnonzero(_bfs_levels((chain.kernel > 0.0).T, C) < 0)
    if unreached.size:
        raise Unreachable(int(unreached[0]))


class _AbsorbingSystem:
    """Linear solves with the small set C as absorbing boundary."""

    def __init__(self, chain: FiniteChain, C: tuple):
        _reach_check(chain, C)
        self.n = chain.n
        self.C = C
        self.outside = np.setdiff1d(np.arange(chain.n), C, assume_unique=True)
        P = chain.kernel
        if self.outside.size:
            self._A = np.eye(self.outside.size) - P[np.ix_(self.outside, self.outside)]
            self._lu = _lu(self._A)
            H_out = self._solve(P[np.ix_(self.outside, list(C))])
        else:
            self._lu = None
            H_out = None
        # H(x, w) = P_x(X_{T_1} = w); rows for x in C are point masses
        H = np.zeros((chain.n, len(C)))
        for i, w in enumerate(C):
            H[w, i] = 1.0
        if H_out is not None:
            H[self.outside, :] = H_out
        self.H = H

    def _solve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        # one step of iterative refinement keeps drift residuals of
        # hitting-sum Lyapunov functions below the 1e-12 tolerance;
        # trans=1 solves with the transpose
        A = self._A.T if trans else self._A
        x = lu_solve(self._lu, rhs, trans=trans)
        x += lu_solve(self._lu, rhs - A @ x, trans=trans)
        return x

    def pre_hit(self, charges: np.ndarray) -> np.ndarray:
        """u_h(x) = E_x sum_{j<T_1} h(X_j), columns of ``charges`` as charges.

        ``charges`` has shape (n,) or (n, k); the result matches.
        """
        u = np.zeros_like(charges, dtype=float)
        if self.outside.size:
            u[self.outside] = self._solve(np.asarray(charges, dtype=float)[self.outside])
        return u


def hitting(chain: FiniteChain, C, h=None):
    """First-hit distribution on C and optional pre-hit charge sums.

    Returns
    -------
    H : (n, |C|) ndarray
        H(x, w) = P_x(X_{T_1} = w) with T_1 = inf{n >= 0 : X_n in C}.
    u : (n,) ndarray or None
        E_x sum_{j<T_1} h(X_j) when a charge h is given (zero on C).

    Raises Unreachable if some state cannot reach C.
    """
    C = tuple(sorted({int(x) for x in C}))
    sys = _AbsorbingSystem(chain, C)
    u = sys.pre_hit(values_of(h, chain.n)) if h is not None else None
    return sys.H, u


class CycleSystem:
    """The factored regeneration system of one chain under one certificate.

    Every cycle expectation G_h = E_. sum_{j<tau} h(X_j) solves the same
    linear system with a charge-dependent right-hand side

        (I - (1-lam) H Q) G_h = u_h + H B h,

    where u_h is the pre-hit sum, H the first-hit law on C and B the
    (|C|, n) block matrix: (B h)(w) is the expected charge of the m-step
    block started at w, h(w) plus the bridge over indices 1..m-1
    conditioned on the endpoint drawn from lam*phi + (1-lam)*Q(w, .).
    Endpoints with P^m(w, y) = 0 carry no mixture mass and are excluded.
    At m = 1, B holds the indicator rows of C.

    Construction computes ``powers`` = [I, P, ..., P^m], Q, B and both LU
    factorizations (the absorbing boundary and the core) once; E tau is
    computed on first use, and pi is the chain's own ``chain.pi``. Only
    the minorization is read, so a bare
    SmallSetCertificate and a full CertificateBundle (one of its kind)
    both serve as ``cert``.

    This is the one entry point to every cycle quantity: ``solve(h)``
    (G_h), ``tau`` (E_x tau), ``canonical_solution(f)`` (g*) and
    ``occupation_measure()`` (nu = pi); values from phi are ``phi @ G_h``.
    """

    def __init__(self, chain: FiniteChain, cert):
        self.chain = chain
        self.C = cert.C
        self.m = cert.m
        self.lam = cert.lam
        self.phi = cert.phi.mass
        self.powers = powers = kernel_powers(chain, cert.m)
        Pm = powers[-1]
        self.Q = _residual_rows(Pm, cert)
        self.absorbing = _AbsorbingSystem(chain, cert.C)
        self.H = self.absorbing.H
        B = np.zeros((len(self.C), chain.n))
        for i, w in enumerate(self.C):
            live = Pm[w, :] > 0.0
            if self.phi[~live].sum() > ENDPOINT_MASS_TOL:
                raise InconsistentCertificate(
                    f"phi places mass on endpoints with P^m({w}, .) = 0"
                )
            if self.Q is not None and self.Q[i, ~live].sum() > ENDPOINT_MASS_TOL:
                raise InconsistentCertificate(
                    f"Q({w}, .) places mass on endpoints with P^m({w}, .) = 0"
                )
            B[i, w] = 1.0
            weights = self.lam * self.phi
            if self.Q is not None:
                weights = weights + (1.0 - self.lam) * self.Q[i]
            scaled = np.zeros(chain.n)
            scaled[live] = weights[live] / Pm[w, live]
            for j in range(1, self.m):
                B[i, :] += powers[j][w, :] * (powers[self.m - j] @ scaled)
        self.B = B
        if self.lam < 1.0:
            self._core_lu = _lu(np.eye(chain.n) - (1.0 - self.lam) * (self.H @ self.Q))
        else:
            self._core_lu = None

    def solve(self, charges) -> np.ndarray:
        """G_h for one charge of shape (n,) or a block of charges (n, k)."""
        X = values_of(charges)
        if X.ndim not in (1, 2) or X.shape[0] != self.chain.n:
            raise ValueError(f"expected {self.chain.n} rows of charges, got shape {X.shape}")
        rhs = self.absorbing.pre_hit(X) + self.H @ (self.B @ X)
        if self._core_lu is None:
            return rhs
        return lu_solve(self._core_lu, rhs)

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
        additive normalization of g* is the one induced by tau; phi . g*
        vanishes when m = 1 but has no closed form for m >= 2 and is
        reported as a diagnostic elsewhere, not asserted.
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
        # phi G_h = y (u_h + H B h) with y = phi (I - (1-lam) H Q)^{-1}: two
        # transposed single-vector solves (core, then pre-hit) give every h
        y = self.phi if self._core_lu is None else lu_solve(self._core_lu, self.phi, trans=1)
        per_state = (y @ self.H) @ self.B
        outside = self.absorbing.outside
        if outside.size:
            per_state[outside] += self.absorbing._solve(y[outside], trans=1)
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
