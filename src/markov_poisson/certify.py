"""Drift and minorization certificates on finite chains.

A full certificate consists of two Lyapunov drift inequalities (one for
the reward f, one for the constant function e) and an m-step minorization
on a shared small set C. Constructors verify every inequality at absolute
tolerance ``ATOL`` and compute the tightest constants:

* ``b`` is always the minimal feasible drift constant, so downstream
  bounds are as tight as the supplied Lyapunov functions allow;
* ``minorize`` returns the maximal ``lambda`` for the given (C, m) by
  taking the componentwise row minimum of P^m over C as the minorizing
  sub-measure, or verifies a supplied (lambda, phi) pair. The gap
  P^m - lambda*phi on C is tested only by :meth:`SmallSetCertificate.verify`,
  and P^m is read from the chain's cached ``chain.powers``.

Degenerate b <= 0 is clamped to a tiny positive value (the inequalities
require strictly positive constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ATOL, Distribution, FiniteChain, values_of
from .errors import (
    DriftViolation,
    EmptyMinorization,
    MinorizationViolation,
    NegativityViolation,
)

#: replacement for drift constants that come out <= 0
B_FLOOR = 1e-300


def _check_subset(C, n: int) -> tuple:
    states = tuple(sorted({int(x) for x in C}))
    if not states:
        raise ValueError("C must be a nonempty state subset")
    if states[0] < 0 or states[-1] >= n:
        raise ValueError(f"C contains states outside 0..{n - 1}")
    return states


@dataclass(frozen=True)
class SmallSetCertificate:
    """m-step minorization P^m(x, .) >= lam * phi(.) for all x in C."""

    C: tuple
    m: int
    lam: float
    phi: Distribution

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda must lie in (0, 1], got {self.lam}")

    def verify(self, chain: FiniteChain) -> None:
        """Raise MinorizationViolation unless the inequality holds on chain."""
        Pm = chain.powers(self.m)[-1]
        gap = Pm[list(self.C), :] - self.lam * self.phi.mass[None, :]
        if gap.min() < -ATOL:
            x = self.C[int(np.argmin(gap.min(axis=1)))]
            raise MinorizationViolation(
                f"P^m(x, .) >= lambda*phi fails at x={x} by {-gap.min():.3e}"
            )


@dataclass(frozen=True)
class CertificateBundle(SmallSetCertificate):
    """The full certificate: the minorization on C plus two drift pairs on C.

    (v1, b1) is the drift inequality charged by the reward f and (v2, b2)
    the one charged by the constant function e = 1.
    """

    v1: np.ndarray
    b1: float
    v2: np.ndarray
    b2: float


@dataclass(frozen=True)
class PotentialCertificate:
    """Second-level drift pairs: (v3, b3) charged by v1 and (v4, b4) by v2."""

    v3: np.ndarray
    b3: float
    v4: np.ndarray
    b4: float


def verify_drift(chain: FiniteChain, v, f, C) -> tuple[np.ndarray, float]:
    """Verify (Pv)(x) <= v(x) - f(x) + b I_C(x); return (v, b) with the minimal b.

    Requires (Pv)(x) <= v(x) - f(x) for every x outside C (tolerance
    ``ATOL``); v comes back as a read-only copy and the constant is

        b = max over x in C of (Pv)(x) - v(x) + f(x),

    clamped up to ``B_FLOOR`` when the maximum is <= 0.

    Raises
    ------
    NegativityViolation
        If v or f has entries below -ATOL.
    DriftViolation
        Listing the states outside C where the inequality fails.
    """
    v = values_of(v, chain.n)
    f = values_of(f, chain.n)
    if v.min(initial=0.0) < -ATOL:
        raise NegativityViolation(f"v has negative entry {v.min():.3e}")
    if f.min(initial=0.0) < -ATOL:
        raise NegativityViolation(f"f has negative entry {f.min():.3e}")
    C = _check_subset(C, chain.n)
    residual = chain.kernel @ v - v + f  # must be <= 0 off C, <= b on C
    outside = np.setdiff1d(np.arange(chain.n), C, assume_unique=True)
    bad = outside[residual[outside] > ATOL]
    if bad.size:
        raise DriftViolation(bad.tolist(), residual[bad].tolist())
    b = float(max(residual[list(C)].max(), B_FLOOR))
    return _ro(v), b


def _ro(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flags.writeable = False
    return out


def minorize(chain: FiniteChain, C, m: int, lam=None, phi=None) -> SmallSetCertificate:
    """Maximal minorization of P^m over C, or the supplied (lam, phi) verified.

    The componentwise row minimum min_{x in C} P^m(x, y) is the largest
    sub-measure dominated by every row, so lam = its total mass is maximal
    for the given (C, m) and phi is the normalized minimum.

    Raises EmptyMinorization when the rows have disjoint support (lam = 0),
    and MinorizationViolation when a supplied pair fails the inequality.
    """
    if (lam is None) != (phi is None):
        raise ValueError("supply both lambda and phi, or neither")
    C = _check_subset(C, chain.n)
    if lam is not None:
        small = SmallSetCertificate(C=C, m=m, lam=float(lam), phi=Distribution(mass=phi))
        small.verify(chain)
        return small
    if m < 1:
        raise ValueError("m must be >= 1")
    Pm = chain.powers(m)[-1]
    floor = Pm[list(C), :].min(axis=0)
    lam = float(floor.sum())
    if lam <= 0.0:
        raise EmptyMinorization(
            f"C={list(C)} is not small at lag m={m}: rows of P^m have disjoint support"
        )
    # a total mass within rounding of 1 means the rows coincide: the residual
    # component is empty, and dividing by (1 - lam) would amplify noise
    if lam > 1.0 - ATOL:
        lam = 1.0
    phi = Distribution(mass=floor / floor.sum())
    return SmallSetCertificate(C=C, m=m, lam=lam, phi=phi)


def verify_bundle(
    chain: FiniteChain,
    f,
    v1,
    v2,
    C,
    m: int,
    lam: float | None = None,
    phi=None,
) -> CertificateBundle:
    """Assemble and verify the full certificate on a finite chain.

    The minorization comes from :func:`minorize`: the maximal one when
    ``lam``/``phi`` are omitted, otherwise the supplied pair verified as-is.
    Drift constants b1, b2 are the minimal feasible values.
    """
    v1, b1 = verify_drift(chain, v1, f, C)
    v2, b2 = verify_drift(chain, v2, np.ones(chain.n), C)
    small = minorize(chain, C, m, lam, phi)
    return CertificateBundle(**vars(small), v1=v1, b1=b1, v2=v2, b2=b2)


def verify_potential(chain: FiniteChain, bundle: CertificateBundle, v3, v4) -> PotentialCertificate:
    """Verify the second drift level: v3 charged by v1, v4 charged by v2."""
    v3, b3 = verify_drift(chain, v3, bundle.v1, bundle.C)
    v4, b4 = verify_drift(chain, v4, bundle.v2, bundle.C)
    return PotentialCertificate(v3=v3, b3=b3, v4=v4, b4=b4)
