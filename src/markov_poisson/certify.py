"""Drift and minorization certificates on finite chains.

A full certificate consists of two Lyapunov drift inequalities (one for
the reward f, one for the constant function e) and an m-step minorization
on a shared small set C. Constructors verify every inequality at absolute
tolerance ``ATOL`` and compute the tightest constants:

* ``b`` is always the minimal feasible drift constant, so downstream
  bounds are as tight as the supplied Lyapunov functions allow;
* ``minorize`` returns the maximal ``lambda`` for the given (C, m) by
  taking the componentwise row minimum of P^m over C as the minorizing
  sub-measure.

Degenerate b <= 0 is clamped to a tiny positive value (the inequalities
require strictly positive constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ATOL, Distribution, FiniteChain, kernel_powers, values_of
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
        Pm = kernel_powers(chain, self.m)[-1]
        gap = Pm[list(self.C), :] - self.lam * self.phi.mass[None, :]
        if gap.min() < -ATOL:
            x = self.C[int(np.argmin(gap.min(axis=1)))]
            raise MinorizationViolation(
                f"P^m(x, .) >= lambda*phi fails at x={x} by {-gap.min():.3e}"
            )


@dataclass(frozen=True)
class DriftCertificate:
    """(Pv)(x) <= v(x) - f(x) + b * I_C(x) with v, f >= 0 and b > 0."""

    v: np.ndarray
    f: np.ndarray
    b: float
    C: tuple


@dataclass(frozen=True)
class CertificateBundle:
    """The full certificate: drift for f, drift for e, and the minorization.

    All three parts share the same small set C; drift2 always charges the
    constant function e = 1.
    """

    drift1: DriftCertificate
    drift2: DriftCertificate
    small: SmallSetCertificate

    def __post_init__(self):
        if not (self.drift1.C == self.drift2.C == self.small.C):
            raise ValueError("drift and minorization certificates must share C")
        if not np.all(self.drift2.f == 1.0):
            raise ValueError("drift2 must charge the constant function e = 1")

    @property
    def C(self) -> tuple:
        return self.small.C

    @property
    def m(self) -> int:
        return self.small.m

    @property
    def lam(self) -> float:
        return self.small.lam

    @property
    def phi(self) -> Distribution:
        return self.small.phi

    @property
    def v1(self) -> np.ndarray:
        return self.drift1.v

    @property
    def v2(self) -> np.ndarray:
        return self.drift2.v

    @property
    def b1(self) -> float:
        return self.drift1.b

    @property
    def b2(self) -> float:
        return self.drift2.b


@dataclass(frozen=True)
class PotentialCertificate:
    """Second-level drift pair: v3 charged by v1 and v4 charged by v2."""

    drift3: DriftCertificate
    drift4: DriftCertificate

    @property
    def b3(self) -> float:
        return self.drift3.b

    @property
    def b4(self) -> float:
        return self.drift4.b


def verify_drift(chain: FiniteChain, v, f, C) -> DriftCertificate:
    """Verify a drift inequality and return it with the minimal b.

    Requires (Pv)(x) <= v(x) - f(x) for every x outside C (tolerance
    ``ATOL``); the returned constant is

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
    return DriftCertificate(v=_ro(v), f=_ro(f), b=b, C=C)


def _ro(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flags.writeable = False
    return out


def minorize(chain: FiniteChain, C, m: int) -> SmallSetCertificate:
    """Maximal minorization of P^m over C.

    The componentwise row minimum min_{x in C} P^m(x, y) is the largest
    sub-measure dominated by every row, so lam = its total mass is maximal
    for the given (C, m) and phi is the normalized minimum.

    Raises EmptyMinorization when the rows have disjoint support (lam = 0).
    """
    C = _check_subset(C, chain.n)
    if m < 1:
        raise ValueError("m must be >= 1")
    Pm = kernel_powers(chain, m)[-1]
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

    When ``lam``/``phi`` are omitted the maximal minorization is computed
    by :func:`minorize`; otherwise the supplied pair is verified as-is.
    Drift constants b1, b2 are the minimal feasible values.
    """
    drift1 = verify_drift(chain, v1, f, C)
    drift2 = verify_drift(chain, v2, np.ones(chain.n), C)
    return CertificateBundle(drift1=drift1, drift2=drift2, small=_small_set(chain, C, m, lam, phi))


def _small_set(chain: FiniteChain, C, m: int, lam, phi) -> SmallSetCertificate:
    """The maximal minorization, or the supplied (lam, phi) pair verified."""
    if lam is None and phi is None:
        return minorize(chain, C, m)
    if lam is None or phi is None:
        raise ValueError("supply both lambda and phi, or neither")
    mass = phi.mass if isinstance(phi, Distribution) else np.asarray(phi, dtype=float)
    small = SmallSetCertificate(
        C=_check_subset(C, chain.n), m=m, lam=float(lam), phi=Distribution(mass=mass)
    )
    small.verify(chain)
    return small


def verify_potential(chain: FiniteChain, bundle: CertificateBundle, v3, v4) -> PotentialCertificate:
    """Verify the second drift level: v3 charged by v1, v4 charged by v2."""
    drift3 = verify_drift(chain, v3, bundle.v1, bundle.C)
    drift4 = verify_drift(chain, v4, bundle.v2, bundle.C)
    return PotentialCertificate(drift3=drift3, drift4=drift4)
