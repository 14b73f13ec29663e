"""Bound arithmetic: cycle-sum bounds, solution envelopes, truncation gaps.

Everything here is closed-form arithmetic in the certificate constants
(b1, b2, m, lambda, optionally b3, b4 and the period p) and the Lyapunov
values. Exact quantities never enter the formulas; they are reported next
to the bounds with their slack so tightness is visible.

On a finite chain inf v and phi.v are exact (min of a vector, dot with
phi). For continuous-state instances the caller supplies them, because
the formulas assume the infimum is known rather than optimized for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .certify import CertificateBundle, PotentialCertificate
from .errors import NonFiniteResult


def cycle_bound(v, b: float, m: int, lam: float):
    """v + b m/lambda: the bound on the cycle sum charged by h when (v, b) is h's drift pair."""
    return v + b * m / lam


def delta_bound(inf_v: float, phi_v: float, b: float, m: int, lam: float) -> float:
    """min{ inf v + 2bm/lambda, phi.v + bm/lambda }."""
    return min(cycle_bound(inf_v, 2.0 * b, m, lam), cycle_bound(phi_v, b, m, lam))


def solution_envelope(cert, v1, v2):
    """Two-sided envelope for g* where the Lyapunov values are v1, v2.

    ``cert`` has b1, b2, m and lam: a CertificateBundle or a GIG1Certificate.
    upper(x) = v1(x) + b1 m / lambda
    lower(x) = -b1 (v2(x) + b2 m / lambda)
    abs(x)   = max(upper(x), -lower(x))
    """
    upper = cycle_bound(v1, cert.b1, cert.m, cert.lam)
    lower = -cert.b1 * cycle_bound(v2, cert.b2, cert.m, cert.lam)
    return upper, lower, np.maximum(upper, -lower)


def uniform_marginal_bound(bundle: CertificateBundle, delta1: float) -> np.ndarray:
    """Uniform-in-n bound on marginals: E_x f(X_n) <= v1(x) + b1 m/lambda + delta1."""
    return cycle_bound(bundle.v1, bundle.b1, bundle.m, bundle.lam) + delta1


def truncation_gap_bounds(bundle: CertificateBundle, pot: PotentialCertificate):
    """Bounds on the truncated-potential gap g_tilde - g*, p the period of the bundle's chain.

    lower = -p b3 - b1 m / lambda
    upper = b1 (p b4 + b2 m / lambda)
    abs   = max(upper, -lower)
    """
    p = bundle.chain.cyclic.period
    lower = -cycle_bound(p * pot.b3, bundle.b1, bundle.m, bundle.lam)
    upper = bundle.b1 * cycle_bound(p * pot.b4, bundle.b2, bundle.m, bundle.lam)
    return lower, upper, max(upper, -lower)


def envelope_comparison(b1: float, lam: float, phi_v1: float):
    """Asymptotic coefficient comparison for the m = 1 queueing setting.

    Both coefficients multiply the same quadratic growth curve. Ours is
    max{1, b1}; the alternative envelope carries a(1 + b1) with
    a = 1 + max{0, b1/lambda - phi.v1}, so it is never smaller. Raises
    NonFiniteResult when a(1 + b1) overflows.
    """
    a = 1.0 + max(0.0, b1 / lam - phi_v1)
    competing = a * (1.0 + b1)
    if not math.isfinite(competing):
        raise NonFiniteResult(
            f"the competing coefficient a(1 + b1) = {a:.6g} * (1 + {b1:.6g}) overflows"
        )
    return a, competing, max(1.0, b1)


@dataclass(frozen=True)
class BoundReport:
    """Every bound produced for one instance, as plain arrays and scalars."""

    delta1: float
    delta2: float
    envelope_upper: np.ndarray
    envelope_lower: np.ndarray
    envelope_abs: np.ndarray
    marginal_bound: np.ndarray
    gap_bound_lower: float | None = None
    gap_bound_upper: float | None = None
    gap_bound_abs: float | None = None
    comparison_a: float | None = None
    competing_asymptotic_coeff: float | None = None
    ours_asymptotic_coeff: float | None = None

    def as_dict(self) -> dict:
        """The fields in declaration order, arrays as lists, absent (None) ones dropped."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                out[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


def finite_bound_report(
    bundle: CertificateBundle, pot: PotentialCertificate | None = None
) -> BoundReport:
    """Assemble the full report for the bundle's finite chain.

    phi.v and inf v are exact here. The truncation gap bounds are included
    when ``pot`` is given. The coefficient comparison is only meaningful
    for m = 1 and is included in that case.
    """
    phi = bundle.phi.mass
    phi_v1 = float(phi @ bundle.v1)
    phi_v2 = float(phi @ bundle.v2)
    d1 = delta_bound(float(bundle.v1.min()), phi_v1, bundle.b1, bundle.m, bundle.lam)
    d2 = delta_bound(float(bundle.v2.min()), phi_v2, bundle.b2, bundle.m, bundle.lam)
    upper, lower, absb = solution_envelope(bundle, bundle.v1, bundle.v2)
    report = {
        "delta1": d1,
        "delta2": d2,
        "envelope_upper": upper,
        "envelope_lower": lower,
        "envelope_abs": absb,
        "marginal_bound": uniform_marginal_bound(bundle, d1),
    }
    if pot is not None:
        g_lo, g_hi, g_abs = truncation_gap_bounds(bundle, pot)
        report.update(gap_bound_lower=g_lo, gap_bound_upper=g_hi, gap_bound_abs=g_abs)
    if bundle.m == 1:
        a, competing, ours = envelope_comparison(bundle.b1, bundle.lam, phi_v1)
        report.update(
            comparison_a=a, competing_asymptotic_coeff=competing, ours_asymptotic_coeff=ours
        )
    return BoundReport(**report)
