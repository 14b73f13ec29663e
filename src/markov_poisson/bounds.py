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

from dataclasses import dataclass

import numpy as np

from .certify import CertificateBundle, PotentialCertificate


def delta_bound(inf_v: float, phi_v: float, b: float, m: int, lam: float) -> float:
    """min{ inf v + 2bm/lambda, phi.v + bm/lambda }."""
    return min(inf_v + 2.0 * b * m / lam, phi_v + b * m / lam)


def delta_bounds(bundle: CertificateBundle, phi_v1: float, phi_v2: float):
    """The pair (delta1, delta2) bounding cycle sums started from phi."""
    d1 = delta_bound(float(bundle.v1.min()), phi_v1, bundle.b1, bundle.m, bundle.lam)
    d2 = delta_bound(float(bundle.v2.min()), phi_v2, bundle.b2, bundle.m, bundle.lam)
    return d1, d2


def solution_envelope(bundle: CertificateBundle):
    """Two-sided envelope for the canonical solution g*.

    upper(x) = v1(x) + b1 m / lambda
    lower(x) = -b1 (v2(x) + b2 m / lambda)
    abs(x)   = max(upper(x), -lower(x))
    """
    ratio = bundle.m / bundle.lam
    upper = bundle.v1 + bundle.b1 * ratio
    lower = -bundle.b1 * (bundle.v2 + bundle.b2 * ratio)
    return upper, lower, np.maximum(upper, -lower)


def uniform_marginal_bound(bundle: CertificateBundle, delta1: float) -> np.ndarray:
    """Uniform-in-n bound on marginals: E_x f(X_n) <= v1(x) + b1 m/lambda + delta1."""
    return bundle.v1 + bundle.b1 * bundle.m / bundle.lam + delta1


def truncation_gap_bounds(bundle: CertificateBundle, pot: PotentialCertificate, p: int):
    """Bounds on the truncated-potential gap g_tilde - g*.

    lower = -p b3 - b1 m / lambda
    upper = b1 (p b4 + b2 m / lambda)
    abs   = max(upper, -lower)
    """
    ratio = bundle.m / bundle.lam
    lower = -p * pot.b3 - bundle.b1 * ratio
    upper = bundle.b1 * (p * pot.b4 + bundle.b2 * ratio)
    return lower, upper, max(upper, -lower)


def envelope_comparison(b1: float, lam: float, phi_v1: float):
    """Asymptotic coefficient comparison for the m = 1 queueing setting.

    Both coefficients multiply the same quadratic growth curve. Ours is
    max{1, b1}; the alternative envelope carries a(1 + b1) with
    a = 1 + max{0, b1/lambda - phi.v1}, so it is never smaller.
    """
    a = 1.0 + max(0.0, b1 / lam - phi_v1)
    return a, a * (1.0 + b1), max(1.0, b1)


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
        out = {
            "delta1": self.delta1,
            "delta2": self.delta2,
            "envelope_upper": self.envelope_upper.tolist(),
            "envelope_lower": self.envelope_lower.tolist(),
            "envelope_abs": self.envelope_abs.tolist(),
            "marginal_bound": self.marginal_bound.tolist(),
        }
        for name in (
            "gap_bound_lower",
            "gap_bound_upper",
            "gap_bound_abs",
            "comparison_a",
            "competing_asymptotic_coeff",
            "ours_asymptotic_coeff",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def finite_bound_report(
    bundle: CertificateBundle,
    pot: PotentialCertificate | None = None,
    period: int | None = None,
) -> BoundReport:
    """Assemble the full report for a finite chain.

    phi.v and inf v are exact here. The coefficient comparison is only
    meaningful for m = 1 and is included in that case.
    """
    phi = bundle.phi.mass
    phi_v1 = float(phi @ bundle.v1)
    phi_v2 = float(phi @ bundle.v2)
    d1, d2 = delta_bounds(bundle, phi_v1, phi_v2)
    upper, lower, absb = solution_envelope(bundle)
    report = {
        "delta1": d1,
        "delta2": d2,
        "envelope_upper": upper,
        "envelope_lower": lower,
        "envelope_abs": absb,
        "marginal_bound": uniform_marginal_bound(bundle, d1),
    }
    if pot is not None:
        if period is None:
            raise ValueError("truncation gap bounds need the chain period")
        g_lo, g_hi, g_abs = truncation_gap_bounds(bundle, pot, period)
        report.update(gap_bound_lower=g_lo, gap_bound_upper=g_hi, gap_bound_abs=g_abs)
    if bundle.m == 1:
        a, competing, ours = envelope_comparison(bundle.b1, bundle.lam, phi_v1)
        report.update(
            comparison_a=a, competing_asymptotic_coeff=competing, ours_asymptotic_coeff=ours
        )
    return BoundReport(**report)
