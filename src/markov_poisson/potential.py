"""Truncated potential-kernel sums and their gap from the canonical solution.

g_tilde(x) = lim_n sum_{i<np} E_x f_c(X_i), for p a multiple of the chain
period d, sums the geometrically decaying blocks (P^p)^k S f_c, with
S = I + P + ... + P^{p-1}. That sum is the group-inverse solution of P^p
(Meyer 1975, "The role of the group generalized inverse in the theory of
finite Markov chains"), one dense solve of (I - P^p + Pi_p) g_tilde = S f_c
with Pi_p(x, y) = d pi(y) for x, y in the same cyclic class, the limit of
P^{np}, and 0 otherwise: rows of transient states are the limit equation
g_tilde = S f_c + P^p g_tilde itself, and the matrix is nonsingular.

g_tilde differs from g* by a constant on each cyclic class. Those
per-class constants coincide only for aperiodic chains (where the shift
is -pi.g* globally and g_tilde itself solves Poisson's equation); for
p >= 2 they differ in general, so g_tilde solves the one-step equation
only up to the between-class variation of the constants.
verify_truncation_gap checks the guaranteed gap bounds; the per-class
constancy of the gap is a check of the ``potential`` command.

pi and the cyclic classes are the chain's own cached ``chain.pi`` and
``chain.cyclic``; P^p is ``np.linalg.matrix_power``, about log2 p
products (for p <= 3 the same products, in the same order, as repeated
multiplication).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import truncation_gap_bounds
from .certify import CertificateBundle, PotentialCertificate
from .chain import FiniteChain, values_of
from .errors import BoundViolation, SingularSystem
from .split import _lu, lu_solve

#: numerical slack when checking guaranteed inequalities
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class PotentialResult:
    """g_tilde and the sup-norm residual of its solve; ``terms`` counts the
    solves, always 1 (perfbench's layer trace reads it as work per call)."""

    g_tilde: np.ndarray
    terms: int
    residual: float


def truncated_potential(chain: FiniteChain, f, p: int) -> PotentialResult:
    """g_tilde = lim_n sum_{i<np} (P^i f_c)(x), by one period-p solve.

    Parameters
    ----------
    chain : FiniteChain
    f : charge vector (centered internally with the chain's ``pi``)
    p : block length in steps, a positive multiple of the chain period
        (``chain.cyclic.period``); only those block sums converge

    Returns the truncated sum g_tilde and the sup norm of the solve's
    residual A g_tilde - S f_c. Raises ValueError when p is not a positive
    multiple of the period, and SingularSystem on a pivot below
    ``split.PIVOT_TOL`` or a non-finite g_tilde.
    """
    d = chain.cyclic.period
    if p < 1 or p % d:
        raise ValueError(f"block length must be a positive multiple of the period {d}, got {p}")
    f = values_of(f, chain.n)
    pi = chain.pi
    term = f - float(pi @ f)  # P^i f_c, advanced in place
    block = np.zeros(chain.n)  # S f_c
    for _ in range(p):
        block += term
        term = chain.kernel @ term
    A = np.eye(chain.n) - np.linalg.matrix_power(chain.kernel, p)
    for cls in chain.cyclic.classes:
        idx = sorted(cls)
        A[np.ix_(idx, idx)] += d * pi[idx]
    # an overflow in S f_c or in the solve surfaces here as a coded error
    g_tilde = lu_solve(_lu(A), block, check_finite=False)
    if not np.all(np.isfinite(g_tilde)):
        raise SingularSystem(f"the period-{p} solve gave non-finite values")
    residual = float(np.max(np.abs(A @ g_tilde - block)))
    return PotentialResult(g_tilde=g_tilde, terms=1, residual=residual)


def verify_truncation_gap(
    bundle: CertificateBundle,
    pot_cert: PotentialCertificate,
    g_star,
    result: PotentialResult,
) -> dict:
    """Check the guaranteed gap bounds and report per-state slack.

    Asserts, for every state,

        -p b3 - b1 m/lambda <= g_tilde(x) - g*(x) <= b1 (p b4 + b2 m/lambda)

    together with the absolute form, on the bundle's chain, with p its
    period ``chain.cyclic.period``, the block length of ``result``. A
    violation raises BoundViolation: the inequalities are guaranteed, so
    failure indicates a certificate or implementation bug.
    """
    g_star = values_of(g_star, bundle.chain.n)
    gap = result.g_tilde - g_star
    lower, upper, absolute = truncation_gap_bounds(bundle, pot_cert)
    low_slack = gap - lower
    high_slack = upper - gap
    if low_slack.min() < -CHECK_TOL or high_slack.min() < -CHECK_TOL:
        x = int(np.argmin(np.minimum(low_slack, high_slack)))
        raise BoundViolation(x, f"truncation gap bound fails at state {x}: gap={gap[x]:.6g}")
    abs_slack = absolute - np.abs(gap)
    if abs_slack.min() < -CHECK_TOL:
        x = int(np.argmin(abs_slack))
        raise BoundViolation(x, f"absolute gap bound fails at state {x}")
    return {
        "gap": gap,
        "bound_lower": lower,
        "bound_upper": upper,
        "bound_abs": absolute,
        "slack_lower": low_slack,
        "slack_upper": high_slack,
        "slack_abs": abs_slack,
    }
