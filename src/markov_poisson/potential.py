"""Truncated potential-kernel sums and their gap from the canonical solution.

g_tilde(x) = lim_n sum_{i<np} E_x f_c(X_i) is accumulated in blocks of p
kernel-vector products, where p is the chain period. Convergence is
detected on block sums rather than raw partial sums because single-step
partial sums oscillate on periodic chains; block sums decay geometrically
on finite ergodic chains.

g_tilde differs from g* by a constant on each cyclic class. Those
per-class constants coincide only for aperiodic chains (where the shift
is -pi.g* globally and g_tilde itself solves Poisson's equation); for
p >= 2 they differ in general, so g_tilde solves the one-step equation
only up to the between-class variation of the constants. verify_truncation_gap
checks the guaranteed statements: the gap bounds and, per class, the
constancy of the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import truncation_gap_bounds
from .certify import CertificateBundle, PotentialCertificate
from .chain import FiniteChain, StateFunction, stationary, values_of
from .errors import BoundViolation, NoConvergence

DEFAULT_TOL = 1e-10
DEFAULT_MAX_BLOCKS = 10**6
#: numerical slack when checking guaranteed inequalities
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class PotentialResult:
    """Outcome of the block-truncated potential summation."""

    g_tilde: StateFunction
    terms: int
    residual: float


def truncated_potential(
    chain: FiniteChain,
    f,
    p: int,
    tol: float = DEFAULT_TOL,
    max_blocks: int = DEFAULT_MAX_BLOCKS,
    pi: np.ndarray | None = None,
) -> PotentialResult:
    """Accumulate sum_{i<np} (P^i f_c)(x) until the block residual meets tol.

    Parameters
    ----------
    chain : FiniteChain
    f : charge vector (centered internally with the exact stationary law)
    p : chain period (use cyclic_decomposition), block length in steps
    tol : sup-norm threshold on successive block sums
    max_blocks : give up (NoConvergence) after this many blocks
    pi : the stationary law, when the caller has it already

    Returns the truncated sum g_tilde, the number of blocks used, and the
    sup norm of the last block.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    f = values_of(f, chain.n)
    if pi is None:
        pi = stationary(chain).mass
    term = f - float(pi @ f)  # P^i f_c, advanced in place
    total = np.zeros(chain.n)
    for blocks in range(1, max_blocks + 1):
        block = np.zeros(chain.n)
        for _ in range(p):
            block += term
            term = chain.kernel @ term
        total += block
        residual = float(np.max(np.abs(block)))
        if residual <= tol:
            return PotentialResult(
                g_tilde=StateFunction(values=total), terms=blocks, residual=residual
            )
    raise NoConvergence(blocks=max_blocks, residual=residual)


def verify_truncation_gap(
    chain: FiniteChain,
    bundle: CertificateBundle,
    pot_cert: PotentialCertificate,
    g_star,
    result: PotentialResult,
    p: int,
) -> dict:
    """Check the guaranteed gap bounds and report per-state slack.

    Asserts, for every state,

        -p b3 - b1 m/lambda <= g_tilde(x) - g*(x) <= b1 (p b4 + b2 m/lambda)

    together with the absolute form. A violation raises BoundViolation:
    the inequalities are guaranteed, so failure indicates a certificate
    or implementation bug.
    """
    g_star = values_of(g_star, chain.n)
    gap = result.g_tilde.values - g_star
    lower, upper, absolute = truncation_gap_bounds(bundle, pot_cert, p)
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
