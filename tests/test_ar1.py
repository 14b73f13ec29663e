"""The Gaussian AR(1) X' = aX + e, e ~ N(0, 1): a chain with no atom, split at
the small set C = [-r, r], against its closed-form pi(f) and g*.

Over |x| <= r the least N(ax, 1) density at y is the density at |y| + ar,
so m = 1, lam = 2 Phi(-ar) and phi(y) = pdf(|y| + ar) / lam. A segment from
x in C to y regenerates with probability pdf(|y| + ar) / pdf(y - ax); no
residual kernel is drawn. With f(x) = x^2, pi = N(0, 1/(1 - a^2)) gives
pi(f) = 1/(1 - a^2), and g*(x) = (x^2 - phi(x^2))/(1 - a^2) solves
Poisson's equation (P x^2 = a^2 x^2 + 1) with phi(g*) = 0.
"""

import types

import numpy as np
from scipy import special

from markov_poisson.bounds import solution_envelope
from markov_poisson.mc import gstar_from_cycles, pif_from_cycles, run_cycles

A, R = 0.5, 2.0
SHIFT = A * R
TAIL = float(special.ndtr(-SHIFT))  # P(Z > ar) for Z standard normal
LAM = 2.0 * TAIL
PI_F = 1.0 / (1.0 - A * A)
# phi(x^2) = E[(Z - c)^2 | Z > c] = 1 + c^2 - c E[Z | Z > c] at c = ar
PHI_F = 1.0 + SHIFT**2 - SHIFT * np.exp(-SHIFT**2 / 2.0) / np.sqrt(2.0 * np.pi) / TAIL
XS = [0.0, 1.0, 3.0]


def exact_gstar(x):
    return (np.square(x) - PHI_F) * PI_F


class AR1Sampler:
    """The AR(1) under its m = 1 minorization on [-r, r], charged f(x) = x^2."""

    dtype = float
    m = 1
    lam = LAM

    def charge(self, x):
        return np.square(x)

    def in_small_set(self, x):
        return np.abs(x) <= R

    def step(self, x, streams, lanes):
        return A * x + special.ndtri(streams.uniform(lanes))

    def sample_phi(self, streams, lanes):
        # a random sign times Z - ar, Z a standard normal beyond ar, by
        # inverse CDF on Z's tail
        u = 2.0 * streams.uniform(lanes) - 1.0
        return np.copysign(-special.ndtri(TAIL * (1.0 - np.abs(u))) - SHIFT, u)

    def regeneration_probability(self, x, y):
        # pdf(|y| + ar) / pdf(y - ax), at most 1 since |y - ax| <= |y| + ar
        return np.exp((np.square(y - A * x) - np.square(np.abs(y) + SHIFT)) / 2.0)


def _estimates(n_cycles, seed):
    """pi(f) and g*(x) for x in XS, each an MCEstimate, from one pass."""
    starts = [None, *XS]
    sums, lengths = (
        a.reshape(len(starts), n_cycles) for a in run_cycles(AR1Sampler(), starts, n_cycles, seed)
    )
    return [pif_from_cycles(sums[0], lengths[0])] + [
        gstar_from_cycles(s, t, PI_F) for s, t in zip(sums[1:], lengths[1:])
    ]


def test_estimates_match_the_closed_form():
    exact = [PI_F, *exact_gstar(np.array(XS))]
    for est, value in zip(_estimates(20000, 1), exact):
        assert abs(est.point - value) <= 3.0 * est.std_error, (est, value)


def test_error_bars_match_the_seed_spread():
    # over 12 disjoint groups of 40 seeds of 1000 cycles, the ratio of
    # the spread to the mean bar lay in 0.81-1.27 for every estimate
    runs = np.array([[(e.point, e.std_error) for e in _estimates(1000, seed)]
                     for seed in range(100, 140)])
    spread = runs[:, :, 0].std(axis=0, ddof=1)
    bar = runs[:, :, 1].mean(axis=0)
    ratio = spread / bar
    assert np.all((ratio >= 1.0 / 1.5) & (ratio <= 1.5)), ratio


def test_exact_gstar_lies_inside_the_envelope():
    # v1 = v2 = 1 + 2x^2, so P v = 3 + 2a^2 x^2: the drift of f is
    # 2 - x^2/2 and that of 1 is 3 - 3x^2/2, negative off C with sups 2
    # and 3 over C, at x = 0
    xs = np.linspace(-10.0, 10.0, 2001)
    v = 1.0 + 2.0 * np.square(xs)
    pv = 3.0 + 2.0 * A * A * np.square(xs)
    inside = np.abs(xs) <= R
    for charge, b in ((np.square(xs), 2.0), (np.ones_like(xs), 3.0)):
        drift = pv - v + charge
        assert np.all(drift[~inside] < 0.0)
        assert drift[inside].max() == b
    cert = types.SimpleNamespace(b1=2.0, b2=3.0, m=1, lam=LAM)
    upper, lower, _ = solution_envelope(cert, v, v)
    g = exact_gstar(xs)
    assert np.all((lower <= g) & (g <= upper))
