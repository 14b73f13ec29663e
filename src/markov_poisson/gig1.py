"""Single-server queue waiting times: certificates, bounds, and simulation.

The chain is the Lindley recursion W_{n+1} = max(W_n + Z_n, 0) driven by
i.i.d. increments with a continuous positive density, negative mean, and
finite second moment. With the reward f(x) = x and the quadratic Lyapunov
function v1(x) = max(c1 x^2, 1), c1 = kappa / (2 |E Z|), kappa > 1, a
one-step (m = 1) certificate exists on an interval C = [0, x0]:

* the minorizing sub-measure is an atom at 0 of mass P(Z <= -x0) plus the
  density inf over x in [0, x0] of h_Z(y - x) on y > 0; lam is its total
  mass and phi the normalization;
* b1 = b2 = sup over x in [0, x0] of (Pv1)(x) - v1(x) + max(f(x), 1); the
  max(., 1) floor lets the same constant serve the unit-charge drift too.

All integrals are trapezoid sums on a uniform grid, over increments
truncated at mean +- TAIL_SIGMAS standard deviations. ``build_certificate``
makes two passes, and neither holds an array larger than its grids:

* the drift grid x_i = i s and the increment grid z_k = z_0 + k s share
  the step s, so x_i + z_k = z_0 + (i + k) s and (Pv1)(x_i) is
  sum_k t_k v1(max(z_0 + (i + k) s, 0)), with t_k the density at z_k
  times its trapezoid weight: the whole drift grid is one correlation;
* every family is unimodal, and a unimodal function attains its minimum
  over an interval at an endpoint, so the minorizing density is the
  smaller of h_Z(y) and h_Z(y - x0).

Choosing x0 has no closed form. ``build_certificate`` takes the last grid
point where the drift inequality fails, scanning up to an analytic
horizon plus HORIZON_PAD; beyond the horizon the inequality is certified
by the moment bound

    v1(x) - max(x, 1) - (Pv1)(x) >= (kappa - 1) x - c1 E[Z^2] - 1  > 0

valid for x >= max(1, 1/sqrt(c1)), which follows from v1(y) <= c1 y^2 + 1
and E[(x + Z)^2] = x^2 + 2 x E[Z] + E[Z^2].

Simulation (``mc_validate``) regenerates the chain at its atom {0},
which it reaches from every x with probability P(Z <= -x) > 0, and
recovers the certificate's g* as g_a - phi(g_a) from the atom's solution
g_a. The cycles are charged with a control, f - (w - Pw) for w(x) = u(x) +
beta x, the fluid value function u(x) = x^2 / (2 |E Z|) plus the linear
term of the free walk's exact solution, and each g*(x) gets w(x) - phi(w)
back. Every cycle carries two columns of charges, one for u and one for
x, so beta is fitted after the pass from its own pi(f) estimate. The
estimates keep their means and lose most of their variance, and each
error bar carries pi(f)'s error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bounds import envelope_comparison, solution_envelope
from .errors import NonFiniteResult, QuadratureFailure, SearchExhausted
from .mc import DEFAULT_MAX_STEPS, gstar_from_cycles, pif_from_cycles, run_cycles

#: tolerance on the truncated density mass
MASS_TOL = 1e-6

#: the quadrature truncates the increment support at mean +- TAIL_SIGMAS
#: standard deviations; the mass check against MASS_TOL bounds what the
#: truncation (and the grid) lose
TAIL_SIGMAS = 15.0

#: length scanned past the analytic drift horizon, by the drift-margin
#: grid of ``build_certificate`` and by ``drift_spot_check``
HORIZON_PAD = 2.0

#: most points the drift-margin grid of ``build_certificate`` may hold, and
#: the curve grid of ``gig1 --x-points``, so that a grid past it is refused
#: before it is allocated. It guards allocation, not time: both certificate
#: passes hold arrays linear in the grid, and on one core of a 2-core Intel
#: Xeon 19551 points (normal mean -0.03, kappa 1.1) take 10 ms for the margins
#: and the density. The default settings need 2576 (kappa 1.1, step 0.01).
MAX_GRID_POINTS = 10**5

#: increment families with continuous positive densities on the real line
FAMILIES = ("normal", "logistic", "laplace")


#: mean and variance of each family's standard member (loc 0, scale 1)
_STANDARD_MOMENTS = {
    "normal": (0.0, 1.0),
    "logistic": (0, np.pi * np.pi / 3.0),
    "laplace": (0, 2),
}

_SQRT_2PI = np.sqrt(2 * np.pi)

# The normal CDF of scipy.special.ndtr, transcribed from its Cephes source
# (ndtr.c, by Stephen L. Moshier) in Python floats: the same coefficient
# tables, Horner loops and libm exp (math.exp, not np.exp, whose SIMD
# kernel rounds some points differently), so every value is the same float,
# and the queue certificate's atom loads no scipy module.

#: erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
#: erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
#: erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: log of the largest double: exp(-x^2) underflows to 0 past it
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.7071067811865476


def _polevl(x: float, coef: tuple) -> float:
    """The polynomial with coefficients ``coef``, highest power first, by Horner's rule.

    A leading 1.0 gives Cephes' p1evl: 1.0 * x is exactly x.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """erfc(x) for x >= 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def _ndtr(a: float) -> float:
    """P(N(0, 1) <= a), the float scipy.special.ndtr gives."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


@dataclass(frozen=True)
class Increment:
    """An increment law of one of FAMILIES, at location ``loc`` and scale ``scale``.

    pdf, cdf, ppf, mean and var take the standard law's formula on z =
    (x - loc)/scale, divide the pdf by scale, return quantiles as
    z*scale + loc and the moments as mu*scale + loc and mu2*scale*scale:
    the arithmetic of scipy.stats 1.17, so every value, ppf(0) = -inf and
    ppf(1) = inf included, is the float its frozen law gives
    (``lower_partial_moments`` has no scipy.stats counterpart).
    The normal cdf is ``_ndtr``, scipy.special.ndtr's Cephes code in Python
    floats, taken point by point, and the laplace law is numpy alone, so a
    certificate of either family loads no scipy module. The rest (the
    logistic law, the normal ppf and the partial moments) is vector code
    from scipy.special, imported on first use, so the package import that
    every command pays leaves it out. Construction checks the arguments and
    raises ValueError.
    """

    family: str
    loc: float
    scale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown increment family {self.family!r}; choose from {FAMILIES}")
        if not (math.isfinite(self.loc) and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(
                f"location must be finite and scale finite and > 0, got {self.loc}, {self.scale}"
            )

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        if self.family == "normal":
            p = np.exp(-z**2 / 2.0) / _SQRT_2PI
        elif self.family == "logistic":
            from scipy.special import log1p

            y = -np.abs(z)
            p = np.exp(y - 2.0 * log1p(np.exp(y)))
        else:
            p = 0.5 * np.exp(-np.abs(z))
        return p / self.scale

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        if self.family == "laplace":
            with np.errstate(over="ignore"):
                return np.where(z > 0, 1.0 - 0.5 * np.exp(-z), 0.5 * np.exp(z))
        if self.family == "normal":
            return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)[()]
        from scipy.special import expit

        return expit(z)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if self.family == "laplace":
            # log(0) at q = 0 and q = 1 is the boundary value, not an error
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q))
        else:
            from scipy import special

            z = (special.ndtri if self.family == "normal" else special.logit)(q)
        return z * self.scale + self.loc

    def mean(self) -> float:
        mu, _ = _STANDARD_MOMENTS[self.family]
        return mu * self.scale + self.loc

    def var(self) -> float:
        _, mu2 = _STANDARD_MOMENTS[self.family]
        return mu2 * self.scale * self.scale

    def lower_partial_moments(self, t):
        """(M0, M1, M2) with M_k = E[Z^k; Z <= t], elementwise in t.

        Z = loc + scale L, and the standard law's partial moments m_k(s) =
        E[L^k; L <= s] are closed forms in which no term cancels:

        * normal, at any s: m0 = ndtr(s), m1 = -pdf(s), m2 = m0 - s pdf(s);
        * laplace and logistic, at w = -|s| <= 0, with the complements
          1 - m0(w), m1(w) and E L^2 - m2(w) for s > 0 (both laws are
          symmetric): laplace m0 = e^w / 2, m1 = (w - 1) m0, m2 = (w - 1) m1
          + m0; logistic m0 = expit(w), m1 = w m0 - sp(w) with sp(w) =
          log1p(e^w), m2 = w^2 m0 - 2 (w sp(w) + spence(1 + e^w)), by parts
          twice and the integral of sp from -inf to w, -spence(1 + e^w).

        Far in the lower tail each M_k underflows towards 0 and keeps only
        its absolute accuracy.
        """
        s = (np.asarray(t, dtype=float) - self.loc) / self.scale
        if self.family == "normal":
            from scipy.special import ndtr

            m0 = ndtr(s)
            with np.errstate(over="ignore"):  # s^2 = inf past 1e154: the density is 0
                density = np.exp(-s * s / 2.0) / _SQRT_2PI
            m1 = -density
            m2 = m0 - s * density
        else:
            w = -np.abs(s)
            if self.family == "laplace":
                m0 = np.exp(w) / 2.0
                m1 = (w - 1.0) * m0
                m2 = (w - 1.0) * m1 + m0
            else:
                from scipy.special import expit, log1p, spence

                e = np.exp(w)
                m0 = expit(w)
                softplus = log1p(e)
                m1 = w * m0 - softplus
                m2 = w * (w * m0) - 2.0 * (w * softplus + spence(1.0 + e))
            upper = s > 0.0
            _, second = _STANDARD_MOMENTS[self.family]
            m0 = np.where(upper, 1.0 - m0, m0)
            m2 = np.where(upper, second - m2, m2)
        loc, scale = self.loc, self.scale
        m2 = loc * loc * m0 + 2.0 * loc * scale * m1 + scale * scale * m2
        return m0, loc * m0 + scale * m1, m2


@dataclass(frozen=True)
class GIG1Model:
    """Increment law, drift margin parameter, and quadrature resolution.

    ``increment`` is an :class:`Increment` (its pdf is the increment
    density h_Z). Construction checks the arguments and evaluates no
    density. The increment ``lattice`` is built on first use and kept.
    ``pv1`` and ``drift_margin`` take any points, at a cost of the points
    times the lattice; ``build_certificate`` gets the same sums on its
    drift grid, which shares the step, by one correlation.
    """

    increment: Increment
    kappa: float
    step: float = 0.01

    def __post_init__(self):
        mean, var = float(self.increment.mean()), float(self.increment.var())
        if not mean < 0:
            raise ValueError(f"increment mean must be negative, got {mean}")
        if not np.isfinite(var):
            raise ValueError("increment must have a finite second moment")
        if not (math.isfinite(self.kappa) and self.kappa > 1):
            raise ValueError(f"kappa must be finite and exceed 1, got {self.kappa}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_sd", math.sqrt(var))

    @functools.cached_property
    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """The increment grid z (step ``step``, mean +- TAIL_SIGMAS sd) and h_Z on it, read-only.

        Raises QuadratureFailure when the trapezoid mass of h_Z deviates from 1 beyond MASS_TOL.
        """
        half = TAIL_SIGMAS * self._sd
        zs = np.arange(self._mean - half, self._mean + half + self.step, self.step)
        hz = self.increment.pdf(zs)
        mass = np.trapezoid(hz, zs)
        if abs(mass - 1.0) > MASS_TOL:
            raise QuadratureFailure(
                f"truncated density mass {mass:.8f} deviates from 1 beyond {MASS_TOL}"
            )
        zs.flags.writeable = False
        hz.flags.writeable = False
        return zs, hz

    @property
    def c1(self) -> float:
        return self.kappa / (2.0 * abs(self._mean))

    def v1(self, x):
        return np.maximum(self.c1 * np.square(x), 1.0)

    def drift_grid_end(self) -> float:
        """End of the drift-margin grid: the horizon, HORIZON_PAD and one step."""
        return self.drift_horizon() + HORIZON_PAD + self.step

    def drift_horizon(self) -> float:
        """Analytic threshold past which the moment bound certifies drift."""
        second_moment = self._sd**2 + self._mean**2
        tail_start = (self.c1 * second_moment + 1.0) / (self.kappa - 1.0)
        return max(1.0, 1.0 / math.sqrt(self.c1), tail_start)

    def pv1(self, xs: np.ndarray) -> np.ndarray:
        """(Pv1)(x) = E v1(max(x + Z, 0)) on a grid of x, by quadrature."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        zs, hz = self.lattice
        out = np.empty(xs.size)
        block = max(1, int(2_000_000 / zs.size))
        for lo in range(0, xs.size, block):
            chunk = xs[lo : lo + block, None] + zs[None, :]
            np.clip(chunk, 0.0, None, out=chunk)
            out[lo : lo + block] = np.trapezoid(self.v1(chunk) * hz, zs, axis=1)
        return out

    def drift_margin(self, xs: np.ndarray) -> np.ndarray:
        """v1(x) - max(x, 1) - (Pv1)(x); nonnegative where drift holds off C.

        The max(x, 1) charge covers both the reward f(x) = x and the
        constant charge 1, so a single constant b1 = b2 certifies both
        drift inequalities.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self.v1(xs) - np.maximum(xs, 1.0) - self.pv1(xs)


@dataclass(frozen=True)
class GIG1Certificate:
    """One-step certificate data for the queue, on quadrature grids.

    ``model`` is the :class:`GIG1Model` the certificate was built from, so
    its consumers read the increment law, c1 and v1 from it and a
    certificate cannot be paired with another queue. ``atom`` and
    ``density`` form the unnormalized minorizing sub-measure (total mass
    lam); phi is that measure divided by lam. v1 = v2 and b1 = b2 by
    construction.
    """

    model: GIG1Model
    x0: float
    lam: float
    b1: float
    atom: float
    ys: np.ndarray
    density: np.ndarray
    phi_v1: float

    m: ClassVar[int] = 1

    @property
    def b2(self) -> float:
        return self.b1

    def phi_atom(self) -> float:
        return self.atom / self.lam


@np.errstate(over="ignore", invalid="ignore")
def build_certificate(model: GIG1Model) -> GIG1Certificate:
    """Compute (x0, lam, phi, b1) for C = [0, x0] by quadrature.

    Drift margins are evaluated once, on the grid [0, horizon +
    HORIZON_PAD], by the correlation in the module docstring. x0 is the
    last grid point with a negative margin, so the drift inequality
    holds at every larger grid point; past the analytic horizon the
    moment bound in the module docstring certifies it, so the grid scan
    is exhaustive. Some point is always negative: the margin at 0 is
    -(Pv1)(0) <= -(1 - MASS_TOL), and x0 = 0 leaves the atom C = {0},
    itself a small set. Raises NonFiniteResult, without a numpy warning,
    when the grid's end or a drift margin overflows (checked before the
    scan) or when x0, b1, lam or phi(v1) is not finite, and SearchExhausted
    when the margin is still negative at the end of the grid, or when the
    grid would hold more than MAX_GRID_POINTS points (before the model's
    lattice is built); QuadratureFailure when the lattice's mass check
    fails or the minorizing measure has zero mass.
    """
    end = model.drift_grid_end()
    if not math.isfinite(end):
        raise NonFiniteResult(f"the drift horizon is not finite: c1 = {model.c1:.6g}")
    if not end / model.step <= MAX_GRID_POINTS:
        raise SearchExhausted(
            f"the drift-margin grid up to {end:.6g} at step {model.step} would hold "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points"
        )
    s = model.step
    xs = np.arange(0.0, end, s)
    zs, hz = model.lattice
    # x_i + z_k = z_0 + (i + k) s, so (Pv1)(x_i) = sum_k t_k w_{i+k}: one
    # correlation of the lattice values w with the trapezoid-weighted density t
    dz = np.diff(zs)
    t = hz * (np.pad(dz, (0, 1)) + np.pad(dz, (1, 0))) / 2.0
    w = model.v1(np.maximum(zs[0] + np.arange(xs.size + zs.size - 1) * s, 0.0))
    margin = model.v1(xs) - np.maximum(xs, 1.0) - np.correlate(w, t, "valid")
    if not np.all(np.isfinite(margin)):
        raise NonFiniteResult(f"the drift margin overflows on the grid: c1 = {model.c1:.6g}")
    last = np.flatnonzero(margin < 0.0)[-1]
    if last == xs.size - 1:
        raise SearchExhausted(f"drift margin still negative at the horizon {xs[-1]:.3f}")
    x0 = float(xs[last])
    # sup (Pv1) - v1 + max(x, 1) over C, at least -margin(0) > 0
    b1 = float(np.max(-margin[: last + 1]))

    atom = float(model.increment.cdf(-x0))
    ys = np.arange(s, x0 + zs[-1] + s, s)
    # a unimodal h_Z(y - x) is least over x in [0, x0] at an end of C
    density = np.minimum(model.increment.pdf(ys), model.increment.pdf(ys - x0))
    lam = atom + float(np.trapezoid(density, ys))
    if lam <= 0.0:
        raise QuadratureFailure("minorizing measure has zero mass")
    phi_v1 = (atom * 1.0 + float(np.trapezoid(density * model.v1(ys), ys))) / lam
    if not all(map(math.isfinite, (x0, b1, lam, phi_v1))):
        raise NonFiniteResult(
            f"certificate is not finite: x0 {x0}, b1 {b1}, lambda {lam}, phi(v1) {phi_v1}"
        )
    density.flags.writeable = False
    ys.flags.writeable = False
    return GIG1Certificate(
        model=model,
        x0=x0,
        lam=lam,
        b1=b1,
        atom=atom,
        ys=ys,
        density=density,
        phi_v1=phi_v1,
    )


def bound_curves(cert: GIG1Certificate, x_grid) -> dict:
    """Solution envelope curves and the asymptotic coefficient comparison.

    ours_* is ``bounds.solution_envelope`` with v2 = v1, and competing(x) =
    a (1 + b1) c1 x^2; ``bounds.envelope_comparison`` gives a (1 + b1) and
    the quadratic-growth coefficients max{1, b1} (ours) and a (1 + b1).
    Raises NonFiniteResult when a curve overflows at some x of the grid.
    """
    xs = np.asarray(x_grid, dtype=float)
    _, competing_coeff, ours_coeff = envelope_comparison(cert.b1, cert.lam, cert.phi_v1)
    with np.errstate(over="ignore"):  # an overflow is refused below as NonFiniteResult
        v1 = cert.model.v1(xs)
        upper, lower, absolute = solution_envelope(cert, v1, v1)
        competing = competing_coeff * cert.model.c1 * np.square(xs)
    curves = {"ours_upper": upper, "ours_lower": lower, "ours_abs": absolute,
              "competing": competing}
    for name, curve in curves.items():
        overflow = ~np.isfinite(curve)
        if overflow.any():
            raise NonFiniteResult(f"the {name} curve at x = {xs[overflow][0]} overflows")
    return {**curves, "competing_asymptotic_coeff": competing_coeff,
            "ours_asymptotic_coeff": ours_coeff}


def drift_spot_check(cert: GIG1Certificate, n_points: int, rng: np.random.Generator) -> float:
    """Worst drift-inequality violation of ``cert`` at random off-grid points.

    Samples x uniformly on [0, drift_horizon() + HORIZON_PAD] of the
    certificate's model, the range its drift grid scans, and evaluates
    (Pv1)(x) - v1(x) + max(x, 1) - b1*I[x <= x0]; the returned maximum
    should not exceed the quadrature tolerance.
    """
    xs = rng.uniform(0.0, cert.model.drift_horizon() + HORIZON_PAD, size=n_points)
    violation = -cert.model.drift_margin(xs) - cert.b1 * (xs <= cert.x0)
    return float(violation.max())


class QueueSampler:
    """Batched Lindley-recursion sampler of a certificate's queue, regenerated at its atom.

    Increments are drawn as ``ppf(u)`` of the :class:`Increment` of the
    certificate's model. The small set is the atom C = {0}, with m = 1,
    lam = 1 and phi = P(0, .), so the coin cannot fail and the sampler
    needs no ``regeneration_probability`` (see :func:`mc_validate`). The certificate's own phi, which centres the
    estimates, is sampled by ``sample_certificate_phi``: inverse CDF on its
    quadrature representation (atom at 0 plus a piecewise-linear density
    CDF).

    Cycles carry two charges, not f(x) = x. The first is h = f - (u - Pu),
    where u is the fluid value function u(x) = x^2 / (2 |E Z|). The x terms
    of f - u + Pu cancel exactly and leave the bounded charge

        h(x) = (E Z^2 - E[(x + Z)^2; Z <= -x]) / (2 |E Z|).

    The second is the drift of the linear term, d(x) = E max(x + Z, 0) - x
    = E Z - x M0 - M1 with M_k = E[Z^k; Z <= -x]; it tends to E Z for large
    x. Both come from one ``Increment.lower_partial_moments`` call, and
    h + beta d is the charge of the control u + beta x (see ``beta`` and
    :func:`mc_validate`). ``phi_u`` and ``phi_x`` are the exact means of u
    and x under the law ``sample_certificate_phi`` draws from: the atom at
    0 adds nothing, and a cell [a, b] of ``ys`` with phi-mass w is uniform
    and adds w (a^2 + ab + b^2) / 3 / (2 |E Z|) and w (a + b) / 2.
    """

    dtype = float
    m = 1
    lam = 1.0

    def __init__(self, cert: GIG1Certificate):
        self.cert = cert
        self._increment = increment = cert.model.increment
        # the cumulative trapezoid sum of the density, cell by cell
        steps = np.diff(cert.ys) * (cert.density[1:] + cert.density[:-1]) / 2.0
        cum = np.concatenate(([0.0], np.cumsum(steps)))
        self._phi_cum = (cert.atom + cum) / cert.lam
        self._mean = mean = increment.mean()
        self._fluid = 1.0 / (2.0 * abs(mean))
        self._second_moment = increment.var() + mean * mean
        a, b = cert.ys[:-1], cert.ys[1:]
        weights = np.diff(self._phi_cum)
        self.phi_u = float(weights @ (a * a + a * b + b * b)) / 3.0 * self._fluid
        self.phi_x = float(weights @ (a + b)) / 2.0

    def u(self, x) -> np.ndarray:
        """The control's fluid value function x^2 / (2 |E Z|)."""
        return self._fluid * np.square(x)

    def beta(self, pi_f: float) -> float:
        """The free walk's linear term (E Z^2 / (2 |E Z|) - pi(f)) / |E Z|."""
        return (self._second_moment * self._fluid - pi_f) * 2.0 * self._fluid

    def charge(self, x: np.ndarray) -> np.ndarray:
        """The columns (h, d) of the control's charges, shape (x.size, 2)."""
        m0, m1, m2 = self._increment.lower_partial_moments(-x)
        # x (x M0 + 2 M1) + M2: M0 and M1 vanish before x^2 could overflow
        h = (self._second_moment - (x * (x * m0 + 2.0 * m1) + m2)) * self._fluid
        return np.stack([h, self._mean - x * m0 - m1], axis=-1)

    def in_small_set(self, x: np.ndarray) -> np.ndarray:
        return x <= 0.0

    def step(self, x, streams, lanes):
        w = x + self._increment.ppf(streams.uniform(lanes))
        return np.where(w > 0.0, w, 0.0)

    def sample_phi(self, streams, lanes):
        """Draws from the atom's phi = P(0, .): one step from 0."""
        return self.step(np.zeros(lanes.size), streams, lanes)

    def sample_certificate_phi(self, streams, lanes):
        """Draws from the certificate's phi."""
        u = streams.uniform(lanes)
        return np.where(u < self.cert.phi_atom(), 0.0, np.interp(u, self._phi_cum, self.cert.ys))


def gstar_points(sums: np.ndarray, lengths: np.ndarray, offsets):
    """pi(f) and each (g*(x), standard error) from the blocks of one ``run_cycles`` pass.

    Row 0 of ``sums`` and ``lengths`` is the phi-started block, which gives
    pi(f) by the ratio estimator; the middle rows are the blocks from each
    x, and the last row is the centring block, started from the
    certificate's phi. With g_x the ``gstar_from_cycles`` estimate from x
    and g_phi the centring estimate, each point is

        g_x - g_phi + offset,

    and its standard error adds the three independent sources by the delta
    method, pi(f)'s included:

        Var g_x + Var g_phi + ((E_x len - E_phi len) SE(pi_f))^2.

    The offsets are w(x) - phi(w) of the control w = u + beta x (see
    :func:`mc_validate`).
    """
    pif = pif_from_cycles(sums[0], lengths[0])
    estimates = [gstar_from_cycles(s, t, pif.point) for s, t in zip(sums[1:], lengths[1:])]
    centre = estimates.pop()
    points = [
        (e.point - centre.point + offset, math.hypot(
            e.std_error, centre.std_error, (e.mean_length - centre.mean_length) * pif.std_error
        ))
        for e, offset in zip(estimates, offsets)
    ]
    return pif, points


def mc_validate(
    cert: GIG1Certificate,
    x_list,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """Estimate g*(x) of the certificate's queue and check the envelope bounds.

    The chain is regenerated at its atom {0}, a small set with m = 1,
    lam = 1 and phi = P(0, .): a cycle runs to the first visit of 0
    (charged there) and regenerates with certainty. The atom's canonical
    solution g_a solves the same Poisson equation as the certificate's g*,
    so it differs from g* by a constant, and phi(g*) = 0 fixes that
    constant: g* = g_a - phi(g_a) with phi the certificate's minorizing
    law. pi(f) is the ratio estimator over cycles started from P(0, .),
    and g_a(x) and phi(g_a) are ``gstar_from_cycles`` over cycles from x
    and from the certificate's phi.

    The cycles carry the two charges (h, d) of :class:`QueueSampler`, and
    every estimate reduces h + beta d, the charge f - (w - Pw) of the
    control w(x) = u(x) + beta x. tau is a stopping time, w(X_n) - w(X_0)
    - sum_{j<n} (Pw - w)(X_j) is a martingale and X_tau ~ P(0, .), so
    E_x sum_{j<tau} (w - Pw)(X_j) = w(x) - Pw(0) whatever beta. Hence
    pi(f) = E sum (h + beta d) / E tau, the same ratio estimator, and the
    Pw(0) terms of g_a(x) and phi(g_a) cancel: g*(x) is the charged
    g_a(x) - phi(g_a) plus u(x) - phi(u) + beta (x - phi(x)), with phi the
    certificate's law.

    At beta = (E Z^2 / (2 |E Z|) - pi(f)) / |E Z|, w solves the Poisson
    equation of the free walk (no reflection at 0) exactly, so the charge
    tends to pi(f) for large x and long excursions add little variance.
    beta is fitted from the ratio estimate of pi(f) on the h column of the
    P(0, .) block, and every point uses that one beta in its sums and its
    offset; the plug-in biases the points by O(1/n), far below their error
    bars. :func:`gstar_points` reduces the cycles, and every standard
    error carries pi(f)'s error. The report names the control under
    ``"control"``, with beta, phi(u) and phi(x).

    ``max_steps`` guards each cycle's steps: a budget its cycles outrun
    raises MaxStepsExceeded. Every estimate is one block of a single
    ``run_cycles`` pass, on its own disjoint cycle streams, so one master
    seed reproduces the whole report. Containment is asserted within 3
    standard errors of each estimate; an envelope that overflows at some x
    raises NonFiniteResult before any cycle is run.
    """
    x_list = [float(x) for x in x_list]
    with np.errstate(over="ignore"):  # an overflow is refused below as NonFiniteResult
        v1 = cert.model.v1(np.array(x_list))
        uppers, lowers, _ = (bound.tolist() for bound in solution_envelope(cert, v1, v1))
    for x, lower in zip(x_list, lowers):
        if not math.isfinite(lower):
            raise NonFiniteResult(f"the lower envelope -b1 (v1(x) + b1/lam) at x = {x} overflows")
    sc = QueueSampler(cert)
    # pi(f) from P(0, .), g_a from each x and phi(g_a) from the certificate's phi
    starts = [None, *x_list, sc.sample_certificate_phi]
    sums, lengths = run_cycles(sc, starts, n_cycles, master_seed, workers, max_steps)
    sums = sums.reshape(len(starts), n_cycles, 2)
    lengths = lengths.reshape(len(starts), n_cycles)
    beta = sc.beta(pif_from_cycles(sums[0, :, 0], lengths[0]).point)
    xs = np.array(x_list)
    offsets = (sc.u(xs) - sc.phi_u + beta * (xs - sc.phi_x)).tolist()
    pif, points = gstar_points(sums[..., 0] + beta * sums[..., 1], lengths, offsets)
    rows = []
    all_inside = True
    for x, lower, upper, (point, se) in zip(x_list, lowers, uppers, points):
        inside = point >= lower - 3.0 * se and point <= upper + 3.0 * se
        all_inside &= inside
        rows.append(
            {
                "x": x,
                "estimate": point,
                "std_error": se,
                "bound_lower": lower,
                "bound_upper": upper,
                "inside": inside,
            }
        )
    return {
        "control": {"u": "x^2 / (2 |E Z|) + beta x", "beta": beta, "phi_u": sc.phi_u,
                    "phi_x": sc.phi_x},
        "pi_f": {"estimate": pif.point, "std_error": pif.std_error},
        "n_cycles": n_cycles,
        "seed": master_seed,
        "points": rows,
        "all_inside": all_inside,
    }
