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

Simulation (``mc_validate``) regenerates through the certificate's split
chain while its cycles are short (m/lam <= SPLIT_MAX_CYCLE). A thinner
drift margin (kappa nearer 1) pushes x0 out and lam towards 0, so split
cycles grow long; the chain is then regenerated at its atom {0}, which it
reaches from every x with probability P(Z <= -x) > 0, and g* is recovered
as g_a - phi(g_a) from the atom scheme's solution g_a.
"""

from __future__ import annotations

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

#: largest m/lam (a lower bound on the mean split-cycle length) at which
#: ``mc_validate`` keeps the certificate's split chain. Measured on the
#: normal(-0.5, 1) example, 5000 cycles, three seeds, as seconds x SE^2
#: with both standard errors carrying pi(f)'s error (seed means): at
#: m/lam = 2.9 and 4.9 (kappa = 3, 2) the split chain is 2.3x and 1.3x
#: cheaper at x = 0 (the atom 1.1x and 1.3x cheaper at x = 5); from
#: m/lam = 6.5 (kappa = 1.8) on the atom is cheaper at both points.
SPLIT_MAX_CYCLE = 6.0

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


@dataclass(frozen=True)
class Increment:
    """An increment law of one of FAMILIES, at location ``loc`` and scale ``scale``.

    Each method takes the standard law's formula on z = (x - loc)/scale,
    divides the pdf by scale, returns quantiles as z*scale + loc and the
    moments as mu*scale + loc and mu2*scale*scale: the arithmetic of
    scipy.stats 1.17, so every value, ppf(0) = -inf and ppf(1) = inf
    included, is the float its frozen law gives. scipy.special is imported
    on first use, so the package import that every command pays leaves it
    out. :func:`increment_family` checks the arguments.
    """

    family: str
    loc: float
    scale: float

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
        from scipy import special

        return (special.ndtr if self.family == "normal" else special.expit)(z)

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


def increment_family(family: str, loc: float, scale: float) -> Increment:
    """The increment law of a family name, with its arguments checked."""
    if family not in FAMILIES:
        raise ValueError(f"unknown increment family {family!r}; choose from {FAMILIES}")
    if not (math.isfinite(loc) and math.isfinite(scale) and scale > 0):
        raise ValueError(f"location must be finite and scale finite and > 0, got {loc}, {scale}")
    return Increment(family, loc, scale)


@dataclass(frozen=True)
class GIG1Model:
    """Increment law, drift margin parameter, and quadrature resolution.

    ``increment`` is an :class:`Increment`, from :func:`increment_family`
    (its pdf is the increment density h_Z). The quadrature grid uses
    spacing ``step`` and truncates the increment support at mean +-
    TAIL_SIGMAS standard deviations. The truncated density's mass is
    checked on construction, except when the drift-margin grid would hold
    more than MAX_GRID_POINTS points: ``build_certificate`` refuses that
    model, and the increment grid at that step may not fit in memory.
    ``pv1`` and ``drift_margin`` take any points, at a cost of the points
    times the increment grid; ``build_certificate`` gets the same sums on
    its drift grid, which shares the step, by one correlation.
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
        if not self.drift_grid_end() / self.step <= MAX_GRID_POINTS:
            return  # build_certificate refuses the model before any grid is made
        zs = self.z_grid()
        mass = np.trapezoid(self.increment.pdf(zs), zs)
        if abs(mass - 1.0) > MASS_TOL:
            raise QuadratureFailure(
                f"truncated density mass {mass:.8f} deviates from 1 beyond {MASS_TOL}"
            )

    @property
    def c1(self) -> float:
        return self.kappa / (2.0 * abs(self._mean))

    def v1(self, x):
        return np.maximum(self.c1 * np.square(x), 1.0)

    def z_grid(self) -> np.ndarray:
        lo = self._mean - TAIL_SIGMAS * self._sd
        hi = self._mean + TAIL_SIGMAS * self._sd
        return np.arange(lo, hi + self.step, self.step)

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
        zs = self.z_grid()
        hz = self.increment.pdf(zs)
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
    itself a small set. Raises SearchExhausted when the margin is still
    negative at the end of the grid, or when the grid would hold more
    than MAX_GRID_POINTS points, and NonFiniteResult, without a numpy
    warning, when x0, b1, lam or phi(v1) is not finite.
    """
    end = model.drift_grid_end()
    if not end / model.step <= MAX_GRID_POINTS:
        raise SearchExhausted(
            f"the drift-margin grid up to {end:.6g} at step {model.step} would hold "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points"
        )
    s = model.step
    xs = np.arange(0.0, end, s)
    zs = model.z_grid()
    # x_i + z_k = z_0 + (i + k) s, so (Pv1)(x_i) = sum_k t_k w_{i+k}: one
    # correlation of the lattice values w with the trapezoid-weighted density t
    dz = np.diff(zs)
    t = model.increment.pdf(zs) * (np.pad(dz, (0, 1)) + np.pad(dz, (1, 0))) / 2.0
    w = model.v1(np.maximum(zs[0] + np.arange(xs.size + zs.size - 1) * s, 0.0))
    margin = model.v1(xs) - np.maximum(xs, 1.0) - np.correlate(w, t, "valid")
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

    Samples x uniformly on [0, horizon] of the certificate's model and
    evaluates (Pv1)(x) - v1(x) + max(x, 1) - b1*I[x <= x0]; the returned
    maximum should not exceed the quadrature tolerance.
    """
    xs = rng.uniform(0.0, cert.model.drift_horizon() + HORIZON_PAD, size=n_points)
    violation = -cert.model.drift_margin(xs) - cert.b1 * (xs <= cert.x0)
    return float(violation.max())


class QueueSampler:
    """Batched Lindley-recursion sampler of a certificate's queue, with a regeneration scheme.

    Increments are drawn as ``ppf(u)`` of the :class:`Increment` of the
    certificate's model, and the minorizing measure is read from the
    certificate. With the certificate's scheme (the default), C = [0, x0],
    lam is the certificate's and phi is sampled by inverse CDF on its
    quadrature representation (atom at 0 plus a piecewise-linear density
    CDF). The residual kernel Q is sampled by rejection: propose a one-step
    transition from x and accept with probability 1 - psi(y)/p(x, y),
    where psi is the unnormalized minorizing measure; acceptance happens
    with overall probability 1 - lam, which is exactly the
    Q-normalization. With ``at_atom=True`` the same chain regenerates at
    its atom: C = {0}, lam = 1 and phi = P(0, .).
    """

    dtype = float
    m = 1

    def __init__(self, cert: GIG1Certificate, at_atom: bool = False):
        self.cert = cert
        self.at_atom = at_atom
        self.x0 = 0.0 if at_atom else cert.x0
        self.lam = 1.0 if at_atom else cert.lam
        self._increment = cert.model.increment
        # the cumulative trapezoid sum of the density, cell by cell
        steps = np.diff(cert.ys) * (cert.density[1:] + cert.density[:-1]) / 2.0
        cum = np.concatenate(([0.0], np.cumsum(steps)))
        self._phi_cum = (cert.atom + cum) / cert.lam

    def charge(self, x: np.ndarray) -> np.ndarray:
        return x

    def in_small_set(self, x: np.ndarray) -> np.ndarray:
        return x <= self.x0

    def step(self, x, streams, lanes):
        w = x + self._increment.ppf(streams.uniform(lanes))
        return np.where(w > 0.0, w, 0.0)

    def sample_phi(self, streams, lanes):
        if self.at_atom:
            return self.step(np.zeros(lanes.size), streams, lanes)
        return self.sample_certificate_phi(streams, lanes)

    def sample_certificate_phi(self, streams, lanes):
        """Draws from the certificate's phi, whatever the scheme."""
        u = streams.uniform(lanes)
        return np.where(u < self.cert.phi_atom(), 0.0, np.interp(u, self._phi_cum, self.cert.ys))

    def _psi(self, y: np.ndarray) -> np.ndarray:
        """Unnormalized minorizing density at y > 0 (0 beyond the grid)."""
        ys = self.cert.ys
        inside = (y > 0.0) & (y < ys[-1])
        return np.where(inside, np.interp(y, ys, self.cert.density), 0.0)

    def sample_residual(self, x, streams, lanes, budget):
        y = np.empty(x.size)
        rejected = np.zeros(x.size, dtype=np.int64)
        pending = np.arange(x.size)
        while pending.size:
            xp = x[pending]
            yp = self.step(xp, streams, lanes[pending])
            at_zero = yp == 0.0
            p = np.where(at_zero, self._increment.cdf(-xp), self._increment.pdf(yp - xp))
            mass = np.where(at_zero, self.cert.atom, self._psi(yp))
            ratio = np.divide(mass, p, out=np.ones_like(p), where=p > 0.0)
            accept = streams.uniform(lanes[pending]) < 1.0 - ratio
            y[pending[accept]] = yp[accept]
            pending = pending[~accept]
            rejected[pending] += 1
            pending = pending[rejected[pending] <= budget[pending]]
        return y, rejected


def mc_validate(
    cert: GIG1Certificate,
    x_list,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """Estimate g*(x) of the certificate's queue and check the envelope bounds.

    Two regeneration schemes estimate the same g*, the certificate's
    canonical solution:

    * ``"split"``: the certificate's split chain. pi(f) is the ratio
      estimator over cycles started from phi, and each g*(x) averages
      sum_f - pi_f * length over cycles from x. A cycle tosses a
      Bernoulli(lam) coin per visit to C, so it lasts at least m/lam
      steps on average.
    * ``"atom"``: the chain regenerated at its atom {0}. Its canonical
      solution g_a solves the same Poisson equation, so it differs from
      g* by a constant, and phi(g*) = 0 at m = 1 fixes that constant:
      g* = g_a - phi(g_a) with phi the certificate's minorizing law.
      {0} is a small set with m = 1, lam = 1 and phi = P(0, .): an atom
      cycle runs to the first visit of 0 (charged, with f(0) = 0) and
      regenerates with certainty there. pi(f) is the ratio estimator
      over atom cycles, and g_a(x) and phi(g_a) are ``gstar_from_cycles``
      over atom cycles from x and from phi. The standard error adds the
      three sources by the delta method:
      Var g_a(x) + Var phi(g_a) + ((E_x len - E_phi len) SE(pi_f))^2.

    The scheme depends on the certificate alone: the split chain when
    m/lam <= SPLIT_MAX_CYCLE, the atom otherwise, and the report names it
    under ``"regeneration"``. ``max_steps`` only guards each cycle on
    either scheme: a budget its cycles outrun raises MaxStepsExceeded.
    Every estimate is one block of a single ``run_cycles`` pass, on its
    own disjoint cycle streams, so one master seed reproduces the whole
    report. Containment is asserted within 3 standard errors of each
    estimate; an envelope that overflows at some x raises NonFiniteResult
    before any cycle is run.
    """
    x_list = [float(x) for x in x_list]
    with np.errstate(over="ignore"):  # an overflow is refused below as NonFiniteResult
        v1 = cert.model.v1(np.array(x_list))
        uppers, lowers, _ = (bound.tolist() for bound in solution_envelope(cert, v1, v1))
    for x, lower in zip(x_list, lowers):
        if not math.isfinite(lower):
            raise NonFiniteResult(f"the lower envelope -b1 (v1(x) + b1/lam) at x = {x} overflows")
    regeneration = "split" if cert.m / cert.lam <= SPLIT_MAX_CYCLE else "atom"
    sc = QueueSampler(cert, at_atom=regeneration == "atom")
    # pi(f) from phi, g* (g_a on the atom scheme) from each x and, on the
    # atom scheme, the same cycles with starts drawn from the certificate's phi
    starts = [None, *x_list]
    if regeneration == "atom":
        starts.append(sc.sample_certificate_phi)
    sums, lengths = (
        a.reshape(len(starts), n_cycles)
        for a in run_cycles(sc, starts, n_cycles, master_seed, workers, max_steps)
    )
    pif = pif_from_cycles(sums[0], lengths[0])
    estimates = [gstar_from_cycles(s, t, pif.point) for s, t in zip(sums[1:], lengths[1:])]
    points = [(e.point, e.std_error) for e in estimates]
    if regeneration == "atom":
        phi = estimates.pop()
        points = [
            (e.point - phi.point, math.sqrt(
                e.std_error**2 + phi.std_error**2
                + ((e.mean_length - phi.mean_length) * pif.std_error) ** 2
            ))
            for e in estimates
        ]
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
        "regeneration": regeneration,
        "pi_f": {"estimate": pif.point, "std_error": pif.std_error},
        "n_cycles": n_cycles,
        "seed": master_seed,
        "points": rows,
        "all_inside": all_inside,
    }

