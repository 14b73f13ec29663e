import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate, stats
from test_cycle_system import chains_with_certificates

from markov_poisson import gig1
from markov_poisson.certify import minorize
from markov_poisson.chain import validate_chain
from markov_poisson.errors import MaxStepsExceeded, QuadratureFailure, SearchExhausted
from markov_poisson.gig1 import (
    GIG1Model,
    Increment,
    QueueSampler,
    bound_curves,
    build_certificate,
    drift_spot_check,
    gstar_points,
    mc_validate,
)
from markov_poisson.mc import CycleStreams, FiniteChainSampler, pif_from_cycles, run_cycles
from markov_poisson.split import CycleSystem

STANDARD = dict(increment=Increment("normal", -0.5, 1.0))


@pytest.fixture(scope="module")
def cert_tight():
    """kappa = 1.1: a barely-feasible drift margin forces a wide small set."""
    return build_certificate(GIG1Model(kappa=1.1, **STANDARD))


@pytest.fixture(scope="module")
def cert_roomy():
    """kappa = 2: comfortable margin, small C, regeneration easy to simulate."""
    return build_certificate(GIG1Model(kappa=2.0, **STANDARD))


def test_model_validation():
    with pytest.raises(ValueError):
        GIG1Model(increment=Increment("normal", 0.5, 1.0), kappa=2.0)
    for bad in (1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="kappa"):
            GIG1Model(kappa=bad, **STANDARD)
    # at the default step the trapezoid rule gives the laplace density,
    # kinked at its mode, mass 0.99999745: outside MASS_TOL. The model
    # holds its arguments; the lattice, built on first use, is refused
    model = GIG1Model(increment=Increment("laplace", -0.5, 1.0), kappa=2.0)
    with pytest.raises(QuadratureFailure, match="truncated density mass 0.99999745"):
        build_certificate(model)
    for bad in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="step"):
            GIG1Model(kappa=2.0, step=bad, **STANDARD)


def test_tight_certificate_regression_values(cert_tight):
    # frozen from the first run of this deterministic quadrature
    cert = cert_tight
    assert cert.x0 == pytest.approx(13.75, abs=1e-12)
    assert cert.lam == pytest.approx(6.197740398750353e-12, rel=1e-9)
    assert cert.b1 == pytest.approx(1.6417677137300017, rel=1e-9)
    assert cert.phi_v1 == pytest.approx(44.74696270900585, rel=1e-9)
    assert 0.0 < cert.lam < 1.0


def test_atom_is_tail_mass_below_minus_x0(cert_tight, cert_roomy):
    for cert in (cert_tight, cert_roomy):
        assert cert.atom == stats.norm(-0.5, 1.0).cdf(-cert.x0)


def test_search_exhausted_when_horizon_cut_short(monkeypatch):
    monkeypatch.setattr(gig1, "HORIZON_PAD", -20.0)
    model = GIG1Model(kappa=1.1, **STANDARD)
    with pytest.raises(SearchExhausted):
        build_certificate(model)


def test_grid_past_its_cap_is_refused_before_allocation():
    # at step 1e-12 the increment grid alone would hold 3e13 points: the
    # model is built without it, and build_certificate refuses the model
    # before its drift-margin grid is made
    import tracemalloc

    tracemalloc.start()
    try:
        model = GIG1Model(kappa=2.0, step=1e-12, **STANDARD)
        with pytest.raises(SearchExhausted, match="MAX_GRID_POINTS"):
            build_certificate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stronger_drift_shrinks_small_set():
    # monotone on this family: the margin threshold behaves like
    # (|mu| + 1/|mu|)/2 here, decreasing while |mu| stays below 1
    x0s = [
        build_certificate(GIG1Model(increment=Increment("normal", mu, 1.0), kappa=2.0)).x0
        for mu in (-0.5, -0.6, -0.75)
    ]
    assert x0s[0] >= x0s[1] >= x0s[2]


def test_grid_refinement_moves_x0_at_most_one_coarse_step():
    coarse = GIG1Model(kappa=2.0, step=0.02, **STANDARD)
    fine = GIG1Model(kappa=2.0, step=0.01, **STANDARD)
    assert abs(build_certificate(coarse).x0 - build_certificate(fine).x0) <= 0.02 + 1e-12


def test_quadrature_self_consistency(cert_roomy):
    cert = cert_roomy
    finer = build_certificate(GIG1Model(kappa=2.0, step=0.005, **STANDARD))
    assert abs(finer.lam - cert.lam) <= 0.01 * cert.lam
    assert abs(finer.b1 - cert.b1) <= 0.01 * cert.b1
    assert abs(finer.phi_v1 - cert.phi_v1) <= 0.01 * cert.phi_v1


@pytest.mark.parametrize("kappa", [1.1, 2.0])
def test_drift_spot_check_random_points(kappa):
    model = GIG1Model(kappa=kappa, **STANDARD)
    cert = build_certificate(model)
    worst = drift_spot_check(cert, 100, np.random.default_rng(0))
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "family, kappa, step",
    [("normal", 2.0, 0.01), ("normal", 1.1, 0.01), ("logistic", 2.0, 0.01),
     ("logistic", 1.1, 0.01), ("laplace", 2.0, 0.004)],
)
def test_certificate_matches_the_grid_reference(family, kappa, step):
    # the certificate's one correlation and its density read at the two
    # ends of C against the general pv1 and the infimum over every grid
    # point of C
    model = GIG1Model(increment=Increment(family, -0.5, 1.0), kappa=kappa, step=step)
    cert = build_certificate(model)
    xs = np.arange(0.0, model.drift_grid_end(), step)
    margin = model.drift_margin(xs)
    last = np.flatnonzero(margin < 0.0)[-1]
    assert cert.x0 == xs[last]
    assert cert.b1 == pytest.approx(np.max(-margin[: last + 1]), rel=1e-10, abs=0.0)
    density = np.full(cert.ys.size, np.inf)
    for c in np.arange(0.0, cert.x0 + step / 2, step):
        np.minimum(density, model.increment.pdf(cert.ys - c), out=density)
    np.testing.assert_array_equal(cert.density, density)


def test_certificate_builds_in_linear_memory(cert_tight):
    # a (drift grid x increment grid) array at kappa = 1.1 would be 59 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        build_certificate(cert_tight.model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _normal_pv1(model, xs):
    """Exact E v1(max(x + Z, 0)) for normal Z: W = x + Z ~ N(m, sd^2)."""
    mu, sd = model.increment.loc, model.increment.scale
    m, a = xs + mu, 1.0 / np.sqrt(model.c1)
    alpha = (a - m) / sd
    upper = (m * m + sd * sd) * stats.norm.sf(alpha) + sd * (m + a) * stats.norm.pdf(alpha)
    return stats.norm.cdf(alpha) + model.c1 * upper


@pytest.mark.parametrize("kappa", [2.0, 1.1])
def test_pv1_matches_the_normal_closed_form(kappa):
    # the trapezoid error reaches 9e-6 off the grid, beyond drift_spot_check's
    # 1e-6: the certificate is not yet checked between grid points (ROADMAP,
    # "Make the queue certificate hold between grid points")
    coarse = GIG1Model(kappa=kappa, step=0.01, **STANDARD)
    fine = GIG1Model(kappa=kappa, step=0.005, **STANDARD)
    grid = np.arange(0.0, coarse.drift_grid_end(), coarse.step)
    off = np.random.default_rng(20261019).uniform(0.0, coarse.drift_grid_end(), 2000)
    exact = _normal_pv1(coarse, off)
    assert np.max(np.abs(coarse.pv1(grid) - _normal_pv1(coarse, grid))) <= 2e-5
    worst_coarse = np.max(np.abs(coarse.pv1(off) - exact))
    worst_fine = np.max(np.abs(fine.pv1(off) - exact))
    assert worst_coarse <= 2e-5
    assert worst_fine * 3.0 <= worst_coarse


def test_bound_curves_limits(cert_roomy):
    cert = cert_roomy
    xs = np.linspace(0.0, 200.0, 400)
    curves = bound_curves(cert, xs)
    # the absolute envelope grows like max{1, b1} * c1 x^2
    ratio = curves["ours_abs"][-1] / (cert.model.c1 * xs[-1] ** 2)
    assert ratio == pytest.approx(curves["ours_asymptotic_coeff"], rel=0.05)
    # the alternative envelope stays above ours by the coefficient ratio
    competing_ratio = curves["competing"][-1] / curves["ours_abs"][-1]
    expected = curves["competing_asymptotic_coeff"] / curves["ours_asymptotic_coeff"]
    assert competing_ratio == pytest.approx(expected, rel=0.05)
    assert competing_ratio >= 1.0


def test_comparison_coefficients(cert_tight):
    cert = cert_tight
    curves = bound_curves(cert, np.array([1.0]))
    assert curves["ours_asymptotic_coeff"] == pytest.approx(max(1.0, cert.b1))
    assert curves["competing_asymptotic_coeff"] > curves["ours_asymptotic_coeff"]


def test_phi_sampler_matches_quadrature_moments(cert_roomy):
    cert = cert_roomy
    sampler = QueueSampler(cert)
    draws = sampler.sample_certificate_phi(CycleStreams(101, 0, 20000), np.arange(20000))
    atom_freq = np.mean(draws == 0.0)
    assert atom_freq == pytest.approx(cert.phi_atom(), abs=0.01)
    mean_quad = (np.trapezoid(cert.density * cert.ys, cert.ys)) / cert.lam
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - mean_quad) <= 4 * se


def test_mc_validation_inside_envelope(cert_roomy):
    cert = cert_roomy
    report = mc_validate(cert, [0.0, 1.0, 2.0, 5.0, 10.0], 4000, master_seed=99)
    assert report["all_inside"]
    for row in report["points"]:
        assert row["std_error"] > 0.0


def test_mc_validate_scheme_follows_certificate_not_budget(cert_tight, cert_roomy):
    # m/lam is 4.9 at kappa = 2, 6.5 at kappa = 1.8 and 1.6e11 at kappa = 1.1:
    # every certificate's queue regenerates at {0}, and the step budget
    # only guards the cycles, so both budgets give the same report
    near = build_certificate(GIG1Model(kappa=1.8, **STANDARD))
    for cert in (cert_roomy, near, cert_tight):
        reports = [mc_validate(cert, [1.0], 50, master_seed=3, max_steps=max_steps)
                   for max_steps in (10**4, 10**8)]
        assert reports[0] == reports[1]
        assert reports[0]["all_inside"]
        assert list(reports[0]) == ["control", "pi_f", "n_cycles", "seed", "points", "all_inside"]
    # a budget the cycles outrun is an error
    with pytest.raises(MaxStepsExceeded):
        mc_validate(cert_roomy, [1.0], 200, master_seed=3, max_steps=2)


def test_mc_pif_matches_long_run_average(cert_roomy):
    cert = cert_roomy
    sc = QueueSampler(cert)
    est = pif_from_cycles(*run_cycles(sc, [None], 20000, master_seed=5))
    # independent oracle: time average of a long Lindley trajectory
    rng = np.random.default_rng(12345)
    steps = 400000
    z = stats.norm(-0.5, 1.0).rvs(size=steps, random_state=rng)
    w = 0.0
    total = 0.0
    for i in range(steps):
        total += w
        w = w + z[i]
        if w < 0.0:
            w = 0.0
    longrun = total / steps
    # batch-means error of the oracle plus the ratio estimator's own SE
    assert abs(est.point - longrun) <= 5 * est.std_error + 0.02


def test_non_normal_family_pipeline():
    # the quadrature and the generic inverse-CDF sampler handle any
    # continuous positive density; laplace exercises the fallback path
    # (its kink needs a finer grid to clear the mass tolerance)
    model = GIG1Model(increment=Increment("laplace", -0.5, 1.0), kappa=2.0, step=0.004)
    cert = build_certificate(model)
    assert 0.0 < cert.lam < 1.0
    assert cert.b1 > 0.0
    worst = drift_spot_check(cert, 50, np.random.default_rng(4))
    assert worst <= 1e-6
    sc = QueueSampler(cert)
    est = pif_from_cycles(*run_cycles(sc, [None], 500, master_seed=6))
    assert np.isfinite(est.point) and est.point > 0.0


SCIPY_LAWS = {"normal": stats.norm, "logistic": stats.logistic, "laplace": stats.laplace}


@pytest.mark.parametrize("family", gig1.FAMILIES)
def test_increment_gives_the_frozen_scipy_law_floats(family):
    # the record repeats scipy.stats' arithmetic, so every value is the same
    # float: compared with ==, tails at +-40 sigma and the quantile
    # boundaries included (Philox's uniform can return exactly 0.0)
    rng = np.random.default_rng(20261019)
    q_fixed = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 1e-300, 0.25, 0.75])
    for loc, scale in [(-0.5, 1.0), (0.0, 1.0)] + [
        (rng.uniform(-50.0, 50.0), float(np.exp(rng.uniform(-7.0, 7.0)))) for _ in range(20)
    ]:
        ours, frozen = Increment(family, loc, scale), SCIPY_LAWS[family](loc, scale)
        z = np.concatenate([np.linspace(-40.0, 40.0, 801), rng.normal(0.0, 10.0, 200)])
        xs = np.concatenate([loc + frozen.std() * z, [-np.inf, np.inf, np.nan]])
        qs = np.concatenate([q_fixed, rng.uniform(size=200), np.linspace(0.0, 1.0, 257)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method, points in (("pdf", xs), ("cdf", xs), ("ppf", qs)):
                got, want = getattr(ours, method)(points), getattr(frozen, method)(points)
                np.testing.assert_array_equal(got, want, err_msg=f"{method} at {loc}, {scale}")
                for point in points[:4]:
                    assert getattr(ours, method)(point) == getattr(frozen, method)(point)
        assert ours.mean() == frozen.mean()
        assert ours.var() == frozen.var()
        assert ours.ppf(0.0) == -np.inf and ours.ppf(1.0) == np.inf
    # the branch points of the Cephes code that the normal cdf transcribes,
    # with neighbours one ulp of c apart: erf gives way to erfc at |z| = 1
    # and erfc to 1 - erf below sqrt(2), erfc changes its rational form at
    # 8 sqrt(2) and underflows to 0 near 37.68; and the certificate's atom
    # P(Z <= -x0), at every x0 of the 0.01 grid up to 60
    ulps = np.arange(-3, 4)
    branches = [c + ulps * np.spacing(c) for c in (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0))]
    z = np.concatenate([*branches, np.linspace(37.5, 38.6, 2201)])
    xs = np.concatenate([z, -z, -np.arange(0.0, 60.0, 0.01)])
    for loc in (0.0, -0.5):
        got, want = Increment(family, loc, 1.0).cdf(xs), SCIPY_LAWS[family](loc, 1.0).cdf(xs)
        np.testing.assert_array_equal(got, want, err_msg=f"cdf edges at {loc}")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        Increment("cauchy", -0.5, 1.0)


def test_increment_checks_its_arguments():
    # a record built directly is checked as the command line's is: a
    # misspelt family would otherwise evaluate the laplace pdf with the
    # logistic cdf and ppf
    with pytest.raises(ValueError, match="unknown increment family 'Normal'"):
        Increment("Normal", -0.5, 1.0)
    for loc in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="location must be finite"):
            Increment("normal", loc, 1.0)
    for scale in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="scale finite and > 0"):
            Increment("logistic", -0.5, scale)


def test_one_lattice_per_gig1_op(monkeypatch, capsys):
    # h_Z is evaluated on the increment lattice once per op: the certificate's
    # weights and the spot check's pv1 read the model's one lattice
    from markov_poisson.cli import main

    original, lattice_calls = Increment.pdf, []
    zs = np.arange(-0.5 - gig1.TAIL_SIGMAS, -0.5 + gig1.TAIL_SIGMAS + 0.01, 0.01)

    def counted(self, x):
        x = np.asarray(x)
        lattice_calls.append(x.shape == zs.shape and np.array_equal(x, zs))
        return original(self, x)

    monkeypatch.setattr(Increment, "pdf", counted)
    assert main(["gig1", "--kappa", "2"]) == 0
    capsys.readouterr()
    assert sum(lattice_calls) == 1
    # building a model evaluates no density
    lattice_calls.clear()
    GIG1Model(kappa=2.0, **STANDARD)
    assert lattice_calls == []


def test_sampler_is_deterministic_per_stream(cert_roomy):
    cert = cert_roomy
    sc = QueueSampler(cert)
    a = pif_from_cycles(*run_cycles(sc, [None], 500, master_seed=77))
    b = pif_from_cycles(*run_cycles(sc, [None], 500, master_seed=77))
    assert (a.point, a.std_error) == (b.point, b.std_error)


@pytest.mark.parametrize("family", gig1.FAMILIES)
def test_lower_partial_moments_match_quadrature(family):
    # both branches, t below the mode and above it (the complements), on
    # three laws; past t = -20 the moments keep only their absolute accuracy
    for loc, scale in ((-0.5, 1.0), (-3.0, 0.5), (0.7, 2.0)):
        inc = Increment(family, loc, scale)
        for t in (-8.0, -3.0, -1.0, -0.5, 0.0, 0.3, 1.0, 4.0, 10.0):
            got = inc.lower_partial_moments(t)
            cuts = [-np.inf, min(loc, t), t]
            for k in range(3):
                want = sum(
                    integrate.quad(lambda z: z**k * inc.pdf(z), a, b, epsabs=0.0, epsrel=1e-13,
                                   limit=200)[0]
                    for a, b in zip(cuts[:-1], cuts[1:]) if a < b
                )
                assert float(got[k]) == pytest.approx(want, rel=1e-11, abs=1e-300), (loc, t, k)


CONTROL_STEPS = {"normal": 0.01, "logistic": 0.01, "laplace": 0.004}


@pytest.mark.parametrize("family", gig1.FAMILIES)
@pytest.mark.parametrize("kappa", [2.0, 1.1])
def test_control_charge_matches_quadrature(family, kappa):
    # h = (E Z^2 - E[(x + Z)^2; Z <= -x]) / (2 |E Z|) against the integral by
    # quad; the form x - u + Pu would cancel away its last digits at x = 30,
    # where Pu is about 900
    inc = Increment(family, -0.5, 1.0)
    cert = build_certificate(GIG1Model(increment=inc, kappa=kappa, step=CONTROL_STEPS[family]))
    sc = QueueSampler(cert)
    second = inc.var() + inc.mean() ** 2
    for x in (0.0, cert.x0, 5.0, 30.0):
        def integrand(z):
            return (x + z) ** 2 * inc.pdf(z)

        # split at the mode, where the laplace density has its kink
        cuts = [-np.inf, min(inc.loc, -x), -x]
        lower = sum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(cuts[:-1], cuts[1:]) if a < b)
        want = (second - lower) / (2.0 * abs(inc.mean()))
        got = float(sc.charge(np.array([x]))[0])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, got, want)
    # far out the lower partial moment is 0 and nothing overflows on the way
    far = sc.charge(np.array([1e152, 1e300]))
    np.testing.assert_allclose(far, second / (2.0 * abs(inc.mean())), rtol=1e-15)


@pytest.mark.parametrize("kappa", [2.0, 1.1])
def test_phi_u_is_the_mean_of_u_under_the_sampled_phi(kappa):
    # a midpoint sum of u over the sampler's own inverse CDF, 100 midpoints
    # per cell of ys; the atom at 0 adds u(0) = 0
    cert = build_certificate(GIG1Model(kappa=kappa, **STANDARD))
    sc = QueueSampler(cert)
    cum = sc._phi_cum
    mid = (np.arange(100) + 0.5) / 100.0
    q = (cum[:-1, None] + np.diff(cum)[:, None] * mid[None, :]).ravel()
    draws = sc.sample_certificate_phi(types.SimpleNamespace(uniform=lambda lanes: q), None)
    weights = np.repeat(np.diff(cum), 100) / 100.0
    assert sc.phi_u == pytest.approx(float(weights @ sc.u(draws)), rel=1e-8, abs=0.0)


def _oracle(system, f, xs, n=200, seed=11):
    """gstar_points on cycles charged with u = g*: the charge f - (u - Pu) is pi(f)."""
    g = system.canonical_solution(f)
    sc = FiniteChainSampler(system, f - g + system.chain.kernel @ g)
    starts = [None, *xs, sc.sample_phi]
    sums, lengths = (a.reshape(len(starts), n) for a in run_cycles(sc, starts, n, seed))
    phi_g = float(system.phi @ g)
    pif, points = gstar_points(sums, lengths, g[xs] - phi_g)
    scale = max(1.0, float(np.abs(g).max()))
    assert pif.point == pytest.approx(float(system.chain.pi @ f), rel=1e-12, abs=1e-12)
    for x, (point, se) in zip(xs, points):
        # every cycle contributes 0 up to rounding: the point is exact and
        # its error bar is rounding noise
        assert abs(point - (g[x] - phi_g)) <= 1e-12 * scale
        assert se <= 1e-12 * scale
    # phi(g*) = 0 at every m, so the oracle returns g* itself
    assert abs(phi_g) <= 1e-12 * scale


@pytest.mark.parametrize("m", [1, 2])
def test_gstar_points_finite_chain_oracle(m):
    chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
    _oracle(CycleSystem(minorize(chain, [0], m)), np.array([1.0, 0.0]), [0, 1])


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(chains_with_certificates())
def test_gstar_points_oracle_on_drawn_chains(case):
    chain, small, rng = case
    f = rng.uniform(0.0, 2.0, chain.n)
    xs = list(range(chain.n))
    _oracle(CycleSystem(small), f, xs, n=50)


def lattice_reference(cert, step=0.04, length=40.0):
    """pi(f) and g* on x_i = i step of the queue's lattice chain, by one bordered solve.

    P(i, j) is the increment's mass on cell j, [x_j - step/2, x_j + step/2],
    with both end cells open. g* is normalized by the certificate's phi as
    the sampler draws it, projected on the cells: [I - P, 1; phi, 0] [g; c]
    = [f; 0] gives phi(g) = 0 and c = pi(f).
    """
    n = int(round(length / step)) + 1
    xs = np.arange(n) * step
    edges = (np.arange(1, n) - 0.5) * step
    # scipy's vector cdf: the same floats as Increment.cdf, which takes the
    # normal law point by point in Python
    inc = cert.model.increment
    cdf = SCIPY_LAWS[inc.family](inc.loc, inc.scale).cdf(edges[None, :] - xs[:, None])
    chain = validate_chain(np.diff(cdf, prepend=0.0, append=1.0, axis=1))
    phi_cdf = np.interp(edges, cert.ys, QueueSampler(cert)._phi_cum)
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = np.eye(n) - chain.kernel
    system[:n, n] = 1.0
    system[n, :n] = np.diff(phi_cdf, prepend=0.0, append=1.0)
    solution = np.linalg.solve(system, np.append(xs, 0.0))
    g, pi_f = solution[:n], solution[n]
    assert pi_f == pytest.approx(float(chain.pi @ xs), rel=1e-12)
    return pi_f, {x: g[int(round(x / step))] for x in (0.0, 5.0)}


@pytest.fixture(scope="module")
def lattice_roomy(cert_roomy):
    # at s = 0.04: pi(f) 0.5320760, g*(0) -2.2660069, g*(5) 30.0860886; halving
    # s moves them by -1.0e-5, +1.3e-4 and -6.7e-4, and L = 60 moves nothing
    # at 1e-12: far below the Monte Carlo error bars they are held to
    return lattice_reference(cert_roomy)


@pytest.mark.parametrize("family", gig1.FAMILIES)
def test_estimates_match_the_lattice_reference(family):
    # at s = 0.04 and L = 60 the references are pi(f) 0.5320760, 2.3089579
    # and 1.2323688, g*(0) -2.2660069, -18.9999295 and -8.5929722, g*(5)
    # 30.0860886, 18.5784334 and 26.6160864 (normal, logistic, laplace);
    # halving s moves none by more than 7e-4, and the logistic tail needs
    # L = 60: at L = 40 its g*(0) moves by 1.5e-3
    inc = Increment(family, -0.5, 1.0)
    cert = build_certificate(GIG1Model(increment=inc, kappa=2.0, step=CONTROL_STEPS[family]))
    report = mc_validate(cert, [0.0, 5.0], 2000, master_seed=2024)
    pi_f, gstar = lattice_reference(cert, length=60.0)
    assert abs(report["pi_f"]["estimate"] - pi_f) <= 3.0 * report["pi_f"]["std_error"]
    for row in report["points"]:
        assert abs(row["estimate"] - gstar[row["x"]]) <= 3.0 * row["std_error"], row


def test_error_bars_match_the_seed_spread(cert_roomy, lattice_roomy):
    # over 40 seeds at x = 0 and x = 10 the reported error bar must match the
    # spread of the points. A bar without pi(f)'s error is 1.4x too small at
    # x = 0, within the bounds, and 1.9x too small at x = 10, whose cycles
    # are longer than phi's by more
    reports = [mc_validate(cert_roomy, [0.0, 10.0], 2000, master_seed=seed) for seed in range(40)]
    points = np.array([[row["estimate"] for row in r["points"]] for r in reports])
    bars = np.array([[row["std_error"] for row in r["points"]] for r in reports])
    ratio = points.std(axis=0, ddof=1) / bars.mean(axis=0)
    assert np.all((1.0 / 1.5 <= ratio) & (ratio <= 1.5)), ratio
    # coverage of the sharp reference by 1.96 error bars at x = 0: with
    # honest bars at least 34 of 40 points are covered with probability 0.997
    inside = np.abs(points[:, 0] - lattice_roomy[1][0.0]) <= 1.96 * bars[:, 0]
    assert inside.mean() >= 0.85
