import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats

from markov_poisson import gig1
from markov_poisson.errors import MaxStepsExceeded, QuadratureFailure, SearchExhausted
from markov_poisson.gig1 import (
    SPLIT_MAX_CYCLE,
    GIG1Model,
    QueueSampler,
    bound_curves,
    build_certificate,
    drift_spot_check,
    increment_family,
    mc_validate,
)
from markov_poisson.mc import CycleStreams, pif_from_cycles, run_cycles

STANDARD = dict(increment=increment_family("normal", -0.5, 1.0))


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
        GIG1Model(increment=increment_family("normal", 0.5, 1.0), kappa=2.0)
    for bad in (1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="kappa"):
            GIG1Model(kappa=bad, **STANDARD)
    # at the default step the trapezoid rule gives the laplace density,
    # kinked at its mode, mass 0.99999745: outside MASS_TOL
    with pytest.raises(QuadratureFailure):
        GIG1Model(increment=increment_family("laplace", -0.5, 1.0), kappa=2.0)
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


def test_atom_is_tail_mass_below_minus_x0(cert_tight):
    cert = cert_tight
    assert cert.atom == pytest.approx(cert.model.increment.cdf(-cert.x0), rel=1e-12)


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
        build_certificate(GIG1Model(increment=increment_family("normal", mu, 1.0), kappa=2.0)).x0
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
    model = GIG1Model(increment=increment_family(family, -0.5, 1.0), kappa=kappa, step=step)
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
    draws = sampler.sample_phi(CycleStreams(101, 0, 20000), np.arange(20000))
    atom_freq = np.mean(draws == 0.0)
    assert atom_freq == pytest.approx(cert.phi_atom(), abs=0.01)
    mean_quad = (np.trapezoid(cert.density * cert.ys, cert.ys)) / cert.lam
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - mean_quad) <= 4 * se


def test_residual_sampler_reconstructs_one_step_law(cert_roomy):
    # lam * phi + (1 - lam) * Q must reproduce P(x, .): compare the mixture
    # of the two samplers against direct one-step draws via their CDFs
    cert = cert_roomy
    sampler = QueueSampler(cert)
    x = 1.3
    n = 20000
    streams, lanes = CycleStreams(103, 0, n), np.arange(n)
    toss = streams.uniform(lanes) < cert.lam
    mixture = np.empty(n)
    mixture[toss] = sampler.sample_phi(streams, lanes[toss])
    mixture[~toss], _ = sampler.sample_residual(
        np.full(n, x)[~toss], streams, lanes[~toss], np.full(n, 10**6)[~toss]
    )
    rng = np.random.Generator(np.random.Philox(key=np.array([103, n], dtype=np.uint64)))
    direct = np.maximum(x + stats.norm(-0.5, 1.0).rvs(size=n, random_state=rng), 0.0)
    result = stats.ks_2samp(mixture, direct)
    assert result.pvalue > 1e-3


def test_mc_validation_inside_envelope(cert_roomy):
    cert = cert_roomy
    report = mc_validate(cert, [0.0, 1.0, 2.0, 5.0, 10.0], 4000, master_seed=99)
    assert report["all_inside"]
    for row in report["points"]:
        assert row["std_error"] > 0.0


def test_atom_regeneration_matches_split_chain(cert_roomy, monkeypatch):
    # both schemes estimate the certificate's g*; the split-chain reference
    # is computed here from raw cycles, its SE carrying pi(f)'s error by the
    # delta method. A wrong phi(g_a) would shift every point by one constant.
    cert = cert_roomy
    xs = [0.0, 1.0, 2.0, 5.0, 10.0]
    n = 5000
    # mc_validate keeps this certificate on the split chain (m/lam ~ 5); a
    # zero threshold sends it to the atom scheme
    monkeypatch.setattr(gig1, "SPLIT_MAX_CYCLE", 0.0)
    report = mc_validate(cert, xs, n, 41, workers=1, max_steps=10**8)
    assert report["regeneration"] == "atom"
    points = [(row["estimate"], row["std_error"]) for row in report["points"]]
    sc = QueueSampler(cert)
    blocks = [a.reshape(len(xs) + 1, n) for a in run_cycles(sc, [None, *xs], n, master_seed=42)]
    sums, lengths = blocks[0][0], blocks[1][0]
    pi_f = sums.sum() / lengths.sum()
    pi_se = (sums - pi_f * lengths).std(ddof=1) / (lengths.mean() * np.sqrt(n))
    for k, (x, (point, se)) in enumerate(zip(xs, points)):
        sums, lengths = blocks[0][k + 1], blocks[1][k + 1]
        y = sums - pi_f * lengths
        ref = y.mean()
        ref_se = np.sqrt(y.var(ddof=1) / n + (lengths.mean() * pi_se) ** 2)
        z = (point - ref) / np.hypot(se, ref_se)
        assert abs(z) <= 3.5, f"x={x}: atom {point} vs split {ref} (z = {z:.2f})"


def test_mc_validate_scheme_follows_certificate_not_budget(cert_tight, cert_roomy):
    # m/lam is 4.9 at kappa = 2, just below SPLIT_MAX_CYCLE, and 6.5 at
    # kappa = 1.8, just above it; the step budget must not move the choice
    near = build_certificate(GIG1Model(kappa=1.8, **STANDARD))
    for cert, expected in ((cert_roomy, "split"), (near, "atom"), (cert_tight, "atom")):
        assert (cert.m / cert.lam <= SPLIT_MAX_CYCLE) == (expected == "split")
        for max_steps in (10**4, 10**8):
            report = mc_validate(cert, [1.0], 50, master_seed=3, max_steps=max_steps)
            assert report["regeneration"] == expected
            assert report["all_inside"]
    # a budget the split cycles outrun is an error, not a switch of scheme
    cert = cert_roomy
    with pytest.raises(MaxStepsExceeded):
        mc_validate(cert, [1.0], 200, master_seed=3, max_steps=2)


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
    model = GIG1Model(increment=increment_family("laplace", -0.5, 1.0), kappa=2.0, step=0.004)
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
        ours, frozen = increment_family(family, loc, scale), SCIPY_LAWS[family](loc, scale)
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


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        increment_family("cauchy", -0.5, 1.0)


def test_sampler_is_deterministic_per_stream(cert_roomy):
    cert = cert_roomy
    sc = QueueSampler(cert)
    a = pif_from_cycles(*run_cycles(sc, [None], 500, master_seed=77))
    b = pif_from_cycles(*run_cycles(sc, [None], 500, master_seed=77))
    assert (a.point, a.std_error) == (b.point, b.std_error)


def test_residual_rejections_count_against_the_step_budget(cert_roomy):
    # a residual whose proposals are never accepted (psi >= p everywhere)
    # must stop at the budget instead of proposing forever
    cert = cert_roomy
    never = dataclasses.replace(cert, atom=1.0, density=np.full(cert.density.size, 1e300))
    sampler = QueueSampler(never)
    lanes = np.arange(4)
    y, rejected = sampler.sample_residual(
        np.full(4, 1.0), CycleStreams(7, 0, 4), lanes, np.array([0, 3, 10, 50])
    )
    assert np.array_equal(rejected, [1, 4, 11, 51])
    # in a cycle the chain steps stay far below the budget, the proposals do not
    with pytest.raises(MaxStepsExceeded) as err:
        run_cycles(sampler, [1.0], 20, master_seed=7, max_steps=500)
    assert err.value.steps == 500
    assert err.value.code == "max-steps-exceeded"
    # the unmodified sampler completes the same cycles within that budget
    _, lengths = run_cycles(QueueSampler(cert), [1.0], 20, master_seed=7, max_steps=500)
    assert lengths.max() <= 500
