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
from markov_poisson.mc import CycleStreams, estimate_pif, run_cycles

STANDARD = dict(increment=increment_family("normal", -0.5, 1.0))


@pytest.fixture(scope="module")
def cert_tight():
    """kappa = 1.1: a barely-feasible drift margin forces a wide small set."""
    model = GIG1Model(kappa=1.1, **STANDARD)
    return model, build_certificate(model)


@pytest.fixture(scope="module")
def cert_roomy():
    """kappa = 2: comfortable margin, small C, regeneration easy to simulate."""
    model = GIG1Model(kappa=2.0, **STANDARD)
    return model, build_certificate(model)


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
    _, cert = cert_tight
    assert cert.x0 == pytest.approx(13.75, abs=1e-12)
    assert cert.lam == pytest.approx(6.197740398750353e-12, rel=1e-9)
    assert cert.b1 == pytest.approx(1.6417677137300017, rel=1e-9)
    assert cert.phi_v1 == pytest.approx(44.74696270900585, rel=1e-9)
    assert 0.0 < cert.lam < 1.0


def test_atom_is_tail_mass_below_minus_x0(cert_tight):
    model, cert = cert_tight
    assert cert.atom == pytest.approx(model.increment.cdf(-cert.x0), rel=1e-12)


def test_search_exhausted_when_horizon_cut_short(monkeypatch):
    monkeypatch.setattr(gig1, "HORIZON_PAD", -20.0)
    model = GIG1Model(kappa=1.1, **STANDARD)
    with pytest.raises(SearchExhausted):
        build_certificate(model)


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
    _, cert = cert_roomy
    finer = build_certificate(GIG1Model(kappa=2.0, step=0.005, **STANDARD))
    assert abs(finer.lam - cert.lam) <= 0.01 * cert.lam
    assert abs(finer.b1 - cert.b1) <= 0.01 * cert.b1
    assert abs(finer.phi_v1 - cert.phi_v1) <= 0.01 * cert.phi_v1


@pytest.mark.parametrize("kappa", [1.1, 2.0])
def test_drift_spot_check_random_points(kappa):
    model = GIG1Model(kappa=kappa, **STANDARD)
    cert = build_certificate(model)
    worst = drift_spot_check(model, cert, 100, np.random.default_rng(0))
    assert worst <= 1e-6


def test_bound_curves_limits(cert_roomy):
    _, cert = cert_roomy
    xs = np.linspace(0.0, 200.0, 400)
    curves = bound_curves(cert, xs)
    # the absolute envelope grows like max{1, b1} * c1 x^2
    ratio = curves["ours_abs"][-1] / (cert.c1 * xs[-1] ** 2)
    assert ratio == pytest.approx(curves["ours_asymptotic_coeff"], rel=0.05)
    # the alternative envelope stays above ours by the coefficient ratio
    competing_ratio = curves["competing"][-1] / curves["ours_abs"][-1]
    expected = curves["competing_asymptotic_coeff"] / curves["ours_asymptotic_coeff"]
    assert competing_ratio == pytest.approx(expected, rel=0.05)
    assert competing_ratio >= 1.0


def test_comparison_coefficients(cert_tight):
    _, cert = cert_tight
    curves = bound_curves(cert, np.array([1.0]))
    assert curves["ours_asymptotic_coeff"] == pytest.approx(max(1.0, cert.b1))
    assert curves["competing_asymptotic_coeff"] > curves["ours_asymptotic_coeff"]


def test_phi_sampler_matches_quadrature_moments(cert_roomy):
    model, cert = cert_roomy
    sampler = QueueSampler(model, cert)
    draws = sampler.sample_phi(CycleStreams(101, 0, 20000), np.arange(20000))
    atom_freq = np.mean(draws == 0.0)
    assert atom_freq == pytest.approx(cert.phi_atom(), abs=0.01)
    mean_quad = (np.trapezoid(cert.density * cert.ys, cert.ys)) / cert.lam
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - mean_quad) <= 4 * se


def test_residual_sampler_reconstructs_one_step_law(cert_roomy):
    # lam * phi + (1 - lam) * Q must reproduce P(x, .): compare the mixture
    # of the two samplers against direct one-step draws via their CDFs
    model, cert = cert_roomy
    sampler = QueueSampler(model, cert)
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
    model, cert = cert_roomy
    report = mc_validate(model, cert, [0.0, 1.0, 2.0, 5.0, 10.0], 4000, master_seed=99)
    assert report["all_inside"]
    for row in report["points"]:
        assert row["std_error"] > 0.0


def test_atom_regeneration_matches_split_chain(cert_roomy, monkeypatch):
    # both schemes estimate the certificate's g*; the split-chain reference
    # is computed here from raw cycles, its SE carrying pi(f)'s error by the
    # delta method. A wrong phi(g_a) would shift every point by one constant.
    model, cert = cert_roomy
    xs = [0.0, 1.0, 2.0, 5.0, 10.0]
    n = 5000
    # mc_validate keeps this certificate on the split chain (m/lam ~ 5); a
    # zero threshold sends it to the atom scheme
    monkeypatch.setattr(gig1, "SPLIT_MAX_CYCLE", 0.0)
    report = mc_validate(model, cert, xs, n, 41, workers=1, max_steps=10**8)
    assert report["regeneration"] == "atom"
    points = [(row["estimate"], row["std_error"]) for row in report["points"]]
    sc = QueueSampler(model, cert)
    sums, lengths = run_cycles(sc, None, n, master_seed=42)
    pi_f = sums.sum() / lengths.sum()
    pi_se = (sums - pi_f * lengths).std(ddof=1) / (lengths.mean() * np.sqrt(n))
    for k, (x, (point, se)) in enumerate(zip(xs, points)):
        sums, lengths = run_cycles(sc, x, n, master_seed=42, stream_offset=(k + 1) * n)
        y = sums - pi_f * lengths
        ref = y.mean()
        ref_se = np.sqrt(y.var(ddof=1) / n + (lengths.mean() * pi_se) ** 2)
        z = (point - ref) / np.hypot(se, ref_se)
        assert abs(z) <= 3.5, f"x={x}: atom {point} vs split {ref} (z = {z:.2f})"


def test_mc_validate_scheme_follows_certificate_not_budget(cert_tight, cert_roomy):
    # m/lam is 4.9 at kappa = 2, just below SPLIT_MAX_CYCLE, and 6.5 at
    # kappa = 1.8, just above it; the step budget must not move the choice
    model = GIG1Model(kappa=1.8, **STANDARD)
    near = (model, build_certificate(model))
    for (model, cert), expected in ((cert_roomy, "split"), (near, "atom"), (cert_tight, "atom")):
        assert (cert.m / cert.lam <= SPLIT_MAX_CYCLE) == (expected == "split")
        for max_steps in (10**4, 10**8):
            report = mc_validate(model, cert, [1.0], 50, master_seed=3, max_steps=max_steps)
            assert report["regeneration"] == expected
            assert report["all_inside"]
    # a budget the split cycles outrun is an error, not a switch of scheme
    model, cert = cert_roomy
    with pytest.raises(MaxStepsExceeded):
        mc_validate(model, cert, [1.0], 200, master_seed=3, max_steps=2)


def test_mc_pif_matches_long_run_average(cert_roomy):
    model, cert = cert_roomy
    sc = QueueSampler(model, cert)
    est = estimate_pif(sc, 20000, master_seed=5)
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
    worst = drift_spot_check(model, cert, 50, np.random.default_rng(4))
    assert worst <= 1e-6
    sc = QueueSampler(model, cert)
    est = estimate_pif(sc, 500, master_seed=6)
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
    model, cert = cert_roomy
    sc = QueueSampler(model, cert)
    a = estimate_pif(sc, 500, master_seed=77)
    b = estimate_pif(sc, 500, master_seed=77)
    assert (a.point, a.std_error) == (b.point, b.std_error)


def test_residual_rejections_count_against_the_step_budget(cert_roomy):
    # a residual whose proposals are never accepted (psi >= p everywhere)
    # must stop at the budget instead of proposing forever
    model, cert = cert_roomy
    sampler = QueueSampler(model, cert)
    sampler.atom = 1.0
    sampler.density = np.full(cert.density.size, 1e300)
    lanes = np.arange(4)
    y, rejected = sampler.sample_residual(
        np.full(4, 1.0), CycleStreams(7, 0, 4), lanes, np.array([0, 3, 10, 50])
    )
    assert np.array_equal(rejected, [1, 4, 11, 51])
    # in a cycle the chain steps stay far below the budget, the proposals do not
    with pytest.raises(MaxStepsExceeded) as err:
        run_cycles(sampler, 1.0, 20, master_seed=7, max_steps=500)
    assert err.value.steps == 500
    assert err.value.code == "max-steps-exceeded"
    # the unmodified sampler completes the same cycles within that budget
    _, lengths = run_cycles(QueueSampler(model, cert), 1.0, 20, master_seed=7, max_steps=500)
    assert lengths.max() <= 500
