import types

import numpy as np
import pytest
from scipy import stats

from markov_poisson import mc
from markov_poisson.certify import minorize, verify_bundle
from markov_poisson.chain import validate_chain
from markov_poisson.errors import MaxStepsExceeded
from markov_poisson.mc import (
    CycleStreams,
    FiniteChainSampler,
    gstar_from_cycles,
    pif_from_cycles,
    run_cycles,
)
from markov_poisson.split import CycleSystem, hitting


@pytest.fixture
def chain():
    return validate_chain([[0.5, 0.5], [0.25, 0.75]])


@pytest.fixture
def bundle(chain):
    return verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)


def test_cycle_from_inside_small_set_is_deterministic(chain, bundle):
    # from state 0 with lam = 1 and m = 1 every cycle is one step long
    sums, lengths = run_cycles(FiniteChainSampler(bundle, [1, 0]), [0], 50, master_seed=1)
    assert np.all(lengths == 1)
    assert np.all(sums == 1.0)


def test_cycle_length_at_least_m(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 2)
    _, lengths = run_cycles(FiniteChainSampler(bundle, [1, 0]), [1], 50, master_seed=2)
    assert np.all(lengths >= 2)


def test_zero_charge_gives_zero_sum(chain, bundle):
    sums, _ = run_cycles(FiniteChainSampler(bundle, [0, 0]), [1], 20, master_seed=3)
    assert np.all(sums == 0.0)


def test_cycle_moments_match_exact(chain, bundle):
    sums, lengths = run_cycles(FiniteChainSampler(bundle, [1, 0]), [1], 10000, master_seed=4)
    # exact: E sum_f = 1, E length = 5 from state 1
    assert abs(sums.mean() - 1.0) <= 3 * sums.std(ddof=1) / 100 + 1e-12
    assert abs(lengths.mean() - 5.0) <= 3 * lengths.std(ddof=1) / 100


def test_estimate_gstar_two_state(chain, bundle):
    sc = FiniteChainSampler(bundle, [1, 0])
    est = gstar_from_cycles(*run_cycles(sc, [1], 20000, master_seed=11), 1 / 3)
    assert abs(est.point - (-2 / 3)) <= 3 * est.std_error
    est0 = gstar_from_cycles(*run_cycles(sc, [0], 20000, master_seed=12), 1 / 3)
    assert abs(est0.point - 2 / 3) <= 3 * est0.std_error


def test_estimate_gstar_constant_reward_is_exact(chain, bundle):
    sc = FiniteChainSampler(bundle, [2.0, 2.0])
    est = gstar_from_cycles(*run_cycles(sc, [1], 500, master_seed=13), 2.0)
    assert est.point == 0.0
    assert est.std_error == 0.0


def test_estimate_pif_two_state(chain, bundle):
    sc = FiniteChainSampler(bundle, [1, 0])
    est = pif_from_cycles(*run_cycles(sc, [None], 20000, master_seed=14))
    assert abs(est.point - 1 / 3) <= 3 * est.std_error


def test_estimate_pif_unit_charge_is_exactly_one(chain, bundle):
    sc = FiniteChainSampler(bundle, [1.0, 1.0])
    est = pif_from_cycles(*run_cycles(sc, [None], 200, master_seed=15))
    assert est.point == 1.0


def test_identical_seeds_identical_estimates(chain, bundle):
    sc = FiniteChainSampler(bundle, [1, 0])
    a = gstar_from_cycles(*run_cycles(sc, [1], 2000, master_seed=99), 1 / 3)
    b = gstar_from_cycles(*run_cycles(sc, [1], 2000, master_seed=99), 1 / 3)
    assert (a.point, a.std_error) == (b.point, b.std_error)
    c = gstar_from_cycles(*run_cycles(sc, [1], 2000, master_seed=100), 1 / 3)
    assert a.point != c.point


def test_worker_count_does_not_change_estimates(chain, bundle):
    sc = FiniteChainSampler(bundle, [1, 0])
    serial = gstar_from_cycles(*run_cycles(sc, [1], 400, master_seed=7), 1 / 3)
    parallel = gstar_from_cycles(*run_cycles(sc, [1], 400, master_seed=7, workers=2), 1 / 3)
    assert (serial.point, serial.std_error) == (parallel.point, parallel.std_error)


def test_regeneration_endpoint_distribution():
    # a segment of m ordinary steps from x in C, kept with the sampler's
    # regeneration probability, ends on phi whatever x is and is kept at
    # rate lam (goodness of fit at significance 1e-3, the rate within 4 SE)
    rng = np.random.default_rng(5)
    chain = validate_chain(rng.dirichlet(np.full(9, 0.7), size=9))
    n = 20000
    lanes = np.arange(n)
    for m in (1, 2):
        cert = minorize(chain, [1, 3], m)
        assert cert.lam < 1.0
        sc = FiniteChainSampler(cert, np.zeros(9))
        for x in cert.C:
            streams = CycleStreams(21, 10 * m + x, n)
            start = np.full(n, x)
            y = start
            for _ in range(m):
                y = sc.step(y, streams, lanes)
            kept = streams.uniform(lanes) < sc.regeneration_probability(start, y)
            se = np.sqrt(cert.lam * (1.0 - cert.lam) / n)
            assert abs(kept.mean() - cert.lam) <= 4 * se, (m, x)
            counts = np.bincount(y[kept], minlength=9)
            result = stats.chisquare(counts, cert.phi.mass * kept.sum())
            assert result.pvalue > 1e-3, (m, x)


def test_cycle_length_matches_exact_with_residual_kernel(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0, 1], 1)
    system = CycleSystem(bundle)
    _, lengths = run_cycles(FiniteChainSampler(bundle, [1, 0]), [None], 10000, master_seed=22)
    se = lengths.std(ddof=1) / 100
    assert abs(lengths.mean() - system.phi @ system.tau) <= 3 * se


def test_mc_matches_exact_on_random_instances():
    rng = np.random.default_rng(2718)
    for k in range(10):
        n = int(rng.integers(2, 8))
        chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
        f = rng.uniform(0, 2, n)
        C = sorted(rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist())
        m = 1 + k % 2
        _, v1 = hitting(chain, C, f)
        _, v2 = hitting(chain, C, np.ones(n))
        bundle = verify_bundle(chain, f, v1, v2, C, m)
        g = CycleSystem(bundle).canonical_solution(f)
        from markov_poisson.chain import stationary

        pi_f = float(stationary(chain).mass @ f)
        sc = FiniteChainSampler(bundle, f)
        x0 = int(rng.integers(0, n))
        est = gstar_from_cycles(*run_cycles(sc, [x0], 4000, master_seed=1000 + k), pi_f)
        assert abs(est.point - g[x0]) <= 3 * est.std_error, (
            f"instance {k}: {est.point} vs exact {g[x0]} (se {est.std_error})"
        )


def bare_sampler(m, lam):
    """A sampler that never moves, with no regeneration probability."""
    return types.SimpleNamespace(
        m=m,
        lam=lam,
        dtype=np.intp,
        step=lambda x, streams, lanes: x,
        charge=lambda x: np.zeros(x.size),
        in_small_set=lambda x: np.ones(x.size, dtype=bool),
        sample_phi=lambda streams, lanes: np.zeros(lanes.size, dtype=np.intp),
    )


def test_bare_sampler_runs_without_a_bridge():
    # at lam = 1 a segment is m ordinary steps with no coin, so m = 2 needs
    # no draw beyond step: a cycle from C charges its start and one step
    sums, lengths = run_cycles(bare_sampler(2, 1.0), [0], 3, master_seed=0)
    assert np.all(lengths == 2) and np.all(sums == 0.0)


@pytest.mark.parametrize("n_cycles", [0, mc.MAX_CYCLES + 1])
def test_cycle_count_out_of_range_is_refused(chain, bundle, n_cycles):
    with pytest.raises(ValueError, match="n_cycles must lie in"):
        run_cycles(FiniteChainSampler(bundle, [1, 0]), [1], n_cycles, master_seed=0)


def test_lam_below_one_needs_a_regeneration_probability():
    with pytest.raises(ValueError, match=r"regeneration_probability\(x, y\)"):
        run_cycles(bare_sampler(1, 0.5), [0], 10, master_seed=0)


def test_run_without_start_rules_is_refused(chain, bundle):
    with pytest.raises(ValueError, match="at least one start rule"):
        run_cycles(FiniteChainSampler(bundle, [1, 0]), [], 10, master_seed=0)


def test_reductions_refuse_one_cycle():
    # one cycle has a point but no standard error
    sums, lengths = np.array([1.0]), np.array([5.0])
    with pytest.raises(ValueError, match="at least 2 cycles"):
        gstar_from_cycles(sums, lengths, 1 / 3)
    with pytest.raises(ValueError, match="at least 2 cycles"):
        pif_from_cycles(sums, lengths)


def test_max_steps_guard(chain, bundle):
    # state 1 only reaches the small set {0} with probability 1/4 per step,
    # so a 2-step budget is exhausted almost surely under this seed
    sc = FiniteChainSampler(bundle, [1, 0])
    with pytest.raises(MaxStepsExceeded) as err:
        run_cycles(sc, [1], 50, master_seed=33, max_steps=2)
    assert err.value.steps == 2


def test_minorize_only_certificate_supported(chain):
    small = minorize(chain, [0], 1)
    _, lengths = run_cycles(FiniteChainSampler(small, [1, 0]), [1], 1, master_seed=8)
    assert lengths[0] >= 1


# ------------------------------------------------------------------ lanes


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7, 2**64 - 1])
def test_lane_philox_matches_numpy_philox(seed):
    # lanes advance unevenly, so their 4-word blocks and refills fall at
    # different draws; every lane must still read its own numpy stream
    first = 2**33 - 2 if seed % 2 else 0
    n, draws = 5, 41
    streams = CycleStreams(seed, first, n)
    got = [[] for _ in range(n)]
    rng = np.random.default_rng(seed % 1000)
    while min(len(g) for g in got) < draws:
        lanes = np.flatnonzero(rng.random(n) < 0.6)
        lanes = lanes[[len(got[j]) < draws for j in lanes]]
        for j, u in zip(lanes, streams.uniform(lanes)):
            got[j].append(u)
    for j in range(n):
        key = np.array([seed, first + j], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key)).random(draws)
        assert np.array_equal(np.array(got[j]), ref), f"lane {j}"
    assert np.array_equal(streams.count, np.full(n, draws))


def _draw(cdf_row, rng):
    idx = int(np.searchsorted(cdf_row, rng.random(), side="right"))
    return min(idx, len(cdf_row) - 1)


def _reference_cycle(P, f, C, m, lam, phi, Pm, x0, rng):
    """One cycle drawn the plain way: one Python step at a time."""
    x = _draw(np.cumsum(phi), rng) if x0 is None else x0
    total, t = 0.0, 0
    while True:
        while x not in C:
            total += f[x]
            x = _draw(np.cumsum(P[x]), rng)
            t += 1
        start = x
        for _ in range(m):
            total += f[x]
            x = _draw(np.cumsum(P[x]), rng)
        t += m
        if rng.random() < lam * phi[x] / Pm[start, x]:
            return total, t


REFERENCE_CASES = [(3, None), (3, 4), (1, None), (2, 0)]


def _check_against_reference(m, x0):
    """Run 300 cycles from phi and 300 from x0 in one pass, each against the reference."""
    rng = np.random.default_rng(5)
    n = 9
    chain = validate_chain(rng.dirichlet(np.full(n, 0.7), size=n))
    f = rng.uniform(0.0, 2.0, n)
    C = [1, 3]
    cert = minorize(chain, C, m)
    assert cert.lam < 1.0
    sc = FiniteChainSampler(cert, f)
    n_cycles, seed, starts = 300, 2**35 + 11, [None, x0]
    sums, lengths = run_cycles(sc, starts, n_cycles, seed)
    assert sums.shape == lengths.shape == (2 * n_cycles,)
    for b, start in enumerate(starts):
        for i in range(n_cycles):
            key = np.array([seed, b * n_cycles + i], dtype=np.uint64)
            ref = _reference_cycle(chain.kernel, f, C, m, cert.lam, cert.phi.mass,
                                   chain.powers(m)[-1], start,
                                   np.random.Generator(np.random.Philox(key=key)))
            c = b * n_cycles + i
            assert (sums[c], lengths[c]) == ref, f"block {b}, cycle {i}"


@pytest.mark.parametrize("m, x0", REFERENCE_CASES)
def test_lanes_reproduce_per_cycle_reference(m, x0):
    # phi starts, free steps, segment steps and coins, all against a
    # per-cycle reference on numpy's own Philox streams
    _check_against_reference(m, x0)


@pytest.mark.parametrize("m, x0", REFERENCE_CASES)
def test_refilled_lanes_reproduce_per_cycle_reference(monkeypatch, m, x0):
    # with 7 lanes for 2 x 300 cycles, all but the first 7 cycles start in
    # the lane of a cycle that ended, on a re-keyed stream, and the lanes
    # cross from the phi block to the x0 block mid-pass
    monkeypatch.setattr(mc, "LANES", 7)
    _check_against_reference(m, x0)


def test_coin_is_tossed_only_when_it_can_decide(chain):
    # at lam = 1 a cycle started in C charges its m-state segment and
    # draws no coin and no endpoint: m = 1 draws nothing, m = 2 one step
    for m, draws in ((1, 0), (2, 1)):
        bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], m)
        sc = FiniteChainSampler(bundle, [1, 0])
        assert sc.lam == 1.0
        streams = CycleStreams(5, 0, 10)
        _, lengths = mc._run_lanes(sc, [0], 10, streams, 0, 10, mc.DEFAULT_MAX_STEPS)
        assert np.all(lengths == m)
        assert np.all(streams.count == draws), m


class _BlockCharged(FiniteChainSampler):
    """Charges the columns (f, 1) rather than f."""

    def charge(self, x):
        return np.stack([self.f[x], np.ones(x.size)], axis=-1)


@pytest.mark.parametrize("m", [1, 2])
def test_block_charges_sum_column_by_column(monkeypatch, m):
    # a charge's columns share one pass's draws: column 0 is bitwise the
    # one-column run and column 1 counts the charged indices, the lengths,
    # segment indices included; refilled lanes cross from phi to x0's block
    rng = np.random.default_rng(5)
    chain = validate_chain(rng.dirichlet(np.full(9, 0.7), size=9))
    f = rng.uniform(0.0, 2.0, 9)
    cert = minorize(chain, [1, 3], m)
    monkeypatch.setattr(mc, "LANES", 7)
    sums, lengths = run_cycles(FiniteChainSampler(cert, f), [None, 4], 300, master_seed=8)
    block, block_lengths = run_cycles(_BlockCharged(cert, f), [None, 4], 300, master_seed=8)
    assert block.shape == (600, 2)
    assert np.array_equal(block[:, 0], sums)
    assert np.array_equal(block_lengths, lengths)
    assert np.array_equal(block[:, 1], lengths)


def test_max_steps_guard_covers_refilled_cycles(monkeypatch, chain, bundle):
    # under this seed the one cycle longer than 16 steps is cycle 50 (31
    # steps), which starts in a refilled lane when 7 lanes run 60 cycles
    sc = FiniteChainSampler(bundle, [1, 0])
    monkeypatch.setattr(mc, "LANES", 7)
    _, lengths = run_cycles(sc, [1], 60, master_seed=45)
    assert np.flatnonzero(lengths > 16).tolist() == [50] and lengths[50] == 31
    with pytest.raises(MaxStepsExceeded):
        run_cycles(sc, [1], 60, master_seed=45, max_steps=30)
    assert np.array_equal(run_cycles(sc, [1], 60, master_seed=45, max_steps=31)[1], lengths)


def test_max_steps_guard_covers_worker_shards(monkeypatch, chain, bundle):
    # the seed above at two workers: cycle 50 of 60 runs in the child's
    # shard, and its error reads as it does in the calling process
    import os

    sc = FiniteChainSampler(bundle, [1, 0])
    monkeypatch.setattr(mc, "LANES", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(MaxStepsExceeded) as err:
        run_cycles(sc, [1], 60, master_seed=45, workers=2, max_steps=30)
    assert str(err.value) == "cycle exceeded 30 steps without regenerating"
    assert err.value.steps == 30


def test_window_holds_only_the_cycles_in_flight(monkeypatch, chain, bundle):
    # a block of more cycles than lanes keeps one window row per lane
    made = []

    class Recorded(CycleStreams):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(mc, "CycleStreams", Recorded)
    monkeypatch.setattr(mc, "LANES", 7)
    _, lengths = run_cycles(FiniteChainSampler(bundle, [1, 0]), [1], 60, master_seed=45)
    assert lengths.size == 60
    assert [s._window.shape[0] for s in made] == [7]


def test_lanes_independent_of_workers_and_chunks(monkeypatch):
    import os

    rng = np.random.default_rng(6)
    chain = validate_chain(rng.dirichlet(np.ones(6), size=6))
    f = rng.uniform(0.0, 2.0, 6)
    sc = FiniteChainSampler(minorize(chain, [0, 2], 2), f)
    n_cycles = mc.LANES + 37
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for starts in ([1], [None, 1]):
        serial = run_cycles(sc, starts, n_cycles, master_seed=9)
        assert serial[0].size == len(starts) * n_cycles
        others = [run_cycles(sc, starts, n_cycles, master_seed=9, workers=w) for w in (2, 3)]
        with monkeypatch.context() as lanes:
            lanes.setattr(mc, "LANES", 7)
            others.append(run_cycles(sc, starts, n_cycles, master_seed=9))
        for other in others:
            assert np.array_equal(serial[0], other[0])
            assert np.array_equal(serial[1], other[1])
    # a block is the same cycles whichever blocks run after it
    alone = run_cycles(sc, [None], n_cycles, master_seed=9)
    assert np.array_equal(alone[0], serial[0][:n_cycles])


class _RecordingPool:
    """A stand-in ProcessPoolExecutor that runs each job in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return types.SimpleNamespace(result=lambda: fn(*args))


@pytest.mark.parametrize(
    "workers, n_cycles, cpus, shards",
    [(64, 10, 2, 2), (64, 10, 16, 10), (2, 10, 2, 2), (3, 10, 8, 3), (4, 10, None, 1)],
)
def test_pool_is_sized_by_its_work(monkeypatch, chain, bundle, workers, n_cycles, cpus, shards):
    # one shard per worker, per CPU and at most per cycle; this process
    # runs the first shard and a pool of one process per other shard the
    # rest, so one shard starts no pool
    import concurrent.futures
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    sc = FiniteChainSampler(bundle, [1, 0])
    pooled = run_cycles(sc, [1], n_cycles, master_seed=4, workers=workers)
    serial = run_cycles(sc, [1], n_cycles, master_seed=4)
    assert _RecordingPool.sizes == ([shards - 1] if shards > 1 else [])
    assert np.array_equal(pooled[0], serial[0]) and np.array_equal(pooled[1], serial[1])
