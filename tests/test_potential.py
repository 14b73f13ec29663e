import json
import tracemalloc

import numpy as np
import pytest

from markov_poisson.certify import verify_bundle, verify_potential
from markov_poisson.chain import cyclic_decomposition, stationary, validate_chain
from markov_poisson.cli import main
from markov_poisson.errors import SingularSystem
from markov_poisson.potential import truncated_potential, verify_truncation_gap
from markov_poisson.split import CycleSystem, hitting


def brute_force_blocks(kernel, f_c, p, n_blocks):
    """Independent oracle: accumulate sum_{i<np} P^i f_c by direct summation."""
    term = f_c.copy()
    total = np.zeros_like(f_c)
    for _ in range(n_blocks * p):
        total += term
        term = kernel @ term
    return total


@pytest.fixture
def chain():
    return validate_chain([[0.5, 0.5], [0.25, 0.75]])


def test_long_period_power_stays_small():
    # a 300-state pure cycle has period 300: P^300 by repeated squaring
    # holds a few n x n matrices, not all 301 powers (217 MB at n = 300)
    n = 300
    cycle = validate_chain(np.roll(np.eye(n), 1, axis=1))
    f = np.random.default_rng(3).uniform(0.0, 2.0, n)
    assert (cycle.cyclic.period, cycle.pi.size) == (n, n)
    tracemalloc.start()
    try:
        result = truncated_potential(cycle, f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
    # each block sums f_c over the whole cycle, so g_tilde vanishes
    assert np.max(np.abs(result.g_tilde)) <= 1e-10


def test_running_example_value(chain):
    result = truncated_potential(chain, [1, 0], p=1)
    assert result.g_tilde == pytest.approx([8 / 9, -4 / 9], abs=1e-9)
    assert result.residual <= 1e-10
    pi = stationary(chain).mass
    oracle = brute_force_blocks(chain.kernel, np.array([1, 0]) - pi @ [1, 0], 1, 200)
    assert result.g_tilde == pytest.approx(oracle, abs=1e-9)


def test_constant_reward_gives_zero(chain):
    result = truncated_potential(chain, [2.0, 2.0], p=1)
    assert np.max(np.abs(result.g_tilde)) <= 1e-12


def test_flip_chain_blocks_settle_immediately():
    # centered reward (1/2, -1/2) cancels over every length-2 block, so the
    # truncated sum is identically zero from the first block on
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    result = truncated_potential(flip, [1, 0], p=2)
    assert result.g_tilde == pytest.approx([0.0, 0.0], abs=1e-15)
    oracle = brute_force_blocks(flip.kernel, np.array([0.5, -0.5]), 2, 100)
    assert result.g_tilde == pytest.approx(oracle, abs=1e-15)


@pytest.mark.parametrize("p", [0, -2, 1, 3])
def test_block_length_must_be_a_multiple_of_the_period(p):
    # only blocks of a whole number of periods have a limit
    flip = validate_chain([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="multiple of the period 2"):
        truncated_potential(flip, [1, 0], p=p)


def test_slowly_mixing_ring_gap_is_constant_per_class(tmp_path, capsys):
    # a nearest-neighbour walk on a 200-state ring (period 2) mixes in ~n^2
    # steps, so its block sums decay slowly: a sum stopped when a block
    # falls below 1e-10 is still ~1e-7 short of the limit, too far for the
    # gap to be constant on each class to 1e-8
    rng = np.random.default_rng(7)
    n = 200
    up = 0.5 + rng.uniform(-0.01, 0.01, size=n)
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, (idx + 1) % n] = up
    P[idx, (idx - 1) % n] = 1.0 - up
    f = rng.uniform(0.0, 2.0, size=n)
    ring = validate_chain(P)
    _, v1 = hitting(ring, [0], f + 1.0)
    _, v2 = hitting(ring, [0], np.full(n, 2.0))
    doc = {"states": n, "kernel": P.tolist(),
           "functions": {"f": f.tolist(), "v1": v1.tolist(), "v2": v2.tolist()},
           "small_set": {"C": [0], "m": 2}}
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps(doc))
    code = main(["potential", "--spec", str(spec)])
    report = json.loads(capsys.readouterr().out)
    assert report["period"] == 2
    checks = {a["name"]: a for a in report["assertions"]}
    assert checks["gap_constant_per_class"]["passed"], checks["gap_constant_per_class"]
    assert checks["potential_residual"]["passed"]
    assert code == 0


def test_aperiodic_gap_is_global_constant(suite):
    for inst in suite.instances:
        if inst.decomp.period != 1:
            continue
        result = truncated_potential(inst.chain, inst.f, p=1)
        gap = result.g_tilde - inst.g_star
        expected = -float(inst.pi @ inst.g_star)
        assert np.max(np.abs(gap - expected)) <= 1e-8


def test_aperiodic_potential_solves_equation(suite):
    for inst in suite.instances:
        if inst.decomp.period != 1:
            continue
        g_t = truncated_potential(inst.chain, inst.f, p=1).g_tilde
        residual = np.max(np.abs(inst.chain.kernel @ g_t - g_t + inst.f_c))
        assert residual <= 1e-8


def test_periodic_gap_constant_per_class(suite):
    saw_periodic = False
    for inst in suite.instances:
        p = inst.decomp.period
        if p == 1:
            continue
        saw_periodic = True
        result = truncated_potential(inst.chain, inst.f, p=p)
        gap = result.g_tilde - inst.g_star
        for cls in inst.decomp.classes:
            members = list(cls)
            assert np.ptp(gap[members]) <= 1e-8
    assert saw_periodic


def test_periodic_gap_matches_class_conditioned_shift():
    # two dense classes of two states each; the gap on class D_i is the
    # negative of the stationary average of g* conditioned on D_i
    rng = np.random.default_rng(1)
    P = np.zeros((4, 4))
    P[0, 2:] = rng.dirichlet([1, 1])
    P[1, 2:] = rng.dirichlet([1, 1])
    P[2, :2] = rng.dirichlet([1, 1])
    P[3, :2] = rng.dirichlet([1, 1])
    chain = validate_chain(P)
    f = rng.uniform(0, 2, 4)
    _, v1 = hitting(chain, [0], f)
    _, v2 = hitting(chain, [0], np.ones(4))
    bundle = verify_bundle(chain, f, v1, v2, [0], 1)
    g = CycleSystem(chain, bundle).canonical_solution(f)
    decomp = cyclic_decomposition(chain)
    assert decomp.period == 2
    result = truncated_potential(chain, f, p=2)
    pi = stationary(chain).mass
    gap = result.g_tilde - g
    for cls in decomp.classes:
        members = list(cls)
        cond = pi[members] / pi[members].sum()
        expected = -float(cond @ g[members])
        assert gap[members] == pytest.approx([expected] * len(members), abs=1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("f", [[1.2e308, -1.2e308], [1.7e308, -1.7e308]], ids=["solve", "charge"])
def test_overflow_is_a_coded_error(chain, f):
    # g_tilde overflows in the solve, or f_c already overflows; either ends
    # as a coded error rather than a non-finite table in the report
    with pytest.raises(SingularSystem):
        truncated_potential(chain, f, p=1)


def test_truncation_gap_running_example(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)
    pot = verify_potential(chain, bundle, [1, 17], [1, 21])
    g = CycleSystem(chain, bundle).canonical_solution([1, 0])
    result = truncated_potential(chain, [1, 0], p=1)
    report = verify_truncation_gap(chain, bundle, pot, g, result)
    assert report["gap"] == pytest.approx([2 / 9, 2 / 9], abs=1e-9)
    assert report["bound_abs"] == pytest.approx(35.0)
    assert np.all(report["slack_abs"] >= 0.0)


def test_truncation_gap_constant_reward_gap_zero(chain):
    bundle = verify_bundle(chain, [1, 0], [1, 4], [1, 5], [0], 1)
    pot = verify_potential(chain, bundle, [1, 17], [1, 21])
    g = CycleSystem(chain, bundle).canonical_solution([1.0, 1.0])
    result = truncated_potential(chain, [1.0, 1.0], p=1)
    report = verify_truncation_gap(chain, bundle, pot, g, result)
    assert report["gap"] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_truncation_gap_bounds_hold_on_suite(suite):
    for inst in suite.instances:
        p = inst.decomp.period
        result = truncated_potential(inst.chain, inst.f, p=p)
        report = verify_truncation_gap(inst.chain, inst.bundle, inst.pot, inst.g_star, result)
        assert np.all(report["slack_lower"] >= -1e-9)
        assert np.all(report["slack_upper"] >= -1e-9)
