"""Regenerative Monte Carlo over sampler-defined chains, in numpy lanes.

A cycle runs the one-step sampler to the next eligible visit of the
small set, tosses a Bernoulli(lambda) coin there, draws the m-step-ahead
endpoint from phi (success) or the residual kernel (failure), fills the
m-1 intermediate indices with the endpoint-conditioned bridge sampler,
and stops at the first success. Visits to the small set strictly inside
a bridge segment never toss coins; the next eligible visit is the first
one at least m steps after the previous toss.

Cycles run in numpy lanes, one cycle per lane and up to ``LANES`` in
flight; per iteration a lane outside the small set takes a free step,
and a lane in it tosses the coin, draws the endpoint and runs the bridge
draws. When a cycle ends, its lane starts the block's next cycle not yet
started, so one pass runs a whole block and every lane stays busy until
the block's last cycles are in flight.

The k-th uniform of cycle i is word k % 4 of the Philox-4x64-10 block
with key (master_seed, i) and counter k // 4 + 1, as (w >> 11) 2^-53:
the k-th ``random()`` of ``np.random.Generator(np.random.Philox(key=[seed,
i]))``. Each cycle draws in the order of a one-cycle-at-a-time simulation
(the phi start first when no start state is given), whatever lane it
runs in, so estimates are bitwise reproducible whatever the worker count
or lane count.

Samplers implement one batched protocol on arrays of states, with draws
taken from the lane source :class:`CycleStreams` for the lanes given:

* ``m``, ``lam`` and ``dtype`` (the dtype of a state array);
* ``charge(x)`` and ``in_small_set(x)``;
* ``step(x, streams, lanes)`` and ``sample_phi(streams, lanes)``;
* ``sample_residual(x, streams, lanes, budget)``, returning the endpoints
  and the proposals each lane rejected; a lane stops proposing once its
  rejections exceed its budget (needed only when lam < 1);
* ``sample_bridge(x, y, streams, lanes)``, the m-1 intermediate state
  arrays given the block's start and endpoint (needed only when m >= 2).

Samplers must be picklable when workers > 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .chain import values_of
from .errors import MaxStepsExceeded, MissingBridgeSampler
from .split import CycleSystem

DEFAULT_MAX_STEPS = 10**8
EPS = float(np.finfo(float).eps)

#: cycles in flight together, one per lane; a finite chain's draws compare
#: (lanes, n) CDF rows, so this bounds their memory
LANES = 4096

#: uniforms computed per lane for its first draws, and at each later refill
#: (multiples of 4): most cycles end within the first few draws
FIRST_DRAWS, WINDOW = 8, 32

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK, _S32, _S11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def _mulhilo(m: int, b: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * b."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _MASK, b >> _S32
    t = m_hi * b_lo + ((m_lo * b_lo) >> _S32)
    u = m_lo * b_hi + (t & _MASK)
    return m_hi * b_hi + (t >> _S32) + (u >> _S32), np.uint64(m) * b


def _philox(counter: np.ndarray, key0: int, key1: np.ndarray) -> np.ndarray:
    """Philox-4x64-10 of the counters (c, 0, 0, 0), shape (..., 4).

    ``key1`` broadcasts against ``counter``; the key bumps by the Weyl
    constants between the ten rounds.
    """
    zero = np.zeros_like(counter)
    c0, c1, c2, c3 = counter, zero, zero, zero
    for r in range(10):
        k0 = np.uint64((key0 + r * _W0) % 2**64)
        k1 = key1 + np.uint64(r * _W1 % 2**64)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1)


class CycleStreams:
    """The uniform streams of the cycles in flight, one per lane.

    Lane j starts as cycle ``first_cycle + j`` of ``n`` lanes, and
    ``restart`` re-keys lanes to later cycles. ``uniform(lanes)`` returns
    the next uniform of each lane in the index array ``lanes`` and
    advances their draw counters; ``count`` holds the draws made per lane.
    """

    def __init__(self, master_seed: int, first_cycle: int, n: int):
        key = np.array([master_seed, first_cycle], dtype=np.uint64)
        self.n = n
        self._key0 = int(key[0])
        self._first = key[1]
        self._key1 = key[1] + np.arange(n, dtype=np.uint64)
        self.count = np.zeros(n, dtype=np.int64)
        # the window of lane j holds its draws _base[j] .. _end[j] - 1
        self._base = np.zeros(n, dtype=np.int64)
        self._end = np.zeros(n, dtype=np.int64)
        self._window = np.empty((n, WINDOW))

    def restart(self, lanes: np.ndarray, cycles: np.ndarray) -> None:
        """Key ``lanes`` to the cycles ``first_cycle + cycles``, no draws made."""
        self._key1[lanes] = self._first + cycles.astype(np.uint64)
        self.count[lanes] = 0
        self._end[lanes] = 0  # a stale window: the first draw refills it

    def uniform(self, lanes: np.ndarray) -> np.ndarray:
        k = self.count[lanes]
        left = self._end[lanes] - k
        if (left <= 0).any():
            # lanes close to their window's end refill along with the stale
            # ones, so that straggling lanes share their Philox evaluations
            renew = left < WINDOW // 4
            self._refill(lanes[renew], k[renew])
        self.count[lanes] = k + 1
        return self._window[lanes, k - self._base[lanes]]

    def _refill(self, lanes: np.ndarray, k: np.ndarray) -> None:
        base = k - k % 4
        draws = WINDOW if k.any() else FIRST_DRAWS
        counter = (base // 4 + 1).astype(np.uint64)[:, None] + np.arange(
            draws // 4, dtype=np.uint64
        )
        words = _philox(counter, self._key0, self._key1[lanes, None])
        self._window[lanes, :draws] = (words.reshape(lanes.size, draws) >> _S11) * 2.0**-53
        self._base[lanes] = base
        self._end[lanes] = base + draws


@dataclass(frozen=True)
class MCEstimate:
    """A point estimate, its standard error and the mean length of its cycles."""

    point: float
    std_error: float
    mean_length: float


def _start(sc, x0, streams: CycleStreams, lanes: np.ndarray) -> np.ndarray:
    """Start states of the cycles just keyed to ``lanes``."""
    if x0 is None:
        return sc.sample_phi(streams, lanes)
    if callable(x0):
        return x0(streams, lanes)
    return np.full(lanes.size, x0, dtype=sc.dtype)


def _run_lanes(sc, x0, streams: CycleStreams, n: int, max_steps: int):
    """Per-cycle (sum_f, length) of ``n`` cycles from the streams' first.

    The lanes start with the first ``streams.n`` cycles. A lane whose
    cycle ends takes the next cycle not yet started, on its re-keyed
    stream, until all ``n`` have started, so the streams hold a window
    only for the cycles in flight. Sums, lengths and the steps spent
    accumulate per lane; the sum and length go to the cycle's slot of the
    result when the cycle ends.
    """
    lanes = np.arange(streams.n)
    cycle = lanes.copy()  # the cycle of each lane, counted from the first
    started = streams.n
    x = _start(sc, x0, streams, lanes)
    cycle_sums, cycle_lengths = np.empty(n), np.empty(n)
    sums = np.zeros(streams.n)
    length = np.zeros(streams.n, dtype=np.int64)
    # steps plus rejected residual proposals: what max_steps guards
    spent = np.zeros(streams.n, dtype=np.int64)
    while lanes.size:
        inside = sc.in_small_set(x)
        walk = ~inside
        if walk.any():
            lw, xw = lanes[walk], x[walk]
            sums[lw] += sc.charge(xw)
            x[walk] = sc.step(xw, streams, lw)
            length[lw] += 1
            spent[lw] += 1
        done = np.zeros(0, dtype=np.intp)  # positions in ``lanes`` of ended cycles
        if inside.any():
            lc, xc = lanes[inside], x[inside]
            success = streams.uniform(lc) < sc.lam
            y = xc.copy()
            if sc.m >= 2 and success.any():
                y[success] = sc.sample_phi(streams, lc[success])
            fail = ~success
            if fail.any():
                lf = lc[fail]
                y[fail], rejected = sc.sample_residual(
                    xc[fail], streams, lf, max_steps - spent[lf]
                )
                spent[lf] += rejected
            sums[lc] += sc.charge(xc)
            if sc.m >= 2:
                for z in sc.sample_bridge(xc, y, streams, lc):
                    sums[lc] += sc.charge(z)
            length[lc] += sc.m
            spent[lc] += sc.m
            x[inside] = y
            done = np.flatnonzero(inside)[success]
        if spent[lanes].max() > max_steps:
            raise MaxStepsExceeded(max_steps)
        if not done.size:
            continue
        ld = lanes[done]
        cycle_sums[cycle[ld]] = sums[ld]
        cycle_lengths[cycle[ld]] = length[ld]
        k = min(done.size, n - started)
        if k:
            refill, lr = done[:k], ld[:k]
            cycle[lr] = np.arange(started, started + k)
            started += k
            streams.restart(lr, cycle[lr])
            sums[lr] = 0.0
            length[lr] = 0
            spent[lr] = 0
            x[refill] = _start(sc, x0, streams, lr)
        if k < done.size:
            keep = np.ones(lanes.size, dtype=bool)
            keep[done[k:]] = False
            lanes, x = lanes[keep], x[keep]
    return cycle_sums, cycle_lengths


def _cycle_block(args):
    """Per-cycle (sum_f, length) of ``n`` cycles from ``first``, LANES in flight."""
    sc, x0, master_seed, first, n, max_steps = args
    return _run_lanes(sc, x0, CycleStreams(master_seed, first, min(LANES, n)), n, max_steps)


def run_cycles(
    sc,
    x0,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    stream_offset: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Per-cycle (sum_f, length) arrays for i.i.d. cycles from x0.

    ``x0`` is a start state, ``None`` to draw each cycle's start from the
    sampler's phi, or a start law ``x0(streams, lanes)``; either draw is
    the first of the cycle's stream. The charge is summed over indices
    0..tau-1. Results are in cycle-index order, so the arrays (and
    anything reduced from them) do not depend on ``workers``, which run
    contiguous blocks of cycles in a process pool of at most one process
    per block and per CPU.

    Raises MaxStepsExceeded when a cycle's steps plus its rejected
    residual proposals exceed ``max_steps``, and MissingBridgeSampler for
    m >= 2 without a bridge.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if sc.m >= 2 and getattr(sc, "sample_bridge", None) is None:
        raise MissingBridgeSampler(f"m={sc.m} requires a bridge sampler")
    if sc.lam < 1.0 and getattr(sc, "sample_residual", None) is None:
        raise ValueError("lam < 1 requires a residual sampler")
    bounds = stream_offset + np.linspace(0, n_cycles, max(workers, 1) + 1, dtype=int)
    jobs = [
        (sc, x0, master_seed, int(lo), int(hi - lo), max_steps)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if len(jobs) == 1:
        blocks = [_cycle_block(jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            blocks = list(pool.map(_cycle_block, jobs))
    sums, lengths = zip(*blocks)
    return np.concatenate(sums), np.concatenate(lengths)


def mean_and_se(y: np.ndarray) -> tuple:
    """Sample mean of per-cycle contributions and its standard error.

    The mean is a compensated sum (``math.fsum``) divided by n. The
    standard error, sd(y) / sqrt(n), is floored at 2 eps mean|y_i|, the
    rounding error the contributions and their mean can carry: when every
    cycle contributes the same value the sample deviation vanishes, but
    the point is still only as exact as the arithmetic that formed it.
    The floor is 0 when every contribution is exactly 0.
    """
    n = y.size
    point = math.fsum(y) / n
    if n < 2:
        return point, 0.0
    se = float(y.std(ddof=1)) / math.sqrt(n)
    return point, max(se, 2.0 * EPS * float(np.abs(y).mean()))


def estimate_gstar(
    sc,
    x0,
    pi_f: float,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    stream_offset: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MCEstimate:
    """Estimate g*(x0) = E_x0 sum_{j<tau} (f - pi_f)(X_j) from i.i.d. cycles.

    Each cycle contributes sum_f - pi_f * length; the point and its
    standard error are those of :func:`mean_and_se`.
    """
    sums, lengths = run_cycles(sc, x0, n_cycles, master_seed, workers, stream_offset, max_steps)
    point, se = mean_and_se(sums - pi_f * lengths)
    return MCEstimate(point, se, math.fsum(lengths) / n_cycles)


def estimate_pif(
    sc,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    stream_offset: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MCEstimate:
    """Ratio estimator of pi(f): total charge over total length, from phi.

    Both totals are compensated sums. The standard error uses the delta
    method for the regenerative ratio, sd(sum_f - r*length) / (mean
    length * sqrt(n)), floored at 2 eps |r| as in :func:`mean_and_se`.
    """
    sums, lengths = run_cycles(sc, None, n_cycles, master_seed, workers, stream_offset, max_steps)
    total_length = math.fsum(lengths)
    r = math.fsum(sums) / total_length
    if n_cycles > 1:
        resid = sums - r * lengths
        se = float(resid.std(ddof=1) / (lengths.mean() * np.sqrt(n_cycles)))
        se = max(se, 2.0 * EPS * abs(r))
    else:
        se = 0.0
    return MCEstimate(r, se, total_length / n_cycles)


def _inverse_cdf(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per lane, the row's ``searchsorted(u, side="right")`` capped at n-1."""
    idx = np.count_nonzero(rows <= u[:, None], axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


class FiniteChainSampler:
    """Exact batched sampler of a finite chain under its regeneration system.

    Every draw is an inverse-CDF lookup. The kernel powers and residual
    rows come from the chain's :class:`CycleSystem`. The bridge draws
    the intermediate states by sequential conditionals: given the
    previous bridge state w and the endpoint y at lag r, the next state
    has law proportional to P(w, .) * P^{r-1}(., y).
    """

    dtype = np.intp

    def __init__(self, system: CycleSystem, f):
        n = system.chain.n
        self.kernel = system.chain.kernel
        self.cdf = np.cumsum(self.kernel, axis=1)
        self.f = values_of(f, n)
        self.m = system.m
        self.lam = system.lam
        self.powers = system.powers
        self.members = np.zeros(n, dtype=bool)
        self.members[list(system.C)] = True
        self.c_index = np.cumsum(self.members) - 1
        self.phi_cdf = np.cumsum(system.phi)
        self.q_cdf = np.cumsum(system.Q, axis=1) if system.Q is not None else None

    def charge(self, x: np.ndarray) -> np.ndarray:
        return self.f[x]

    def in_small_set(self, x: np.ndarray) -> np.ndarray:
        return self.members[x]

    def step(self, x, streams, lanes):
        return _inverse_cdf(self.cdf[x], streams.uniform(lanes))

    def sample_phi(self, streams, lanes):
        return _inverse_cdf(self.phi_cdf[None, :], streams.uniform(lanes))

    def sample_residual(self, x, streams, lanes, budget):
        return _inverse_cdf(self.q_cdf[self.c_index[x]], streams.uniform(lanes)), 0

    def sample_bridge(self, x, y, streams, lanes) -> list:
        path, w = [], x
        for j in range(1, self.m):
            probs = self.kernel[w] * self.powers[self.m - j][:, y].T
            total = probs.sum(axis=1)
            if not np.all(total > 0.0):
                i = int(np.argmin(total))
                raise ValueError(f"no bridge path from {x[i]} to {y[i]} at lag {self.m}")
            w = _inverse_cdf(np.cumsum(probs / total[:, None], axis=1), streams.uniform(lanes))
            path.append(w)
        return path
