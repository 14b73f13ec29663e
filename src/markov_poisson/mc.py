"""Regenerative Monte Carlo over sampler-defined chains, in numpy lanes.

A cycle runs the one-step sampler forward. At an eligible visit to the
small set, at state x, it starts an m-step segment of ordinary steps and
charges the segment's first m states; when lam < 1 the segment's endpoint
y regenerates the cycle with probability lam phi(y) / P^m(x, y), and
otherwise the cycle goes on from y (retrospective splitting: Nummelin
1978; Mykland, Tierney and Yu 1995). This draws the split chain's law: a
segment's path and coin have the law of a Bernoulli(lambda) coin, an
endpoint from phi or the residual kernel, and the bridge between the
two. Visits to the small set strictly inside a segment start no segment;
the next eligible visit is the segment's endpoint or later. When lam = 1
the coin cannot fail, so a segment skips its last step, whose endpoint
would only feed the coin: it ends once its last state is charged, and at
m = 1 it is a segment of zero steps that draws nothing.

Every estimate is one block of a ``run_cycles`` pass, reduced by
``pif_from_cycles`` (a phi-started block) or ``gstar_from_cycles`` (a
block from one start state); each reduction needs at least two cycles.
Estimates from several starts share one run: ``run_cycles`` takes one
start rule per block of cycles (a state, phi, or a start law), and
block b is cycles b n .. (b + 1) n - 1 of the master seed. Cycles run
in numpy lanes, one cycle per lane and up to ``LANES`` in flight; per
iteration every lane charges its state and takes one step, unless its
cycle ends there. When a cycle ends, its lane starts the next cycle not
yet started, from whichever block, so one pass runs every block and
every lane stays busy until the last cycles are in flight. With workers,
the cycle range splits into contiguous shards: the calling process runs
the first and a process pool the rest.

The k-th uniform of cycle i is word k % 4 of the Philox-4x64-10 block
with key (master_seed, i) and counter k // 4 + 1, as (w >> 11) 2^-53:
the k-th ``random()`` of ``np.random.Generator(np.random.Philox(key=[seed,
i]))``. Each cycle draws in the order of a one-cycle-at-a-time simulation
(the phi start first when its block draws its starts), whatever lane it
runs in, so estimates are bitwise reproducible whatever the worker count
or lane count.

Samplers implement one batched protocol on arrays of states, with draws
taken from the lane source :class:`CycleStreams` for the lanes given:

* ``m``, ``lam`` and ``dtype`` (the dtype of a state array);
* ``charge(x)``, one value per state or one column per charge (shape
  (states, k)), and ``in_small_set(x)``;
* ``step(x, streams, lanes)`` and ``sample_phi(streams, lanes)``, the
  start law phi;
* ``regeneration_probability(x, y)``, lam phi(y) / P^m(x, y) for segment
  starts x and endpoints y (needed only when lam < 1).

Samplers must be picklable when workers > 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .chain import values_of
from .errors import MaxStepsExceeded

DEFAULT_MAX_STEPS = 10**8
EPS = float(np.finfo(float).eps)

#: cycles in flight together, one per lane; a finite chain's draws compare
#: (lanes, n) CDF rows, so this bounds their memory
LANES = 4096

#: uniforms computed per lane for its first draws, and at each later refill
#: (multiples of 4): most cycles end within the first few draws
FIRST_DRAWS, WINDOW = 8, 32

#: the most cycles per block: a run keeps each cycle's k sums and length,
#: 8 (k + 1) bytes per cycle per block
MAX_CYCLES = 10**8

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


def _start(sc, rule, streams: CycleStreams, lanes: np.ndarray) -> np.ndarray:
    """Start states, by one block's rule, of the cycles just keyed to ``lanes``."""
    if rule is None:
        return sc.sample_phi(streams, lanes)
    if callable(rule):
        return rule(streams, lanes)
    return np.full(lanes.size, rule, dtype=sc.dtype)


def _start_cycles(sc, starts, n: int, streams: CycleStreams, lanes, first: int) -> np.ndarray:
    """Start states of the cycles ``first, first + 1, ...`` just keyed to ``lanes``.

    Cycle c belongs to block c // n and starts by ``starts[c // n]``; the
    cycles of one block take one ``_start`` call.
    """
    parts = [
        _start(sc, starts[b], streams, lanes[max(b * n - first, 0):(b + 1) * n - first])
        for b in range(first // n, (first + lanes.size - 1) // n + 1)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _run_lanes(sc, starts, n: int, streams: CycleStreams, lo: int, hi: int, max_steps: int):
    """Per-cycle (sums, length) of cycles ``lo .. hi - 1`` of blocks of ``n``.

    The streams key their first lane to cycle ``lo``. The lanes start with
    the first ``streams.n`` cycles. A lane whose cycle ends takes the next
    cycle not yet started, on its re-keyed stream and by the rule of that
    cycle's block, until all have started, so the streams hold a window
    only for the cycles in flight. Per iteration each lane charges its
    state and steps: a lane outside a segment starts one at an eligible
    visit to the small set, and a segment that reaches its endpoint tosses
    the coin (lam < 1) or, at lam = 1, ends on its last charged state
    without that step. The steps each segment has left (-1 outside one)
    and, when lam < 1, its start are kept by position in the lanes in
    flight, like the states. Sums and lengths accumulate per lane; they
    go to the cycle's slot of the result when the cycle ends. The sums
    take the charge's shape: one per cycle, or a row of k per cycle when
    the charge has k columns.
    """
    count = hi - lo
    lanes = np.arange(streams.n)
    cycle = lanes.copy()  # the cycle of each lane, counted from lo
    started = streams.n
    x = _start_cycles(sc, starts, n, streams, lanes, lo)
    # a charge of one value per state is one column; a (states, k) charge
    # is k. Each column sums into its own row of lanes: a 1-d row adds a
    # lane subset about three times faster than a (lanes, k) block does
    probe = np.shape(sc.charge(x[:1]))
    blocked = len(probe) == 2
    k = probe[1] if blocked else 1
    cycle_sums, cycle_lengths = np.empty((k, count)), np.empty(count)
    sums = np.zeros((k, streams.n))
    rows = list(sums)
    length = np.zeros(streams.n, dtype=np.int64)
    coin = sc.lam < 1.0
    # a segment's steps after its first state: at lam = 1 the coin cannot
    # fail, so its endpoint is never drawn
    steps = sc.m if coin else sc.m - 1
    left = np.full(streams.n, -1)  # steps each segment has left, -1 outside one
    origin = x.copy()  # each segment's start, read by the coin when lam < 1

    while lanes.size:
        enter = (left < 0) & sc.in_small_set(x)
        left[enter] = steps
        if coin:
            origin[enter] = x[enter]
        charge = sc.charge(x)
        for row, column in zip(rows, charge.T if blocked else (charge,)):
            row[lanes] += column
        length[lanes] += 1
        if length[lanes].max() > max_steps:
            raise MaxStepsExceeded(max_steps)
        # positions in ``lanes`` of ended cycles: at lam = 1, the segments
        # whose last state was just charged; every other lane steps
        done = np.flatnonzero(left == 0)
        if not done.size:
            x = sc.step(x, streams, lanes)
        elif done.size < lanes.size:
            move = left != 0
            x[move] = sc.step(x[move], streams, lanes[move])
        left[left > 0] -= 1
        if coin:
            end = np.flatnonzero(left == 0)
            if end.size:
                u = streams.uniform(lanes[end])
                done = end[u < sc.regeneration_probability(origin[end], x[end])]
                left[end] = -1
        if not done.size:
            continue
        ld = lanes[done]
        cycle_sums[:, cycle[ld]] = sums[:, ld]
        cycle_lengths[cycle[ld]] = length[ld]
        r = min(done.size, count - started)
        if r:
            refill, lr = done[:r], ld[:r]
            cycle[lr] = np.arange(started, started + r)
            streams.restart(lr, cycle[lr])
            sums[:, lr] = 0.0
            length[lr] = 0
            left[refill] = -1
            x[refill] = _start_cycles(sc, starts, n, streams, lr, lo + started)
            started += r
        if r < done.size:
            keep = np.ones(lanes.size, dtype=bool)
            keep[done[r:]] = False
            lanes, x, left, origin = lanes[keep], x[keep], left[keep], origin[keep]
    return (cycle_sums.T.copy() if blocked else cycle_sums[0]), cycle_lengths


def _shard(args):
    """Per-cycle (sums, length) of one contiguous shard, LANES in flight."""
    sc, starts, n, master_seed, lo, hi, max_steps = args
    streams = CycleStreams(master_seed, lo, min(LANES, hi - lo))
    return _run_lanes(sc, starts, n, streams, lo, hi, max_steps)


def run_cycles(
    sc,
    starts,
    n_cycles: int,
    master_seed: int,
    workers: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Per-cycle (sums, length) arrays of ``n_cycles`` i.i.d. cycles per block.

    ``starts`` holds one start rule per block: a start state, ``None`` to
    draw each cycle's start from the sampler's phi, or a start law
    ``rule(streams, lanes)``; either draw is the first of the cycle's
    stream. Block b is cycles b n .. (b + 1) n - 1 of the master seed, and
    the charge is summed over indices 0..tau-1. Both arrays hold
    len(starts) * n_cycles entries in cycle-index order, so block b's
    cycles are row b of ``reshape(len(starts), n_cycles)``. A charge with
    k columns gives sums of shape (len(starts) * n_cycles, k), one column
    per charge, from the same draws.

    All blocks run in one lane pass: a lane whose cycle ends takes the
    next cycle not yet started, from whichever block. ``workers`` splits
    the whole cycle range into at most one contiguous shard per worker
    and per CPU; the calling process runs the first shard and a process
    pool the rest. Results do not depend on ``workers`` or on the lane
    count, and an error comes from the lowest shard that raised one.

    Raises MaxStepsExceeded when a cycle's steps exceed ``max_steps``, and
    ValueError for lam < 1 without ``regeneration_probability``.
    """
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError(f"n_cycles must lie in 1..{MAX_CYCLES}")
    if sc.lam < 1.0 and getattr(sc, "regeneration_probability", None) is None:
        raise ValueError("lam < 1 requires regeneration_probability(x, y)")
    starts = list(starts)
    if not starts:
        raise ValueError("run_cycles needs at least one start rule")
    total = len(starts) * n_cycles
    shards = min(max(workers, 1), os.cpu_count() or 1, total)
    bounds = [total * k // shards for k in range(shards + 1)]
    jobs = [
        (sc, starts, n_cycles, master_seed, lo, hi, max_steps)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if shards == 1:
        return _shard(jobs[0])
    from concurrent.futures import ProcessPoolExecutor

    # each submit starts a worker process, so the pool works while this
    # process runs shard 0
    with ProcessPoolExecutor(max_workers=shards - 1) as pool:
        futures = [pool.submit(_shard, job) for job in jobs[1:]]
        parts = [_shard(jobs[0])] + [future.result() for future in futures]
    sums, lengths = zip(*parts)
    return np.concatenate(sums), np.concatenate(lengths)


def _check_one_column(sums) -> None:
    """Raise ValueError unless ``sums`` holds one value per cycle."""
    if np.ndim(sums) != 1:
        raise ValueError(
            f"sums must hold one value per cycle, got shape {np.shape(sums)}: "
            "reduce one charge column, e.g. sums[:, 0]"
        )


def gstar_from_cycles(sums: np.ndarray, lengths: np.ndarray, pi_f: float) -> MCEstimate:
    """g*(x0) = E_x0 sum_{j<tau} (f - pi_f)(X_j) from the cycles of one block.

    Each cycle contributes y = sum_f - pi_f * length. The point is the
    compensated sum (``math.fsum``) of y over n. The standard error,
    sd(y) / sqrt(n), is floored at 2 eps mean|y|, the rounding error the
    contributions and their mean can carry: when every cycle contributes
    the same value the sample deviation vanishes, but the point is still
    only as exact as the arithmetic that formed it. The floor is 0 when
    every contribution is exactly 0. Fewer than two cycles give no error
    bar and raise ValueError, as do sums of more than one charge column.
    """
    _check_one_column(sums)
    n = lengths.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 cycles, got {n}")
    y = sums - pi_f * lengths
    point = math.fsum(y) / n
    se = float(y.std(ddof=1)) / math.sqrt(n)
    se = max(se, 2.0 * EPS * float(np.abs(y).mean()))
    return MCEstimate(point, se, math.fsum(lengths) / n)


def pif_from_cycles(sums: np.ndarray, lengths: np.ndarray) -> MCEstimate:
    """Ratio estimator of pi(f) from the cycles of one phi-started block.

    The total charge over the total length, both compensated sums. The
    standard error uses the delta method for the regenerative ratio,
    sd(sum_f - r*length) / (mean length * sqrt(n)), floored at 2 eps |r|
    as in :func:`gstar_from_cycles`. Fewer than two cycles raise
    ValueError, as do sums of more than one charge column.
    """
    _check_one_column(sums)
    n = lengths.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 cycles, got {n}")
    total_length = math.fsum(lengths)
    r = math.fsum(sums) / total_length
    resid = sums - r * lengths
    se = float(resid.std(ddof=1) / (lengths.mean() * np.sqrt(n)))
    se = max(se, 2.0 * EPS * abs(r))
    return MCEstimate(r, se, total_length / n)


def _inverse_cdf(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per lane, the row's ``searchsorted(u, side="right")`` capped at n-1."""
    idx = np.count_nonzero(rows <= u[:, None], axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


class FiniteChainSampler:
    """Exact batched sampler of a finite chain under a minorization certificate.

    Every draw is an inverse-CDF lookup: a step on the kernel's row, a
    start on phi. A segment from x to y regenerates with probability
    lam phi(y) / P^m(x, y), read from the chain's cached power P^m, the
    array :class:`~markov_poisson.split.CycleSystem` reads. Only the
    minorization is read, so a bare SmallSetCertificate and a full
    CertificateBundle both serve as ``cert``.
    """

    dtype = np.intp

    def __init__(self, cert, f):
        chain = cert.chain
        self.cdf = np.cumsum(chain.kernel, axis=1)
        self.f = values_of(f, chain.n)
        self.m = cert.m
        self.lam = cert.lam
        self.members = np.zeros(chain.n, dtype=bool)
        self.members[list(cert.C)] = True
        self.phi = cert.phi.mass
        self.phi_cdf = np.cumsum(self.phi)
        self.power = chain.powers(cert.m)[-1]

    def charge(self, x: np.ndarray) -> np.ndarray:
        return self.f[x]

    def in_small_set(self, x: np.ndarray) -> np.ndarray:
        return self.members[x]

    def step(self, x, streams, lanes):
        return _inverse_cdf(self.cdf[x], streams.uniform(lanes))

    def sample_phi(self, streams, lanes):
        return _inverse_cdf(self.phi_cdf[None, :], streams.uniform(lanes))

    def regeneration_probability(self, x, y):
        return self.lam * self.phi[y] / self.power[x, y]
