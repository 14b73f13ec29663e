"""Finite Markov chains: validation, stationarity, powers, cyclic structure.

A chain is a row-stochastic kernel over an indexed finite state space.
All container types are immutable after construction (their numpy arrays
are frozen), so they are safe to share across threads; every operation
here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    InvariantViolation,
    MultipleRecurrentClasses,
    NegativeEntry,
    NegativityViolation,
    RowSumViolation,
)

#: absolute tolerance on row sums, distribution masses, and drift residuals
ATOL = 1e-12


def _frozen(a) -> np.ndarray:
    """Copy to a float array and make it read-only."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FiniteChain:
    """A validated row-stochastic transition kernel.

    Attributes
    ----------
    n : int
        Number of states.
    kernel : (n, n) ndarray
        Transition probabilities; every entry >= 0 and every row sums
        to 1 within ``ATOL``. Read-only.
    """

    n: int
    kernel: np.ndarray


@dataclass(frozen=True)
class StateFunction:
    """A real-valued function on the state space, stored as a vector."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        if not np.all(np.isfinite(vals)):
            raise NegativityViolation("state function has non-finite entries")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Distribution:
    """A probability vector: entries >= 0, total mass 1 within ``ATOL``."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.array(self.mass, dtype=float)
        if mass.min(initial=0.0) < -ATOL:
            raise NegativityViolation(f"distribution has negative mass {mass.min():.3e}")
        np.clip(mass, 0.0, None, out=mass)
        total = mass.sum()
        if abs(total - 1.0) > ATOL:
            raise RowSumViolation("distribution", total - 1.0)
        mass /= total
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)


@dataclass(frozen=True)
class CyclicDecomposition:
    """Period and ordered cyclic classes of the recurrent communicating class.

    ``classes[i]`` maps one-step into ``classes[(i+1) % period]``; states in
    ``transient`` lie outside the recurrent class.
    """

    period: int
    classes: tuple
    transient: tuple = field(default=())


def values_of(h, n: int | None = None) -> np.ndarray:
    """Coerce a charge (StateFunction or array-like) to a float vector."""
    vals = h.values if isinstance(h, StateFunction) else np.asarray(h, dtype=float)
    if n is not None and vals.shape != (n,):
        raise ValueError(f"expected a length-{n} vector, got shape {vals.shape}")
    return vals


def validate_chain(kernel) -> FiniteChain:
    """Validate a square matrix as a transition kernel.

    Entries below -ATOL raise :class:`NegativeEntry`; tiny negative
    rounding noise is clamped to zero. Rows are renormalized only when
    their deficit is within ``ATOL``, otherwise :class:`RowSumViolation`
    reports the row and its deficit. Silent renormalization of larger
    deficits would hide modeling bugs.
    """
    P = np.array(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"kernel must be square, got shape {P.shape}")
    n = P.shape[0]
    if n < 1:
        raise ValueError("kernel must have at least one state")
    if P.min() < -ATOL:
        i, j = np.unravel_index(np.argmin(P), P.shape)
        raise NegativeEntry(f"kernel entry ({i},{j}) = {P[i, j]:.3e} is negative")
    np.clip(P, 0.0, None, out=P)
    sums = P.sum(axis=1)
    bad = np.abs(sums - 1.0) > ATOL
    if bad.any():
        row = int(np.argmax(np.abs(sums - 1.0)))
        raise RowSumViolation(row=row, deficit=float(sums[row] - 1.0))
    P /= sums[:, None]
    P.flags.writeable = False
    return FiniteChain(n=n, kernel=P)


def recurrent_structure(chain: FiniteChain):
    """Strongly connected components split into closed (recurrent) and open.

    Returns
    -------
    recurrent : list of ndarray
        State index arrays of the closed communicating classes.
    transient : ndarray
        States outside every closed class.
    """
    P = chain.kernel
    ncomp, labels = connected_components(
        csr_matrix(P > 0.0), directed=True, connection="strong"
    )
    recurrent = []
    for c in range(ncomp):
        members = np.flatnonzero(labels == c)
        outside = np.setdiff1d(np.arange(chain.n), members, assume_unique=True)
        if outside.size == 0 or P[np.ix_(members, outside)].sum() == 0.0:
            recurrent.append(members)
    rec_all = (
        np.concatenate(recurrent) if recurrent else np.empty(0, dtype=int)
    )
    transient = np.setdiff1d(np.arange(chain.n), rec_all, assume_unique=True)
    return recurrent, transient


def _single_recurrent_class(chain: FiniteChain):
    """The one closed class and the transient states, as index arrays."""
    recurrent, transient = recurrent_structure(chain)
    if len(recurrent) != 1:
        raise MultipleRecurrentClasses(
            f"chain has {len(recurrent)} closed communicating classes; "
            "the stationary distribution is not unique"
        )
    return recurrent[0], transient


def stationary(chain: FiniteChain) -> Distribution:
    """Unique stationary distribution of a chain with one recurrent class.

    Solves (P^T - I) pi = 0 with the normalization sum(pi) = 1 by a direct
    dense solve on the recurrent class (one balance equation is replaced
    by the normalization row; for an irreducible kernel any row is
    redundant). Transient states receive mass zero. Power iteration is
    deliberately avoided: n is small by design and periodic kernels do
    not converge under it.
    """
    rec, _ = _single_recurrent_class(chain)
    Pr = chain.kernel[np.ix_(rec, rec)]
    k = rec.size
    A = Pr.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi_r = np.linalg.solve(A, b)
    np.clip(pi_r, 0.0, None, out=pi_r)
    pi_r /= pi_r.sum()
    pi = np.zeros(chain.n)
    pi[rec] = pi_r
    residual = np.max(np.abs(pi @ chain.kernel - pi))
    if not residual <= ATOL:
        raise InvariantViolation(f"stationary fixed-point residual {residual:.3e}")
    return Distribution(mass=pi)


def kernel_powers(chain: FiniteChain, m: int) -> list:
    """[I, P, P^2, ..., P^m] for integer m >= 0, by repeated multiplication."""
    if m < 0:
        raise ValueError("m must be >= 0")
    # P itself rather than I @ P: the same floats without an n^3 product
    powers = [np.eye(chain.n), chain.kernel][: m + 1]
    while len(powers) <= m:
        powers.append(powers[-1] @ chain.kernel)
    return powers


def cyclic_decomposition(chain: FiniteChain) -> CyclicDecomposition:
    """Period and cyclic classes of the single recurrent class.

    The period is the gcd of cycle lengths in the transition digraph,
    obtained exactly from integer BFS levels: p = gcd over edges (u, v)
    of level(u) + 1 - level(v). Class D_0 contains the smallest recurrent
    state index, and classes are ordered so one-step transitions map
    D_i into D_{i+1 mod p}.
    """
    rec, transient = _single_recurrent_class(chain)
    k = rec.size
    adj = chain.kernel[np.ix_(rec, rec)] > 0.0

    level = np.full(k, -1, dtype=int)
    level[0] = 0
    frontier, depth = np.array([0]), 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth

    u, v = np.nonzero(adj)
    p = int(np.gcd.reduce(level[u] + 1 - level[v])) or 1

    classes = tuple(
        frozenset(int(rec[i]) for i in range(k) if level[i] % p == r) for r in range(p)
    )
    return CyclicDecomposition(period=p, classes=classes, transient=tuple(int(t) for t in transient))
