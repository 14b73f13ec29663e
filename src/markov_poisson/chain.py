"""Finite Markov chains: validation, stationarity, powers, cyclic structure.

A chain is a row-stochastic kernel over an indexed finite state space.
All container types are immutable after construction (their numpy arrays
are frozen), so they are safe to share across threads; every operation
here is a pure function. A chain computes its structure once: ``pi`` (by
:func:`stationary`), ``cyclic`` (by :func:`cyclic_decomposition`) and the
kernel powers ``powers(m)`` (by :func:`kernel_powers`, kept for the
largest m asked so far) are cached on first use and shared by every
caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvariantViolation,
    MultipleRecurrentClasses,
    NegativeEntry,
    NegativityViolation,
    RowSumViolation,
)

#: absolute tolerance on row sums, distribution masses, and drift residuals
ATOL = 1e-12


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
    pi : (n,) ndarray
        The stationary law, computed by :func:`stationary` on first use.
    cyclic : CyclicDecomposition
        Period and cyclic classes, computed by :func:`cyclic_decomposition`
        on first use.
    """

    n: int
    kernel: np.ndarray

    @cached_property
    def cyclic(self) -> CyclicDecomposition:
        return cyclic_decomposition(self)

    @cached_property
    def pi(self) -> np.ndarray:
        return stationary(self).mass

    def powers(self, m: int) -> list:
        """[I, P, ..., P^m], read-only, by :func:`kernel_powers` for the largest m yet."""
        cached = self.__dict__.get("_powers", [])
        if not 0 <= m < len(cached):
            cached = kernel_powers(self, m)
            for power in cached:
                power.flags.writeable = False
            self.__dict__["_powers"] = cached
        return cached[: m + 1]


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
    """Coerce a charge to a float vector."""
    vals = np.asarray(h, dtype=float)
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


def _complement(n: int, states) -> np.ndarray:
    """The states 0..n-1 not in ``states``, as sorted intp indices."""
    keep = np.ones(n, dtype=bool)
    keep[list(states)] = False
    return np.flatnonzero(keep)


def stationary(chain: FiniteChain) -> Distribution:
    """Unique stationary distribution of a chain with one recurrent class.

    Solves (P^T - I) pi = 0 with the normalization sum(pi) = 1 by a direct
    dense solve on the recurrent class (one balance equation is replaced
    by the normalization row; for an irreducible kernel any row is
    redundant). Transient states receive mass zero. Power iteration is
    deliberately avoided: n is small by design and periodic kernels do
    not converge under it.
    """
    rec = _complement(chain.n, chain.cyclic.transient)
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


def _bfs_levels(adj: np.ndarray, sources) -> np.ndarray:
    """Breadth-first depth of every vertex from ``sources`` along the edges
    adj[u, v]; -1 for vertices never reached."""
    level = np.full(adj.shape[0], -1, dtype=int)
    frontier = np.asarray(sources, dtype=int)
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth
    return level


def _closed_class(adj: np.ndarray, adj_t: np.ndarray, s: int):
    """A closed communicating class reachable from state ``s``.

    Returns BFS levels from a state r of that class (>= 0 exactly on the
    class, which is all r reaches) and the mask of the states that reach r.
    While s reaches a state t that cannot reach s back, s is transient and
    the search moves to t, whose reachable set is strictly smaller; the
    deepest such t is taken, so a path of transient states is crossed in
    one move.
    """
    while True:
        level = _bfs_levels(adj, [s])
        back = _bfs_levels(adj_t, [s]) >= 0
        escape = np.where(back, -1, level)
        if escape.max() < 0:
            return level, back
        s = int(np.argmax(escape))


def cyclic_decomposition(chain: FiniteChain) -> CyclicDecomposition:
    """Period and cyclic classes of the single recurrent class.

    A state is recurrent when every state it reaches also reaches it back;
    its communicating class is then closed. The search starts from state 0
    (:func:`_closed_class`); the states that cannot reach that class hold
    every other closed class, and more than one raises
    MultipleRecurrentClasses. The period is the gcd of cycle lengths in the
    transition digraph, obtained exactly from integer BFS levels: p = gcd
    over edges (u, v) of level(u) + 1 - level(v). Class D_0 contains the
    smallest recurrent state index, and classes are ordered so one-step
    transitions map D_i into D_{i+1 mod p}.
    """
    adj = chain.kernel > 0.0
    adj_t = np.ascontiguousarray(adj.T)
    level, reaches = _closed_class(adj, adj_t, 0)
    closed = 1
    rest = ~reaches  # states that cannot reach the first closed class
    while rest.any():
        _, back = _closed_class(adj, adj_t, int(np.argmax(rest)))
        rest &= ~back
        closed += 1
    if closed != 1:
        raise MultipleRecurrentClasses(
            f"chain has {closed} closed communicating classes; "
            "the stationary distribution is not unique"
        )
    rec = np.flatnonzero(level >= 0)
    u, v = np.nonzero(adj)
    inside = level[u] >= 0
    p = int(np.gcd.reduce(level[u[inside]] + 1 - level[v[inside]])) or 1
    # levels from the search's root, shifted so that rec[0] sits in D_0
    phase = (level - level[rec[0]]) % p
    classes = tuple(frozenset(int(x) for x in rec if phase[x] == r) for r in range(p))
    transient = tuple(int(t) for t in np.flatnonzero(level < 0))
    return CyclicDecomposition(period=p, classes=classes, transient=transient)
