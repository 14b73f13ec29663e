"""
Truncated potential sums and their gap from the canonical solution
==================================================================

The block-truncated potential g_tilde = lim_n sum_{i<np} P^i f_c, with p
the chain period, is computed by one linear solve with P^p. It differs
from the canonical solution g* by a constant on each cyclic class:

* aperiodic chains: one global constant, -pi(g*), and g_tilde is itself
  a solution of (P - I)g = -f_c;
* periodic chains: one constant per class (the negative class-conditioned
  stationary average of g*), so g_tilde solves the one-step equation only
  when those constants happen to agree.
"""

import numpy as np

from markov_poisson import (
    CycleSystem,
    hitting,
    truncated_potential,
    validate_chain,
    verify_bundle,
    verify_potential,
    verify_truncation_gap,
)

# ---- aperiodic: the two-state example ------------------------------------
chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
f = np.array([1.0, 0.0])
bundle = verify_bundle(chain, f, [1, 4], [1, 5], [0], 1)
pot_cert = verify_potential(chain, bundle, [1, 17], [1, 21])

result = truncated_potential(chain, f, p=1)
g = CycleSystem(chain, bundle).canonical_solution(f)
pi = chain.pi
print("aperiodic two-state chain")
print("  g_tilde =", result.g_tilde, f" (solve residual {result.residual:.1e})")
print("  g*      =", g)
print("  gap     =", result.g_tilde - g, "  -pi(g*) =", -(pi @ g))
report = verify_truncation_gap(chain, bundle, pot_cert, g, result)
print("  gap bound:", report["bound_abs"], " slack:", report["slack_abs"])

# ---- periodic: two dense classes, period 2 --------------------------------
rng = np.random.default_rng(1)
P = np.zeros((4, 4))
P[0, 2:] = rng.dirichlet([1, 1])
P[1, 2:] = rng.dirichlet([1, 1])
P[2, :2] = rng.dirichlet([1, 1])
P[3, :2] = rng.dirichlet([1, 1])
chain = validate_chain(P)
f = rng.uniform(0, 2, 4)
decomp = chain.cyclic
print("\nperiodic chain, period", decomp.period, "classes", [sorted(c) for c in decomp.classes])

_, v1 = hitting(chain, [0], f)
_, v2 = hitting(chain, [0], np.ones(4))
bundle = verify_bundle(chain, f, v1, v2, [0], 1)
g = CycleSystem(chain, bundle).canonical_solution(f)
result = truncated_potential(chain, f, p=2)
gap = result.g_tilde - g
pi = chain.pi
print("  gap by state:", np.round(gap, 6))
for i, cls in enumerate(decomp.classes):
    members = sorted(cls)
    cond = pi[members] / pi[members].sum()
    print(f"  class D{i}: gap {gap[members[0]]:+.6f}  -pi_i(g*) {-(cond @ g[members]):+.6f}")
one_step = np.max(np.abs(chain.kernel @ result.g_tilde - result.g_tilde + (f - pi @ f)))
print("  one-step equation residual of g_tilde:", f"{one_step:.3g}",
      "(nonzero: the class constants differ)")
