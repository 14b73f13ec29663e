"""
Exact pipeline on a two-state chain
===================================

Certificates, the canonical solution of (P - I)g = -f_c, the occupation
identity, and every bound, all computed in closed form on

    P = [[0.50, 0.50],
         [0.25, 0.75]],   f = (1, 0).
"""

import numpy as np

from markov_poisson import (
    CycleSystem,
    finite_bound_report,
    validate_chain,
    verify_bundle,
    verify_potential,
)

chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
f = np.array([1.0, 0.0])

# Lyapunov pair and small set C = {0}; the one-step minorization there is
# the full row, so lambda = 1 and regeneration happens at every visit.
bundle = verify_bundle(chain, f, v1=[1, 4], v2=[1, 5], C=[0], m=1)
print("certificate:  b1 =", bundle.b1, " b2 =", bundle.b2, " lambda =", bundle.lam)
print("phi =", bundle.phi.mass)

pi = chain.pi
print("\nstationary law:", pi, "  pi(f) =", pi @ f)

# one factored regeneration system serves g*, every cycle sum and nu
system = CycleSystem(bundle)
g = system.canonical_solution(f)
print("canonical solution g* =", g)
print("Poisson residual     =", np.max(np.abs(chain.kernel @ g - g + (f - pi @ f))))

print("\ncycle sums  E_x sum f =", system.solve(f))
print("cycle length E_x tau  =", system.tau, "  from phi:", float(system.phi @ system.tau))

nu = system.occupation_measure().mass
print("occupation law nu     =", nu, " (equals pi)")

pot = verify_potential(bundle, v3=[1, 17], v4=[1, 21])
report = finite_bound_report(bundle, pot)
print("\nbounds:")
print("  delta1, delta2          :", report.delta1, report.delta2)
print("  solution envelope upper :", report.envelope_upper)
print("  solution envelope lower :", report.envelope_lower)
print("  uniform marginal bound  :", report.marginal_bound)
print("  truncation gap bound    :", report.gap_bound_abs)
print("  envelope slack at g*    :", report.envelope_upper - g, g - report.envelope_lower)
