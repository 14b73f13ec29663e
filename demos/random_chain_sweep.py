"""
Randomized verification sweep
=============================

Draw random ergodic chains, build valid certificates from exact expected
hitting sums, solve Poisson's equation through the regeneration
structure, and tabulate residuals and bound slacks. Everything here is
deterministic given the seed.
"""

import numpy as np

from markov_poisson import (
    CycleSystem,
    finite_bound_report,
    hitting,
    validate_chain,
    verify_bundle,
)

rng = np.random.default_rng(7)

print(f"{'n':>3} {'m':>2} {'|C|':>3} {'lambda':>9} {'poisson':>10} "
      f"{'nu_gap':>10} {'env_slack':>10} {'phi_gstar':>10}")
for trial in range(15):
    n = int(rng.integers(3, 21))
    chain = validate_chain(rng.dirichlet(np.ones(n), size=n))
    f = rng.uniform(0.0, 2.0, size=n)
    m = int(rng.integers(1, 4))
    C = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())

    # hitting-sum Lyapunov functions satisfy the drift inequalities with
    # equality off C, so the minimal constants come out of verification
    _, v1 = hitting(chain, C, f)
    _, v2 = hitting(chain, C, np.ones(n))
    bundle = verify_bundle(chain, f, v1, v2, C, m)

    pi = chain.pi
    system = CycleSystem(chain, bundle)
    g = system.canonical_solution(f)
    residual = np.max(np.abs(chain.kernel @ g - g + (f - pi @ f)))
    nu_gap = np.abs(system.occupation_measure().mass - pi).sum()
    report = finite_bound_report(bundle)
    slack = min((report.envelope_upper - g).min(), (g - report.envelope_lower).min())
    phi_g = bundle.phi.mass @ g
    print(f"{n:>3} {m:>2} {len(C):>3} {bundle.lam:>9.3g} {residual:>10.2e} "
          f"{nu_gap:>10.2e} {slack:>10.3g} {phi_g:>10.2e}")

print("\ncycle-sum bounds on the last instance:")
G_f, tau = system.solve(f), system.tau
cap = bundle.v1 + bundle.b1 * bundle.m / bundle.lam
print("  E_x sum f  <= v1 + b1*m/lambda :",
      np.all(G_f <= cap), f"(worst slack {np.min(cap - G_f):.3g})")
cap_tau = bundle.v2 + bundle.b2 * bundle.m / bundle.lam
print("  E_x tau    <= v2 + b2*m/lambda :",
      np.all(tau <= cap_tau), f"(worst slack {np.min(cap_tau - tau):.3g})")
print("  from phi   :", float(system.phi @ G_f), "<=", report.delta1, "and",
      float(system.phi @ tau), "<=", report.delta2)
