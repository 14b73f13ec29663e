"""
Regenerative Monte Carlo against exact values
=============================================

Cycles are simulated with the split chain run forward: walk to the
small set, take m ordinary steps from there, and regenerate with
probability lambda phi(y) / P^m(x, y) at the segment's endpoint y
(always, with no draw, when lambda = 1). Cycles run side by side in
numpy lanes, and every cycle owns a counter-based stream keyed by
(master seed, cycle index), so estimates reproduce bitwise.
"""

import numpy as np

from markov_poisson import (
    CycleSystem,
    FiniteChainSampler,
    gstar_from_cycles,
    pif_from_cycles,
    run_cycles,
    validate_chain,
    verify_bundle,
)

chain = validate_chain([[0.5, 0.5], [0.25, 0.75]])
f = np.array([1.0, 0.0])
pi_f = float(chain.pi @ f)

for m, label in [(1, "one-step regeneration"), (2, "two-step segments")]:
    bundle = verify_bundle(chain, f, [1, 4], [1, 5], [0], m)
    system = CycleSystem(bundle)
    exact = system.canonical_solution(f)
    tau = system.tau
    sc = FiniteChainSampler(bundle, f)

    # a block of cycles from state 1 estimates g*(1); a block from phi, pi(f)
    est = gstar_from_cycles(*run_cycles(sc, [1], n_cycles=50_000, master_seed=2024), pi_f)
    again = gstar_from_cycles(*run_cycles(sc, [1], n_cycles=50_000, master_seed=2024), pi_f)
    print(f"{label} (m={m}, lambda={bundle.lam:g})")
    print(f"  g*(1) exact {exact[1]:+.6f}   mc {est.point:+.6f} +- {est.std_error:.6f}"
          f"   reproducible: {est.point == again.point}")
    pif = pif_from_cycles(*run_cycles(sc, [None], n_cycles=50_000, master_seed=7))
    print(f"  pi(f) exact {pi_f:.6f}   ratio estimator {pif.point:.6f} +- {pif.std_error:.6f}")
    print(f"  E_1 tau exact {tau[1]:g}\n")

# a coin that can fail: C = {0, 1} gives lambda = 3/4 < 1
bundle = verify_bundle(chain, f, [1, 4], [1, 5], [0, 1], 1)
exact = CycleSystem(bundle).canonical_solution(f)
sc = FiniteChainSampler(bundle, f)
est = gstar_from_cycles(*run_cycles(sc, [1], n_cycles=50_000, master_seed=11), pi_f)
print(f"coin-toss scheme (lambda={bundle.lam:g})")
print(f"  g*(1) exact {exact[1]:+.6f}   mc {est.point:+.6f} +- {est.std_error:.6f}")
print("  (the two schemes normalize g* differently; each matches its own exact value)")
