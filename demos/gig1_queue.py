"""
Single-server queue waiting times
=================================

The Lindley recursion W_{n+1} = max(W_n + Z_n, 0) with Gaussian
increments. The quadratic Lyapunov function v1(x) = max(c1 x^2, 1),
c1 = kappa/(2|EZ|), certifies a one-step minorization on C = [0, x0];
the choice of kappa trades the drift margin against the regeneration
probability lambda.

kappa = 2 gives a small C; kappa = 1.1 shrinks the drift margin so far
that C must reach out to ~13.75, which collapses lambda to ~6e-12: a
split-chain cycle would last ~1.6e11 steps. The certificate and its bound
comparison remain perfectly valid either way. The simulation needs no
split chain: it regenerates at the queue's atom {0} and recovers the
certificate's g* as g_a - phi(g_a) from the atom's solution g_a. It
charges the control h = f - (u - Pu) with the fluid value function
u(x) = x^2/(2|EZ|), which keeps the estimates' means and shrinks their
error bars.
"""

import numpy as np

from markov_poisson import (
    GIG1Model,
    Increment,
    bound_curves,
    build_certificate,
    mc_validate,
)
from markov_poisson.gig1 import drift_spot_check

# ---- comfortable margin: build, bound, and simulate -----------------------
model = GIG1Model(increment=Increment("normal", -0.5, 1.0), kappa=2.0)
cert = build_certificate(model)
print("kappa = 2.0")
print(f"  small set C = [0, {cert.x0}]   lambda = {cert.lam:.6f}   b1 = b2 = {cert.b1:.6f}")
worst = drift_spot_check(cert, 100, np.random.default_rng(0))
print(f"  drift spot check, worst violation: {worst:.2e}")

xs = np.linspace(0.0, 20.0, 201)
curves = bound_curves(cert, xs)
np.savetxt(
    "gig1_curves.txt",
    np.column_stack([xs, curves["ours_upper"], curves["ours_lower"],
                     curves["ours_abs"], curves["competing"]]),
    fmt="%.17g",
    header="x ours_upper ours_lower ours_abs competing",
)
print("  bound curves written to gig1_curves.txt")
print(f"  asymptotic coefficients: ours {curves['ours_asymptotic_coeff']:.4f}"
      f"  vs  a(1+b1) = {curves['competing_asymptotic_coeff']:.4f}")

report = mc_validate(cert, [0.0, 1.0, 2.0, 5.0, 10.0],
                     n_cycles=4000, master_seed=99)
print(f"  pi(f) ratio estimate: {report['pi_f']['estimate']:.4f}"
      f" +- {report['pi_f']['std_error']:.4f}")
print("  regenerative estimates of g*(x) inside the envelope:")
for row in report["points"]:
    print(f"    x={row['x']:5.1f}  g* ~ {row['estimate']:9.4f} +- {row['std_error']:.4f}"
          f"   in [{row['bound_lower']:9.2f}, {row['bound_upper']:8.2f}]"
          f"   inside={row['inside']}")

# ---- thin margin: the same atom, however small lambda is ------------------
model = GIG1Model(increment=Increment("normal", -0.5, 1.0), kappa=1.1)
cert = build_certificate(model)
curves = bound_curves(cert, xs)
print("\nkappa = 1.1")
print(f"  small set C = [0, {cert.x0}]   lambda = {cert.lam:.3e}   b1 = {cert.b1:.6f}")
print(f"  expected steps per split-chain cycle >= 1/lambda = {1 / cert.lam:.2e}")
print(f"  asymptotic coefficients: ours {curves['ours_asymptotic_coeff']:.4f}"
      f"  vs  a(1+b1) = {curves['competing_asymptotic_coeff']:.3e}"
      "   (the quadratic-envelope comparison stays strict)")

report = mc_validate(cert, [0.0, 1.0, 2.0, 5.0, 10.0],
                     n_cycles=4000, master_seed=99)
print(f"  pi(f) ratio estimate: {report['pi_f']['estimate']:.4f}"
      f" +- {report['pi_f']['std_error']:.4f}")
for row in report["points"]:
    print(f"    x={row['x']:5.1f}  g* ~ {row['estimate']:9.4f} +- {row['std_error']:.4f}"
          f"   in [{row['bound_lower']:9.2e}, {row['bound_upper']:8.2e}]"
          f"   inside={row['inside']}")
