"""Computable bounds and exact or simulated solutions of Poisson's equation
for Markov chains, built on the regeneration structure of a split chain."""

from .bounds import (
    BoundReport,
    delta_bounds,
    finite_bound_report,
    envelope_comparison,
    uniform_marginal_bound,
    solution_envelope,
    truncation_gap_bounds,
)
from .certify import (
    CertificateBundle,
    DriftCertificate,
    PotentialCertificate,
    SmallSetCertificate,
    minorize,
    verify_bundle,
    verify_drift,
    verify_potential,
)
from .chain import (
    CyclicDecomposition,
    Distribution,
    FiniteChain,
    StateFunction,
    cyclic_decomposition,
    kernel_power,
    stationary,
    validate_chain,
)
from .gig1 import GIG1Certificate, GIG1Model, bound_curves, build_certificate, find_x0, mc_validate
from .mc import FiniteChainSampler, MCEstimate, estimate_gstar, estimate_pif
from .potential import PotentialResult, truncated_potential, verify_truncation_gap
from .split import (
    CycleSystem,
    CycleValues,
    canonical_solution,
    cycle_values,
    hitting,
    marginal_curve,
    occupation_measure,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificateBundle",
    "CycleSystem",
    "CycleValues",
    "CyclicDecomposition",
    "Distribution",
    "DriftCertificate",
    "FiniteChain",
    "FiniteChainSampler",
    "GIG1Certificate",
    "GIG1Model",
    "MCEstimate",
    "PotentialCertificate",
    "PotentialResult",
    "SmallSetCertificate",
    "StateFunction",
    "bound_curves",
    "build_certificate",
    "canonical_solution",
    "cycle_values",
    "cyclic_decomposition",
    "delta_bounds",
    "estimate_gstar",
    "estimate_pif",
    "find_x0",
    "finite_bound_report",
    "hitting",
    "envelope_comparison",
    "kernel_power",
    "marginal_curve",
    "mc_validate",
    "minorize",
    "occupation_measure",
    "uniform_marginal_bound",
    "stationary",
    "solution_envelope",
    "truncation_gap_bounds",
    "truncated_potential",
    "validate_chain",
    "verify_bundle",
    "verify_drift",
    "verify_potential",
    "verify_truncation_gap",
]
