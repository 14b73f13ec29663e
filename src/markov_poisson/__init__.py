"""Computable bounds and exact or simulated solutions of Poisson's equation
for Markov chains, built on the regeneration structure of a split chain.

The package namespace holds the names the demos and the README use; every
other public name is imported from its own module (``markov_poisson.bounds``,
``markov_poisson.certify``, ...).
"""

from .bounds import finite_bound_report
from .certify import verify_bundle, verify_potential
from .chain import validate_chain
from .gig1 import GIG1Model, bound_curves, build_certificate, increment_family, mc_validate
from .mc import FiniteChainSampler, estimate_gstar, estimate_pif
from .potential import truncated_potential, verify_truncation_gap
from .split import CycleSystem, hitting

__version__ = "0.1.0"

__all__ = [
    "CycleSystem",
    "FiniteChainSampler",
    "GIG1Model",
    "bound_curves",
    "build_certificate",
    "estimate_gstar",
    "estimate_pif",
    "finite_bound_report",
    "hitting",
    "increment_family",
    "mc_validate",
    "truncated_potential",
    "validate_chain",
    "verify_bundle",
    "verify_potential",
    "verify_truncation_gap",
]
