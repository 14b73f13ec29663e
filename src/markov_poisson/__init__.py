"""Computable bounds and exact or simulated solutions of Poisson's equation
for Markov chains, built on the regeneration structure of a split chain.

The package namespace holds the names the demos and the README use; every
other public name is imported from its own module (``markov_poisson.bounds``,
``markov_poisson.certify``, ...).
"""

from .bounds import finite_bound_report
from .certify import verify_bundle, verify_potential
from .chain import validate_chain
from .gig1 import GIG1Model, Increment, bound_curves, build_certificate, mc_validate
from .mc import FiniteChainSampler, gstar_from_cycles, pif_from_cycles, run_cycles
from .potential import truncated_potential, verify_truncation_gap
from .split import CycleSystem, hitting

__version__ = "0.1.0"

__all__ = [
    "CycleSystem",
    "FiniteChainSampler",
    "GIG1Model",
    "Increment",
    "bound_curves",
    "build_certificate",
    "finite_bound_report",
    "gstar_from_cycles",
    "hitting",
    "mc_validate",
    "pif_from_cycles",
    "run_cycles",
    "truncated_potential",
    "validate_chain",
    "verify_bundle",
    "verify_potential",
    "verify_truncation_gap",
]
