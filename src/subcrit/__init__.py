"""Subcriticality certificates and phase-transition numerics.

The package computes the boundary functional phi(S) for Bernoulli bond
percolation and the ferromagnetic Ising model on translation-invariant
lattices, turns phi < 1 into machine-checkable subcriticality certificates
with explicit susceptibility and exponential-decay consequences, and
cross-examines the certified bounds with Monte Carlo, exact enumeration,
and a truncated random-current laboratory.
"""

__version__ = "0.1.0"

from .certificates import (
    BestBound,
    Certificate,
    PhiResult,
    Refusal,
    best_bound,
    certify_subcritical,
    chi_upper_bound,
    compute_phi,
    critical_root,
    decay_upper_bound,
    exact_phi,
)
from .errors import (
    CapExceeded,
    ConfigError,
    DegenerateFit,
    NoPath,
    NoRoot,
    StateSpaceTooLarge,
    SubcritError,
)
from .lattice import LatticeSpec, Region, ball, edge_weight, translate_region

__all__ = [
    "__version__",
    "BestBound",
    "CapExceeded",
    "Certificate",
    "ConfigError",
    "DegenerateFit",
    "LatticeSpec",
    "NoPath",
    "NoRoot",
    "PhiResult",
    "Refusal",
    "Region",
    "StateSpaceTooLarge",
    "SubcritError",
    "ball",
    "best_bound",
    "certify_subcritical",
    "chi_upper_bound",
    "compute_phi",
    "critical_root",
    "decay_upper_bound",
    "edge_weight",
    "exact_phi",
    "translate_region",
]
