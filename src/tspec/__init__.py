"""Transmission eigenvalues of the half-line Schrodinger problem.

Library + CLI for computing complex transmission eigenvalues of the
Robin/Dirichlet problem on [0,1], validating them against the asymptotic
distribution formulas, and recovering the Hadamard normalization constant
from eigenvalue data.
"""

__version__ = "0.1.0"

from .potential import Potential, PotentialScalars, derive_scalars, evaluate_q, q_constants
from .charfun import CharFunSample, DEvaluator, sample_D_grid
from .rootfind import ContourBox, Eigenvalue, find_zeros, winding_count
from .asymptotics import index_eigenvalues
from .gamma_recovery import GammaEstimate, HadamardProduct, eval_E, gamma_direct, gamma_from_endpoint, gamma_from_omega, hadamard_product

__all__ = [
    "Potential",
    "PotentialScalars",
    "derive_scalars",
    "evaluate_q",
    "q_constants",
    "CharFunSample",
    "DEvaluator",
    "sample_D_grid",
    "ContourBox",
    "Eigenvalue",
    "find_zeros",
    "index_eigenvalues",
    "winding_count",
    "GammaEstimate",
    "HadamardProduct",
    "eval_E",
    "gamma_direct",
    "gamma_from_endpoint",
    "gamma_from_omega",
    "hadamard_product",
    "__version__",
]
