"""Radial finite-difference laboratory for degenerate-coercivity problems.

Solves -div(a(u) grad u) + g(u) = f on the N-dimensional ball with a
diffusion coefficient that decays like (1+|u|)^(-gamma), via truncation
continuation, and checks the a-priori estimates, entropy inequalities and
weak-Lebesgue tail predictions the discrete solutions must satisfy.

The package namespace holds what a quickstart needs: problem data, the
grid, the solver and one checker.  Everything else is imported from its
submodule (``degelab.experiments``, ``degelab.analysis``, ...).
"""

from .grid import build_radial_grid, grid_function
from .problem import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    SingularAbsorption,
    datum_eval,
)
from .solver import SolverConfig, truncation_continuation
from .analysis import check_lemma_estimate

__all__ = [
    "CoefficientSpec",
    "ConstantDatum",
    "DatumSpec",
    "NoAbsorption",
    "PowerAbsorption",
    "ProblemSpec",
    "RadialPowerDatum",
    "SingularAbsorption",
    "SolverConfig",
    "build_radial_grid",
    "check_lemma_estimate",
    "datum_eval",
    "grid_function",
    "truncation_continuation",
    "__version__",
]

__version__ = "0.1.0"
