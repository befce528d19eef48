"""Shared builders for the test suite."""

from __future__ import annotations

from degelab import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    SingularAbsorption,
    SolverConfig,
    build_radial_grid,
    grid_function,
)

CFG = SolverConfig()


def poisson_spec(alpha=1.0, amplitude=1.0):
    """gamma = 0, constant coefficient, no absorption, constant datum."""
    return ProblemSpec(3, 1.0, CoefficientSpec(alpha, alpha, 0.0), NoAbsorption(),
                       DatumSpec(ConstantDatum(amplitude), 1.0))


def no_absorption_spec(gamma, amplitude):
    """No absorption, constant datum: the climb has no maximum-principle bound."""
    return ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma), NoAbsorption(),
                       DatumSpec(ConstantDatum(amplitude), 1.0))


def power_spec(gamma, p, m, datum=None, N=3, alpha=1.0):
    datum = datum if datum is not None else ConstantDatum(1.0)
    return ProblemSpec(N, 1.0, CoefficientSpec(alpha, alpha, gamma),
                       PowerAbsorption(p), DatumSpec(datum, m))


def singular_spec(gamma, sigma, amplitude, N=3):
    return ProblemSpec(N, 1.0, CoefficientSpec(1.0, 1.0, gamma),
                       SingularAbsorption(sigma), DatumSpec(ConstantDatum(amplitude), 1.0))


def grid_and_weights(M, N=3, R=1.0, grading=None):
    grid = build_radial_grid(N, R, M, grading)
    return grid, grid.weights


def field(grid, fn):
    return grid_function(grid, fn)


def random_field(grid, rng, scale=1.0):
    return grid_function(grid, rng.normal(0.0, scale, grid.M))
