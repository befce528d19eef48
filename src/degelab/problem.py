"""Continuous problem data and regularity-regime classification.

The equation under study is

    -div(a(u) grad u) + g(u) = f   on the ball of radius R in R^N,
    u = 0                          on the boundary,

with the diffusion coefficient a(s) = alpha / (1 + |s|)^gamma, which
loses ellipticity as |s| grows and is the sharp case of the paper's
alpha/(1+|s|)^gamma <= a(x, s) <= beta; an optional absorption term g (a
power |s|^(p-1) s or a singular barrier s/(sigma - s)); and a radial
datum f, constant or a radial power, claimed to lie in L^m.  Which
function space the solution lands in is decided by (gamma, p, m) alone;
:func:`classify_regime` encodes the case boundaries.

Every spec is plain data: each field is a number, a string or another
spec, so specs compare and hash by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

import numpy as np

from .grid import sphere_surface

__all__ = [
    "CoefficientSpec",
    "NoAbsorption",
    "PowerAbsorption",
    "SingularAbsorption",
    "LowerOrderTerm",
    "ConstantDatum",
    "RadialPowerDatum",
    "DatumFamily",
    "DatumSpec",
    "ProblemSpec",
    "RegimeCase",
    "GradientSpace",
    "RegimePrediction",
    "BaselineExponents",
    "BoundedRegimeError",
    "coefficient_eval",
    "lower_order_eval",
    "lower_order_inverse",
    "datum_eval",
    "datum_norm_exact",
    "datum_in_class",
    "replace_unchecked",
    "classify_regime",
    "baseline_exponents",
]


@dataclass(frozen=True)
class CoefficientSpec:
    """Degenerate diffusion coefficient a(s) = alpha / (1 + |s|)^gamma.

    ``alpha`` is the ellipticity floor and ``gamma`` the degeneracy
    exponent.  ``beta`` is the paper's upper bound a <= beta; since
    a <= alpha <= beta, this family always meets it.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (0 < self.beta < math.inf):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.alpha > self.beta:
            raise ValueError(f"alpha={self.alpha} must not exceed beta={self.beta}")


def coefficient_eval(spec: CoefficientSpec, s):
    """Evaluate a(s); accepts scalars or arrays elementwise."""
    return spec.alpha / (1.0 + np.abs(s)) ** spec.gamma


@dataclass(frozen=True)
class NoAbsorption:
    """Absent lower-order term, g = 0."""


@dataclass(frozen=True)
class PowerAbsorption:
    """Odd power absorption g(s) = |s|^(p-1) s."""

    p: float

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError(f"power exponent p must be positive, got {self.p}")


@dataclass(frozen=True)
class SingularAbsorption:
    """Barrier absorption h(s) = s/(sigma - s) on [0, sigma).

    Increasing, continuous, h(0) = 0 and h(s) -> +inf as s -> sigma-, and
    analytically invertible, which gives exact sup-norm bounds.
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


LowerOrderTerm = Union[NoAbsorption, PowerAbsorption, SingularAbsorption]


def lower_order_eval(term: LowerOrderTerm, s):
    """Evaluate the absorption term g(s) elementwise.

    The singular kind is only defined on [0, sigma); values outside raise.
    """
    s = np.asarray(s, dtype=float)
    if isinstance(term, NoAbsorption):
        out = np.zeros_like(s)
    elif isinstance(term, PowerAbsorption):
        out = np.sign(s) * np.abs(s) ** term.p
    elif isinstance(term, SingularAbsorption):
        if np.any(s < 0) or np.any(s >= term.sigma):
            raise ValueError(
                f"singular absorption requires 0 <= s < sigma={term.sigma}"
            )
        out = s / (term.sigma - s)
    else:
        raise TypeError(f"unknown lower-order term {term!r}")
    return out if out.ndim else float(out)


def lower_order_inverse(term: SingularAbsorption, y):
    """Invert the barrier: the s in [0, sigma) with s/(sigma - s) = y."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("inverse is defined for nonnegative values only")
    out = y * term.sigma / (1.0 + y)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ConstantDatum:
    amplitude: float


@dataclass(frozen=True)
class RadialPowerDatum:
    """f(r) = amplitude * r^(-delta), singular at the origin."""

    amplitude: float
    delta: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")


DatumFamily = Union[ConstantDatum, RadialPowerDatum]


@dataclass(frozen=True)
class DatumSpec:
    """A datum family together with its claimed Lebesgue class m."""

    family: DatumFamily
    m: float = 1.0

    def __post_init__(self):
        if not (self.m >= 1):
            raise ValueError(f"Lebesgue class m must be >= 1, got {self.m}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"datum amplitude must be finite, got {self.amplitude}")

    @property
    def amplitude(self) -> float:
        return self.family.amplitude


def datum_eval(spec: DatumSpec, r):
    """Pointwise datum value at radius r (elementwise on arrays)."""
    fam = spec.family
    r = np.asarray(r, dtype=float)
    if isinstance(fam, ConstantDatum):
        out = np.full_like(r, fam.amplitude)
    elif isinstance(fam, RadialPowerDatum):
        if np.any(r <= 0):
            raise ValueError(
                "radial power datum is singular at the origin; "
                "evaluate at cell centers only (r > 0)"
            )
        out = fam.amplitude * r ** (-fam.delta)
    else:
        raise TypeError(f"unknown datum family {fam!r}")
    return out if out.ndim else float(out)


def datum_norm_exact(spec: DatumSpec, m: float, N: int, R: float) -> float:
    """Exact integral of |f|^m over the ball, or inf when it diverges."""
    if not (m >= 1):
        raise ValueError(f"m must be >= 1, got {m}")
    omega = sphere_surface(N)
    fam = spec.family
    if isinstance(fam, ConstantDatum):
        return abs(fam.amplitude) ** m * omega * R**N / N
    if isinstance(fam, RadialPowerDatum):
        if fam.delta * m >= N:
            return math.inf
        power = N - fam.delta * m
        return abs(fam.amplitude) ** m * omega * R**power / power
    raise TypeError(f"unknown datum family {fam!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Full continuous problem: geometry, coefficient, absorption, datum."""

    dimension: int
    radius: float
    coefficient: CoefficientSpec
    lower: LowerOrderTerm = field(default_factory=NoAbsorption)
    datum: DatumSpec = field(default_factory=lambda: DatumSpec(ConstantDatum(1.0)))

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 3:
            raise ValueError(f"dimension N must be an integer >= 3, got {self.dimension}")
        if not (0 < self.radius < math.inf):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if isinstance(self.lower, SingularAbsorption) and self.datum.amplitude < 0:
            raise ValueError("singular absorption requires a nonnegative datum")


def datum_in_class(spec: ProblemSpec) -> bool:
    """Whether the datum lies in the L^m it claims (for A r^(-delta): delta*m < N).

    A claim, not a precondition of solving.  The norm is taken of the unit
    amplitude on the unit ball, in the same L^m, so that no float overflow
    counts as divergence."""
    unit = replace(spec.datum, family=replace(spec.datum.family, amplitude=1.0))
    return datum_norm_exact(unit, unit.m, spec.dimension, 1.0) < math.inf


def replace_unchecked(spec, **changes):
    """``dataclasses.replace`` without the constructor's checks.  Only a report
    of a broken rule holds its result, to show the values that broke it."""
    new = object.__new__(type(spec))
    new.__dict__.update(vars(spec), **changes)
    return new


class RegimeCase(Enum):
    DISTRIBUTIONAL_SOBOLEV = "distributional_sobolev"
    ENTROPY = "entropy"
    FINITE_ENERGY = "finite_energy"


class GradientSpace(Enum):
    SOBOLEV_STRICT = "sobolev_strict"  # W^{1,s} for s below (m=1) or at (m>1) the exponent
    MARCINKIEWICZ = "marcinkiewicz"    # weak-L^s membership of |grad u|
    H1 = "h1"                          # finite energy


@dataclass(frozen=True)
class RegimePrediction:
    """Expected solution notion and integrability exponents."""

    case: RegimeCase
    lebesgue_exponent: float
    gradient_exponent: float
    gradient_space: GradientSpace


def classify_regime(gamma: float, p: float, m: float) -> RegimePrediction:
    """Place (gamma, p, m) in its regularity regime.

    For m = 1: p > gamma + 1 gives a distributional solution with
    |grad u| in L^s for s < 2p/(gamma+1+p); otherwise an entropy solution
    with |grad u| in weak-L^(2p/(gamma+1+p)).  For m > 1 the boundaries
    are p = (gamma+1)/(m-1) (finite energy at and above) and
    p = gamma/(m-1) (entropy at and below, owning the boundary).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    if not (m >= 1):
        raise ValueError(f"m must be >= 1, got {m}")

    sobolev_exp = 2.0 * p * m / (gamma + 1.0 + p)
    if m == 1.0:
        if p > gamma + 1.0:
            return RegimePrediction(RegimeCase.DISTRIBUTIONAL_SOBOLEV, p * m,
                                    sobolev_exp, GradientSpace.SOBOLEV_STRICT)
        return RegimePrediction(RegimeCase.ENTROPY, p * m,
                                sobolev_exp, GradientSpace.MARCINKIEWICZ)

    if p >= (gamma + 1.0) / (m - 1.0):
        return RegimePrediction(RegimeCase.FINITE_ENERGY, p * m, 2.0, GradientSpace.H1)
    if p > gamma / (m - 1.0):
        return RegimePrediction(RegimeCase.DISTRIBUTIONAL_SOBOLEV, p * m,
                                sobolev_exp, GradientSpace.SOBOLEV_STRICT)
    return RegimePrediction(RegimeCase.ENTROPY, p * m,
                            sobolev_exp, GradientSpace.MARCINKIEWICZ)


class BoundedRegimeError(ValueError):
    """Raised when m > N/2 puts the no-absorption baseline in L^infinity."""


@dataclass(frozen=True)
class BaselineExponents:
    """No-absorption reference exponents and the m-thresholds between cases."""

    r: float
    q: float
    m_threshold_low: float
    m_threshold_mid: float


def baseline_exponents(gamma: float, m: float, N: int) -> BaselineExponents:
    """Reference exponents r, q for the problem without absorption.

    r = N m (1-gamma)/(N - 2m) bounds |u|^s integrability and
    q = N m (1-gamma)/(N - m(1+gamma)) the gradient's; the two thresholds
    are the m values where the baseline switches case.  For m > N/2 the
    baseline solution is bounded and the exponents lose meaning.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if not (m >= 1):
        raise ValueError(f"m must be >= 1, got {m}")
    if 2 * m > N:
        raise BoundedRegimeError(
            f"m={m} > N/2={N / 2}: bounded regime, baseline exponents do not apply"
        )
    if 2 * m == N or m * (1 + gamma) == N:
        raise ValueError("degenerate denominator in baseline exponents")
    r = N * m * (1.0 - gamma) / (N - 2.0 * m)
    q = N * m * (1.0 - gamma) / (N - m * (1.0 + gamma))
    low = N / (N + 1.0 - gamma * (N - 1.0))
    mid = 2.0 * N / (N * (1.0 - gamma) + 2.0 * (gamma + 1.0))
    return BaselineExponents(r=r, q=q, m_threshold_low=low, m_threshold_mid=mid)
