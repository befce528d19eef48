"""Continuous problem data and regularity-regime classification.

The equation under study is

    -div(a(r, u) grad u) + g(u) = f   on the ball of radius R in R^N,
    u = 0                             on the boundary,

with a diffusion coefficient a(r, s) = b(r) * alpha / (1 + |s|)^gamma that
loses ellipticity as |s| grows, an optional absorption term g (a power
|s|^(p-1) s or a singular barrier s/(sigma - s)), and a radial datum f
claimed to lie in L^m.  Which function space the solution lands in is
decided by (gamma, p, m) alone; :func:`classify_regime` encodes the case
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad

from .grid import sphere_surface

__all__ = [
    "CoefficientSpec",
    "NoAbsorption",
    "PowerAbsorption",
    "SingularAbsorption",
    "LowerOrderTerm",
    "ConstantDatum",
    "RadialPowerDatum",
    "BumpDatum",
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
    "classify_regime",
    "baseline_exponents",
]


@dataclass(frozen=True)
class CoefficientSpec:
    """Degenerate diffusion coefficient family.

    ``alpha`` is the ellipticity floor, ``beta`` the global upper bound and
    ``gamma`` the degeneracy exponent.  An optional bounded radial factor
    b(r) with declared bounds 1 <= b_min <= b(r) <= b_max may scale the
    sharp profile; the declared bounds keep alpha/(1+|s|)^gamma <= a <= beta
    checkable.
    """

    alpha: float
    beta: float
    gamma: float
    spatial_factor: Callable[[np.ndarray], np.ndarray] | None = None
    spatial_bounds: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.alpha > self.beta:
            raise ValueError(f"alpha={self.alpha} must not exceed beta={self.beta}")
        b_min, b_max = self.spatial_bounds
        if self.spatial_factor is not None:
            if not (1.0 <= b_min <= b_max):
                raise ValueError("spatial factor bounds must satisfy 1 <= b_min <= b_max")
            if self.alpha * b_max > self.beta * (1 + 1e-12):
                raise ValueError("alpha * b_max must not exceed beta")


def coefficient_eval(spec: CoefficientSpec, r, s):
    """Evaluate a(r, s); accepts scalars or arrays elementwise."""
    base = spec.alpha / (1.0 + np.abs(s)) ** spec.gamma
    if spec.spatial_factor is not None:
        base = base * spec.spatial_factor(np.asarray(r, dtype=float))
    return base


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


@dataclass(frozen=True)
class BumpDatum:
    """Gaussian shell f(r) = amplitude * exp(-((r - center)/width)^2)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")


DatumFamily = Union[ConstantDatum, RadialPowerDatum, BumpDatum]


@dataclass(frozen=True)
class DatumSpec:
    """A datum family together with its claimed Lebesgue class m."""

    family: DatumFamily
    m: float = 1.0

    def __post_init__(self):
        if not (self.m >= 1):
            raise ValueError(f"Lebesgue class m must be >= 1, got {self.m}")

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
    elif isinstance(fam, BumpDatum):
        out = fam.amplitude * np.exp(-(((r - fam.center) / fam.width) ** 2))
    else:
        raise TypeError(f"unknown datum family {fam!r}")
    return out if out.ndim else float(out)


def datum_norm_exact(spec: DatumSpec, m: float, N: int, R: float) -> float:
    """Exact integral of |f|^m over the ball, or inf when it diverges.

    Closed forms for the constant and radial power families; the bump
    family falls back to adaptive quadrature of the radial profile.
    """
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
    if isinstance(fam, BumpDatum):
        val, _ = quad(
            lambda r: abs(fam.amplitude * math.exp(-(((r - fam.center) / fam.width) ** 2))) ** m
            * r ** (N - 1),
            0.0, R, limit=200,
        )
        return omega * val
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
            raise ValueError(f"dimension must be an integer >= 3, got {self.dimension}")
        if not (self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if isinstance(self.lower, SingularAbsorption) and self.datum.amplitude < 0:
            raise ValueError("singular absorption requires a nonnegative datum")


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
