"""Measure-theoretic post-processing and a-priori estimate checkers.

Everything here is a pure function of nodal data and quadrature weights:
Lebesgue norms, superlevel-set measures, weak-Lebesgue (Marcinkiewicz)
constants, log-log tail-exponent fits, and one checker per inequality the
discrete solutions are expected to satisfy.  The checkers reuse the same
face weights and upwinded face coefficients as the assembly, so on a
converged solve the inequalities hold up to the nonlinear-solve residual,
absorbed by the check tolerance (default 1e-4 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    QuadratureWeights,
    face_gradient,
    face_weights,
    truncate,
)
from .problem import (
    ProblemSpec,
    SingularAbsorption,
    lower_order_eval,
    lower_order_inverse,
)
from .solver import face_coefficients, face_upwind_values

__all__ = [
    "DistributionFunction",
    "TailFit",
    "EstimateReport",
    "MarcinkiewiczLemmaReport",
    "lebesgue_norm",
    "distribution_function",
    "marcinkiewicz_constant",
    "tail_exponent_fit",
    "dirichlet_energy",
    "check_lemma_estimate",
    "check_bg_estimate",
    "check_weighted_energy",
    "check_truncation_energy",
    "check_linfty_bound",
    "check_entropy_inequality",
    "default_entropy_test_functions",
    "verify_marcinkiewicz_lemma",
]

TINY = 1e-300
DEFAULT_LEVEL_COUNT = 48
DEFAULT_LEVEL_FLOOR = 1e-3

# Tail-fit window: the top TAIL_WINDOW_FRACTION of the usable levels, at
# least TAIL_MIN_LEVELS of them, each with TAIL_MIN_CELLS nodes above it,
# spanning TAIL_MIN_DECADES decades of k.
TAIL_WINDOW_FRACTION = 0.4
TAIL_MIN_LEVELS = 5
TAIL_MIN_CELLS = 3
TAIL_MIN_DECADES = 1.0


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)


def _weights(w) -> np.ndarray:
    return w.values if isinstance(w, QuadratureWeights) else np.asarray(w, dtype=float)


@dataclass(frozen=True, eq=False)
class DistributionFunction:
    """Superlevel-set measures mu(k) = sum of weights where |u| >= k."""

    k_levels: np.ndarray
    measures: np.ndarray
    counts: np.ndarray      # number of nodes in each superlevel set
    total_measure: float


@dataclass(frozen=True)
class TailFit:
    """Fitted decay mu(k) ~ C k^(-exponent) over a log-log window."""

    exponent: float
    window: tuple[float, float]
    fit_quality: float
    n_levels: int
    sufficient: bool
    reason: str = ""


@dataclass(frozen=True)
class EstimateReport:
    """One checked inequality lhs <= rhs with its slack.

    ``scale`` is the magnitude the tolerance is relative to (|rhs| unless
    rhs can legitimately vanish or change sign, in which case the caller
    passes a sturdier scale); passed means lhs <= rhs + tolerance * scale.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    relative_slack: float
    tolerance: float
    scale: float
    params: tuple[tuple[str, float], ...] = ()


def _report(name, lhs, rhs, tol, scale=None, params=()) -> EstimateReport:
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(rhs), TINY) if scale is None else max(float(scale), TINY)
    return EstimateReport(
        name=name, lhs=lhs, rhs=rhs,
        passed=bool(lhs <= rhs + tol * scale),
        relative_slack=(rhs - lhs) / scale,
        tolerance=float(tol), scale=scale,
        params=tuple((str(k), float(v)) for k, v in params),
    )


def lebesgue_norm(u, s: float, w) -> float:
    """(sum w |u|^s)^(1/s)."""
    if not (s > 0):
        raise ValueError(f"exponent must be positive, got {s}")
    vals, wts = _values(u), _weights(w)
    return float(np.dot(wts, np.abs(vals) ** s) ** (1.0 / s))


def _default_levels(max_abs: float) -> np.ndarray:
    """Log-spaced levels spanning [1e-3, 2 max|u|]."""
    hi = max(2.0 * max_abs, 2.0 * DEFAULT_LEVEL_FLOOR)
    return np.geomspace(DEFAULT_LEVEL_FLOOR, hi, DEFAULT_LEVEL_COUNT)


def distribution_function(u, w, k_levels: np.ndarray | None = None) -> DistributionFunction:
    """Exact discrete superlevel-set measures at the given (or default) levels."""
    vals, wts = np.abs(_values(u)), _weights(w)
    if k_levels is None:
        k_levels = _default_levels(float(vals.max()) if vals.size else 0.0)
    k_levels = np.asarray(k_levels, dtype=float)
    if k_levels.size and (np.any(k_levels <= 0) or np.any(np.diff(k_levels) <= 0)):
        raise ValueError("levels must be positive and strictly increasing")
    order = np.argsort(vals)
    sorted_vals = vals[order]
    tail_weight = np.concatenate((np.cumsum(wts[order][::-1])[::-1], [0.0]))
    idx = np.searchsorted(sorted_vals, k_levels, side="left")
    measures = tail_weight[idx]
    counts = vals.size - idx
    return DistributionFunction(k_levels=k_levels, measures=measures,
                                counts=counts, total_measure=float(wts.sum()))


def marcinkiewicz_constant(df: DistributionFunction, s: float) -> float:
    """Smallest empirical C with mu(k) <= C k^(-s) on the sampled levels."""
    if not (s > 0):
        raise ValueError(f"exponent must be positive, got {s}")
    if df.k_levels.size == 0:
        return 0.0
    return float(np.max(df.k_levels**s * df.measures))


def tail_exponent_fit(df: DistributionFunction) -> TailFit:
    """Least-squares slope of log mu against log k over the upper tail.

    Levels with empty superlevel sets or with fewer than ``TAIL_MIN_CELLS``
    nodes above them are not fit material (the mesh no longer resolves
    the set); of the rest, the top ``TAIL_WINDOW_FRACTION`` by level forms
    the window.  A window with too few levels, spanning less than
    ``TAIL_MIN_DECADES`` decades, or with no decay in mu is reported as an
    insufficient tail instead of producing a meaningless slope.
    """
    eligible = (df.measures > 0) & (df.counts >= TAIL_MIN_CELLS)
    ks = df.k_levels[eligible]
    mus = df.measures[eligible]
    if ks.size < TAIL_MIN_LEVELS:
        return TailFit(np.nan, (np.nan, np.nan), 0.0, int(ks.size), False,
                       f"fewer than {TAIL_MIN_LEVELS} usable levels")
    take = max(int(np.ceil(TAIL_WINDOW_FRACTION * ks.size)), TAIL_MIN_LEVELS)
    ks, mus = ks[-take:], mus[-take:]
    window = (float(ks[0]), float(ks[-1]))
    if np.log10(ks[-1] / ks[0]) < TAIL_MIN_DECADES:
        return TailFit(np.nan, window, 0.0, int(ks.size), False,
                       "window spans less than a decade; solution essentially bounded")
    if mus[0] <= mus[-1]:
        return TailFit(np.nan, window, 0.0, int(ks.size), False,
                       "no decay across the window")
    x, y = np.log(ks), np.log(mus)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    quality = 0.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return TailFit(exponent=float(-slope), window=window, fit_quality=quality,
                   n_levels=int(ks.size), sufficient=True)


def dirichlet_energy(u: GridFunction, k: float | None = None) -> float:
    """Face-weighted squared gradient of u, optionally of its cutoff T_k(u)."""
    v = u if k is None else truncate(u, k)
    grad = face_gradient(v)
    return float(np.dot(face_weights(u.grid), grad**2))


def check_lemma_estimate(u: GridFunction, f_values, p: float, m: float, w,
                         tol: float = 1e-4) -> EstimateReport:
    """Absorption summability against the datum: sum w|u|^(pm) <= sum w|f|^m."""
    wts = _weights(w)
    lhs = float(np.dot(wts, np.abs(_values(u)) ** (p * m)))
    rhs = float(np.dot(wts, np.abs(_values(f_values)) ** m))
    return _report("lemma_estimate", lhs, rhs, tol, params=(("p", p), ("m", m)))


def check_bg_estimate(u: GridFunction, f_values, p: float, t_levels, w,
                      tol: float = 1e-4) -> list[EstimateReport]:
    """Superlevel tail bound: sum_{|u|>t} w|u|^p <= sum_{|u|>t} w|f| per t."""
    vals, fv, wts = _values(u), _values(f_values), _weights(w)
    out = []
    for t in np.asarray(t_levels, dtype=float):
        mask = np.abs(vals) > t
        lhs = float(np.dot(wts[mask], np.abs(vals[mask]) ** p))
        rhs = float(np.dot(wts[mask], np.abs(fv[mask])))
        out.append(_report("bg_estimate", lhs, rhs, tol,
                           scale=max(abs(rhs), float(np.dot(wts, np.abs(fv)))),
                           params=(("t", t), ("p", p))))
    return out


def check_weighted_energy(u: GridFunction, f_values, gamma: float, lam: float,
                          alpha: float, w, tol: float = 1e-4) -> EstimateReport:
    """Weighted energy bound with constant alpha*(lam-1):

        alpha (lam-1) sum_faces wf |grad u|^2 (1 + max adj |u|)^(-gamma-lam)
            <= sum w |f|.

    Follows from testing the discrete equation with the bounded monotone
    function [1 - (1+|s|)^(1-lam)] sgn(s); requires lam > 1.
    """
    if not (lam > 1.0):
        raise ValueError(f"lambda must exceed 1, got {lam}")
    grad = face_gradient(u)
    weight = (1.0 + np.abs(face_upwind_values(u.grid, u.values))) ** (-(gamma + lam))
    lhs = alpha * (lam - 1.0) * float(np.dot(face_weights(u.grid), grad**2 * weight))
    rhs = float(np.dot(_weights(w), np.abs(_values(f_values))))
    return _report("weighted_energy", lhs, rhs, tol,
                   params=(("lambda", lam), ("gamma", gamma)))


def check_truncation_energy(u: GridFunction, f_values, gamma: float, alpha: float,
                            k_levels, w, tol: float = 1e-4) -> list[EstimateReport]:
    """Cutoff energy growth: alpha |grad T_k(u)|^2 <= k (1+k)^gamma |f|_1 per k."""
    f_l1 = float(np.dot(_weights(w), np.abs(_values(f_values))))
    out = []
    for k in np.asarray(k_levels, dtype=float):
        lhs = alpha * dirichlet_energy(u, k=float(k))
        rhs = float(k) * (1.0 + float(k)) ** gamma * f_l1
        out.append(_report("truncation_energy", lhs, rhs, tol, params=(("k", k),)))
    return out


def check_linfty_bound(u: GridFunction, lower: SingularAbsorption,
                       f_values) -> EstimateReport:
    """Barrier-absorption sup bound: 0 <= u <= h^{-1}(|f|_inf), within 1e-8."""
    f_inf = float(np.max(np.abs(_values(f_values))))
    bound = float(lower_order_inverse(lower, f_inf))
    u_max = float(np.max(u.values))
    u_min = float(np.min(u.values))
    passed = (u_max <= bound + 1e-8) and (u_min >= -1e-12)
    scale = max(bound, TINY)
    return EstimateReport(
        name="linfty_bound", lhs=u_max, rhs=bound, passed=passed,
        relative_slack=(bound - u_max) / scale, tolerance=1e-8, scale=scale,
        params=(("u_min", u_min), ("f_inf", f_inf), ("sigma", lower.sigma)),
    )


def default_entropy_test_functions(u: GridFunction) -> list[tuple[str, GridFunction]]:
    """Zero plus a pair of parabolic bumps scaled to half the solution range."""
    grid = u.grid
    out = [("zero", GridFunction(grid, np.zeros(grid.M)))]
    c = 0.5 * u.max_abs()
    if c > 0:
        bump = 1.0 - (grid.nodes / grid.R) ** 2
        out.append(("+bump", GridFunction(grid, c * bump)))
        out.append(("-bump", GridFunction(grid, -c * bump)))
    return out


def check_entropy_inequality(u: GridFunction, spec: ProblemSpec, phi_samples,
                             k_levels, w, tol: float = 1e-4, *,
                             f_values) -> list[EstimateReport]:
    """Inequalities defining the entropy solution notion, sampled over (phi, k):

        sum_f wf a_f grad u . grad T_k(u - phi) + sum w g(u) T_k(u - phi)
            <= sum w f T_k(u - phi)

    with the same upwinded face coefficients as the assembly, for bounded
    phi vanishing at the boundary.  ``phi_samples`` holds (label, phi)
    pairs (default: ``default_entropy_test_functions``).  On a converged
    solve this holds with equality up to the solver residual for every
    test pair.
    """
    grid = u.grid
    wts = _weights(w)
    fv = _values(f_values)
    a_face = face_coefficients(grid, spec.coefficient, u.values, None, "upwind")
    wf = face_weights(grid)
    grad_u = face_gradient(u)
    g_u = lower_order_eval(spec.lower, u.values)
    f_l1 = float(np.dot(wts, np.abs(fv)))

    if phi_samples is None:
        phi_samples = default_entropy_test_functions(u)
    out = []
    for label, phi in phi_samples:
        diff = GridFunction(grid, u.values - phi.values)
        for k in np.asarray(k_levels, dtype=float):
            test = truncate(diff, float(k))
            grad_test = face_gradient(test)
            lhs = float(np.dot(wf, a_face * grad_u * grad_test))
            lhs += float(np.dot(wts, g_u * test.values))
            rhs = float(np.dot(wts, fv * test.values))
            scale = max(abs(rhs), float(k) * f_l1)
            out.append(_report(f"entropy[{label}]", lhs, rhs, tol, scale=scale,
                               params=(("k", k),)))
    return out


@dataclass(frozen=True)
class MarcinkiewiczLemmaReport:
    """Gradient weak-Lebesgue exponent predicted from cutoff energy growth.

    From the solution's own tail exponent s and the growth rate rho of the
    cutoff energy |grad T_k(u)|^2 ~ k^rho, the gradient must lie in
    weak-L^(2s/(rho+s)); ``measured`` is the fitted tail exponent of the
    face gradient, which passes if it is at least predicted*(1 - tol).
    """

    applicable: bool
    reason: str = ""
    s_exponent: float = np.nan
    rho_exponent: float = np.nan
    predicted: float = np.nan
    measured: float = np.nan
    passed: bool = False
    u_fit: TailFit | None = None
    grad_fit: TailFit | None = None


def verify_marcinkiewicz_lemma(u: GridFunction, w,
                               tol_exponent: float = 0.15) -> MarcinkiewiczLemmaReport:
    """Check the cutoff-energy route to the gradient's weak-Lebesgue class."""
    df_u = distribution_function(u, w)
    u_fit = tail_exponent_fit(df_u)
    if not u_fit.sufficient:
        return MarcinkiewiczLemmaReport(applicable=False,
                                        reason=f"insufficient tail in u: {u_fit.reason}",
                                        u_fit=u_fit)
    window_mask = (df_u.k_levels >= u_fit.window[0]) & (df_u.k_levels <= u_fit.window[1])
    ks = df_u.k_levels[window_mask]
    energies = np.array([dirichlet_energy(u, k=float(k)) for k in ks])
    positive = energies > 0
    if np.count_nonzero(positive) < 3:
        return MarcinkiewiczLemmaReport(applicable=False,
                                        reason="cutoff energies vanish on the window",
                                        u_fit=u_fit)
    rho = float(np.polyfit(np.log(ks[positive]), np.log(energies[positive]), 1)[0])
    s = u_fit.exponent
    predicted = 2.0 * s / (rho + s)

    grad = np.abs(face_gradient(u))
    wf = face_weights(u.grid)
    df_g = distribution_function(grad, wf)
    grad_fit = tail_exponent_fit(df_g)
    if not grad_fit.sufficient:
        return MarcinkiewiczLemmaReport(applicable=False,
                                        reason=f"insufficient tail in grad u: {grad_fit.reason}",
                                        s_exponent=s, rho_exponent=rho,
                                        predicted=predicted, u_fit=u_fit,
                                        grad_fit=grad_fit)
    measured = grad_fit.exponent
    return MarcinkiewiczLemmaReport(
        applicable=True, s_exponent=s, rho_exponent=rho, predicted=predicted,
        measured=measured, passed=bool(measured >= predicted * (1.0 - tol_exponent)),
        u_fit=u_fit, grad_fit=grad_fit,
    )
