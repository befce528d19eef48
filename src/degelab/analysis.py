"""Measure-theoretic post-processing and a-priori estimate checkers.

Everything here is a pure function of nodal data and the grid's weights:
superlevel-set measures, log-log tail-exponent fits, and one checker per
inequality the discrete solutions are expected to satisfy.  The checkers
reuse the assembly's face weights, and the entropy checker the face
coefficients of the solved discrete problem, so on a converged solve its
identity holds up to the nonlinear-solve residual, absorbed by the audit's
tolerance ``CHECK_TOLERANCE`` (the Marcinkiewicz gate's is ``TAIL_TOLERANCE``).
The energy checkers need only the upwind coefficient as a lower bound, and
no arithmetic face falls below it.

A checker sampled over cutoff levels k clips the field at a block of
levels in one array and takes the block's face gradients at once
(``_cutoff_blocks``; on meshes up to a few hundred cells one block holds
every level).  Each level's sums are still single dot products in the
order of the per-level formula, so every value is bit-identical to
truncating and differencing level by level.
The weighted-energy checker likewise shares one face gradient across all
its exponents lambda.  The level grids and line fits are exact
re-implementations of ``np.geomspace`` and ``np.polyfit(x, y, 1)``: the
same float operations in the same order without numpy's argument
handling, so their results equal numpy's bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (
    GridFunction,
    RadialGrid,
    face_differences,
    face_gradient,
    face_upwind_values,
)
from .problem import SingularAbsorption, lower_order_eval, lower_order_inverse

__all__ = [
    "DistributionFunction",
    "TailFit",
    "EstimateReport",
    "MarcinkiewiczLemmaReport",
    "distribution_function",
    "tail_exponent_fit",
    "check_lemma_estimate",
    "check_bg_estimate",
    "check_weighted_energy",
    "check_truncation_energy",
    "check_linfty_bound",
    "check_entropy_inequality",
    "verify_marcinkiewicz_lemma",
]

# The relative slack every inequality is audited with, and the shortfall of
# the measured gradient tail that the Marcinkiewicz gate allows, relative to
# the prediction.
CHECK_TOLERANCE = 1e-4
TAIL_TOLERANCE = 0.15
# The barrier's sup bound is audited in absolute terms: max u may exceed
# h^{-1}(|f|_inf) by LINFTY_TOLERANCE and min u fall below 0 by LINFTY_FLOOR.
LINFTY_TOLERANCE = 1e-8
LINFTY_FLOOR = 1e-12

TINY = 1e-300
EPS = np.finfo(float).eps
DEFAULT_LEVEL_COUNT = 48
DEFAULT_LEVEL_FLOOR = 1e-3

# Tail-fit window: the top TAIL_WINDOW_FRACTION of the usable levels, at
# least TAIL_MIN_LEVELS of them, each with TAIL_MIN_CELLS nodes above it,
# spanning TAIL_MIN_DECADES decades of k.
TAIL_WINDOW_FRACTION = 0.4
TAIL_MIN_LEVELS = 5
TAIL_MIN_CELLS = 3
TAIL_MIN_DECADES = 1.0

# Gradient bytes of one block of cutoff levels (see _cutoff_blocks).  Every
# temporary of a block then stays below glibc's 128 KiB mmap threshold, so it
# reuses heap memory instead of mapping and faulting in fresh pages per call.
CUTOFF_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True, eq=False)
class DistributionFunction:
    """Superlevel-set measures mu(k) = sum of weights where |u| >= k."""

    k_levels: np.ndarray
    measures: np.ndarray
    counts: np.ndarray      # number of nodes in each superlevel set


@dataclass(frozen=True)
class TailFit:
    """Fitted decay mu(k) ~ C k^(-exponent) over a log-log window."""

    exponent: float
    window: tuple[float, float]
    fit_quality: float
    n_levels: int
    sufficient: bool
    reason: str = ""


class EstimateReport(NamedTuple):
    """One checked inequality lhs <= rhs with its slack.

    ``scale`` is the magnitude the tolerance is relative to (|rhs| unless
    rhs can legitimately vanish or change sign, in which case the caller
    passes a sturdier scale); passed means lhs <= rhs + tolerance * scale.

    A named tuple, not a frozen dataclass: an audit builds dozens per run,
    and a tuple builds several times faster.  It is as immutable, and its
    ``repr`` (which ``scripts/record_digest.py`` hashes) is the same text.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    relative_slack: float
    tolerance: float
    scale: float
    params: tuple[tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        """The check's name in records.csv and the CLI: ``name(k=v,...)``,
        or just ``name`` without params."""
        if not self.params:
            return self.name
        return f"{self.name}({','.join(f'{k}={v:.6g}' for k, v in self.params)})"


def _report(name, lhs, rhs, tol: float, scale=None, params=()) -> EstimateReport:
    """``tol`` and every value of ``params`` must already be Python floats."""
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(rhs), TINY) if scale is None else max(float(scale), TINY)
    return EstimateReport(name, lhs, rhs, lhs <= rhs + tol * scale,
                          (rhs - lhs) / scale, tol, scale, params)


def geomspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.geomspace(start, stop, num)`` for positive ends and num >= 2.

    numpy's float operations in numpy's order: log10 of both ends, the
    linspace ``arange(num) * step + log10(start)`` with its last entry set
    to log10(stop), ``10 ** y``, and both ends restored.  numpy's branch for
    a zero step is left out: the step of two log10 values is zero only when
    they are equal, and then both branches give zeros.
    """
    if not (start > 0 and stop > 0):
        raise ValueError(f"geometric levels need positive ends, got {start}, {stop}")
    lo = np.log10(start)
    hi = np.log10(stop)
    y = np.arange(num, dtype=float)
    y *= (hi - lo) / (num - 1)
    y += lo
    y[-1] = hi
    out = np.power(10.0, y)
    out[0] = start
    out[-1] = stop
    return out


def _default_levels(max_abs: float) -> np.ndarray:
    """Log-spaced levels spanning [1e-3, 2 max|u|]."""
    hi = max(2.0 * max_abs, 2.0 * DEFAULT_LEVEL_FLOOR)
    return geomspace(DEFAULT_LEVEL_FLOOR, hi, DEFAULT_LEVEL_COUNT)


def distribution_function(values: np.ndarray, weights: np.ndarray,
                          k_levels: np.ndarray | None = None) -> DistributionFunction:
    """Exact discrete superlevel-set measures of |values| under ``weights``
    (a grid's volume or face weights) at the given (or default) levels.

    Given levels must be positive and strictly increasing; the default
    geometric levels are so by construction and are not checked again.
    """
    vals = np.abs(values)
    if k_levels is None:
        k_levels = _default_levels(float(vals.max()) if vals.size else 0.0)
    else:
        k_levels = np.asarray(k_levels, dtype=float)
        if k_levels.size and ((k_levels <= 0).any() or (np.diff(k_levels) <= 0).any()):
            raise ValueError("levels must be positive and strictly increasing")
    order = vals.argsort()
    tail_weight = np.concatenate((weights[order][::-1].cumsum()[::-1], [0.0]))
    idx = vals[order].searchsorted(k_levels, side="left")
    measures = tail_weight[idx]
    counts = vals.size - idx
    return DistributionFunction(k_levels=k_levels, measures=measures, counts=counts)


def _line_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.polyfit(x, y, 1)``: (slope, intercept) of the least-squares line.

    numpy's operations in numpy's order: the Vandermonde columns [x, 1]
    (x and y plus 0.0, as polyfit copies them), each column scaled to unit
    norm, ``np.linalg.lstsq`` with rcond = len(x) * eps, the scaling undone,
    and polyfit's RankWarning when the columns are rank deficient.
    """
    lhs = np.empty((x.size, 2))
    np.add(x, 0.0, out=lhs[:, 0])
    lhs[:, 1] = 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    coef, _, rank, _ = np.linalg.lstsq(lhs, y + 0.0, x.size * EPS)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    return coef / scale


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
    take = max(math.ceil(TAIL_WINDOW_FRACTION * ks.size), TAIL_MIN_LEVELS)
    ks, mus = ks[-take:], mus[-take:]
    window = (float(ks[0]), float(ks[-1]))
    if np.log10(ks[-1] / ks[0]) < TAIL_MIN_DECADES:
        return TailFit(np.nan, window, 0.0, int(ks.size), False,
                       "window spans less than a decade; solution essentially bounded")
    if mus[0] <= mus[-1]:
        return TailFit(np.nan, window, 0.0, int(ks.size), False,
                       "no decay across the window")
    x, y = np.log(ks), np.log(mus)
    slope, intercept = _line_fit(x, y)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    quality = 0.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return TailFit(exponent=float(-slope), window=window, fit_quality=quality,
                   n_levels=int(ks.size), sufficient=True)


def _cutoff_blocks(grid: RadialGrid, values: np.ndarray, ks: np.ndarray):
    """T_k of every row of ``values`` at every level of ``ks``, with the face
    gradients, in blocks of consecutive levels.

    ``values`` is (P, M).  Yields (clipped, grads) of shapes (P, c, M) and
    (P, c, M+1) for successive runs of c levels; each entry is the same
    float operation as the face gradient of u clipped to [-k, k].  A block
    holds at most ``CUTOFF_BLOCK_BYTES`` of gradients (at least one level),
    so its temporaries stay on the heap; when every level fits, the one
    block is all of them.
    """
    if not (ks > 0).all():
        raise ValueError(f"truncation level must be positive, got {ks[~(ks > 0)][0]}")
    per_block = max(1, CUTOFF_BLOCK_BYTES // (8 * (grid.M + 1) * max(len(values), 1)))
    for start in range(0, ks.size, per_block):
        k = ks[start:start + per_block, None]
        clipped = values[:, None, :].clip(-k, k)
        yield clipped, face_differences(grid, clipped)


def _cutoff_energies(u: GridFunction, k_levels) -> list[float]:
    """Face-weighted squared gradient of T_k(u) at every level k."""
    ks = np.asarray(k_levels, dtype=float)
    wf = u.grid.face_weights
    return [energy for _, grads in _cutoff_blocks(u.grid, u.values[None, :], ks)
            for energy in np.vecdot(np.square(grads[0], out=grads[0]), wf).tolist()]


def check_lemma_estimate(u: GridFunction, f: GridFunction, p: float, m: float,
                         tol: float = CHECK_TOLERANCE) -> EstimateReport:
    """Absorption summability against the datum: sum w|u|^(pm) <= sum w|f|^m."""
    wts = u.grid.weights
    lhs = float(np.dot(wts, np.abs(u.values) ** (p * m)))
    rhs = float(np.dot(wts, np.abs(f.values) ** m))
    return _report("lemma_estimate", lhs, rhs, float(tol),
                   params=(("p", float(p)), ("m", float(m))))


def check_bg_estimate(u: GridFunction, f: GridFunction, p: float, t_levels,
                      tol: float = CHECK_TOLERANCE) -> list[EstimateReport]:
    """Superlevel tail bound: sum_{|u|>t} w|u|^p <= sum_{|u|>t} w|f| per t."""
    abs_u, abs_f, wts = np.abs(u.values), np.abs(f.values), u.grid.weights
    f_l1 = float(np.dot(wts, abs_f))
    tol, p_param = float(tol), ("p", float(p))
    out = []
    for t in np.asarray(t_levels, dtype=float).tolist():
        mask = abs_u > t
        w_t = wts[mask]
        lhs = float(np.dot(w_t, abs_u[mask] ** p))
        rhs = float(np.dot(w_t, abs_f[mask]))
        out.append(_report("bg_estimate", lhs, rhs, tol, scale=max(abs(rhs), f_l1),
                           params=(("t", t), p_param)))
    return out


def check_weighted_energy(u: GridFunction, f: GridFunction, gamma: float,
                          lams: Sequence[float], alpha: float,
                          tol: float = CHECK_TOLERANCE) -> list[EstimateReport]:
    """Weighted energy bound with constant alpha*(lam-1):

        alpha (lam-1) sum_faces wf |grad u|^2 (1 + max adj |u|)^(-gamma-lam)
            <= sum w |f|.

    Follows from testing the discrete equation with the bounded monotone
    function [1 - (1+|s|)^(1-lam)] sgn(s); requires lam > 1.  One report
    per entry of ``lams``, in order: the face gradient, the base of the
    weight and |f|_1 are formed once, and each lam's sum is one dot product.
    """
    lams = [float(x) for x in lams]
    for x in lams:
        if not (x > 1.0):
            raise ValueError(f"lambda must exceed 1, got {x}")
    grad_sq = face_gradient(u) ** 2
    base = 1.0 + np.abs(face_upwind_values(u.grid, u.values))
    wf = u.grid.face_weights
    rhs = float(np.dot(u.grid.weights, np.abs(f.values)))
    tol, gamma_param = float(tol), ("gamma", float(gamma))
    return [_report("weighted_energy",
                    alpha * (x - 1.0) * float(np.dot(wf, grad_sq * base ** (-(gamma + x)))),
                    rhs, tol, params=(("lambda", x), gamma_param))
            for x in lams]


def check_truncation_energy(u: GridFunction, f: GridFunction, gamma: float, alpha: float,
                            k_levels, tol: float = CHECK_TOLERANCE) -> list[EstimateReport]:
    """Cutoff energy growth: alpha |grad T_k(u)|^2 <= k (1+k)^gamma |f|_1 per k."""
    f_l1 = float(np.dot(u.grid.weights, np.abs(f.values)))
    ks = np.asarray(k_levels, dtype=float)
    tol = float(tol)
    out = []
    for k, energy in zip(ks.tolist(), _cutoff_energies(u, ks)):
        lhs = alpha * energy
        try:
            rhs = k * (1.0 + k) ** gamma * f_l1
        except OverflowError:  # a bound past the float range exceeds every finite lhs
            rhs = math.inf
        out.append(_report("truncation_energy", lhs, rhs, tol, params=(("k", k),)))
    return out


def check_linfty_bound(u: GridFunction, lower: SingularAbsorption,
                       f: GridFunction) -> EstimateReport:
    """Barrier-absorption sup bound: 0 <= u <= h^{-1}(|f|_inf).

    The tolerance is absolute: max u may exceed the bound by
    ``LINFTY_TOLERANCE`` and min u fall below 0 by ``LINFTY_FLOOR``.
    """
    f_inf = float(np.max(np.abs(f.values)))
    bound = float(lower_order_inverse(lower, f_inf))
    u_max = float(np.max(u.values))
    u_min = float(np.min(u.values))
    passed = (u_max <= bound + LINFTY_TOLERANCE) and (u_min >= -LINFTY_FLOOR)
    scale = max(bound, TINY)
    return EstimateReport(
        name="linfty_bound", lhs=u_max, rhs=bound, passed=passed,
        relative_slack=(bound - u_max) / scale, tolerance=LINFTY_TOLERANCE, scale=scale,
        params=(("u_min", u_min), ("f_inf", f_inf), ("sigma", lower.sigma)),
    )


def _default_phis(u: GridFunction) -> list[tuple[str, np.ndarray]]:
    """Entropy test functions: zero plus a pair of parabolic bumps scaled to
    half the solution range, as (label, nodal values) pairs."""
    grid = u.grid
    out = [("zero", np.zeros(grid.M))]
    c = 0.5 * u.max_abs()
    if c > 0:
        bump = 1.0 - (grid.nodes / grid.R) ** 2
        out.append(("+bump", c * bump))
        out.append(("-bump", -c * bump))
    return out


def check_entropy_inequality(u: GridFunction, problem, k_levels,
                             tol: float = CHECK_TOLERANCE, *,
                             phi_samples=None) -> list[EstimateReport]:
    """Inequalities defining the entropy solution notion, sampled over (phi, k):

        sum_f wf a_f grad u . grad T_k(u - phi) + sum w g(u) T_k(u - phi)
            <= sum w T_n f T_k(u - phi)

    in the discrete problem ``problem`` (a ``solver.DiscreteProblem``) that
    u solves: its datum T_n f, its absorption g and its face coefficients
    a_f at T_n(u), of the scheme the solve used.  The test functions phi
    are bounded and vanish at the boundary; ``phi_samples`` holds
    (label, phi) pairs of GridFunctions (default: zero and two parabolic
    bumps of half the solution range).  On a converged solve this holds
    with equality up to the solver residual for every test pair.
    """
    grid = u.grid
    wts = grid.weights
    fv = problem.rhs
    wf = grid.face_weights
    flux = problem.faces(u.values) * face_gradient(u)
    g_u = lower_order_eval(problem.spec.lower, u.values)
    f_l1 = float(np.dot(wts, np.abs(fv)))

    samples = (_default_phis(u) if phi_samples is None
               else [(label, phi.values) for label, phi in phi_samples])
    ks = np.asarray(k_levels, dtype=float)
    diffs = np.array([u.values - phi for _, phi in samples]).reshape(-1, grid.M)
    sums: list[list[tuple[float, float]]] = [[] for _ in samples]
    for tests, grad_tests in _cutoff_blocks(grid, diffs, ks):
        face_terms = np.multiply(grad_tests, flux, out=grad_tests)
        lhs = np.vecdot(face_terms, wf) + np.vecdot(g_u * tests, wts)
        rhs = np.vecdot(fv * tests, wts)
        for row, lhs_row, rhs_row in zip(sums, lhs.tolist(), rhs.tolist()):
            row += zip(lhs_row, rhs_row)
    tol = float(tol)
    out = []
    for (label, _), row in zip(samples, sums):
        for k, (lhs, rhs) in zip(ks.tolist(), row):
            scale = max(abs(rhs), k * f_l1)
            out.append(_report(f"entropy[{label}]", lhs, rhs, tol, scale=scale,
                               params=(("k", k),)))
    return out


@dataclass(frozen=True)
class MarcinkiewiczLemmaReport:
    """Gradient weak-Lebesgue exponent predicted from cutoff energy growth.

    From the solution's own tail exponent s and the growth rate rho of the
    cutoff energy |grad T_k(u)|^2 ~ k^rho, the gradient must lie in
    weak-L^(2s/(rho+s)); ``measured`` is the fitted tail exponent of the
    face gradient.  ``verdict`` is the gate's report, set only when the
    check applies: it passes if predicted <= measured + tol*|predicted|,
    i.e. for predicted > 0 if measured >= predicted*(1 - tol).  The other
    fields are diagnostics.
    """

    reason: str = ""
    s_exponent: float = np.nan
    rho_exponent: float = np.nan
    predicted: float = np.nan
    measured: float = np.nan
    u_fit: TailFit | None = None
    grad_fit: TailFit | None = None
    verdict: EstimateReport | None = None

    @property
    def applicable(self) -> bool:
        return self.verdict is not None

    @property
    def passed(self) -> bool:
        return self.verdict is not None and self.verdict.passed


def verify_marcinkiewicz_lemma(u: GridFunction, tol_exponent: float = TAIL_TOLERANCE, *,
                               tails: tuple[DistributionFunction, DistributionFunction,
                                            TailFit, TailFit]) -> MarcinkiewiczLemmaReport:
    """Check the cutoff-energy route to the gradient's weak-Lebesgue class.

    ``tails`` is what ``degelab.experiments.tails(u)`` returns; the gate reads
    its distribution function of u and both tail fits, and fits nothing itself.
    """
    df_u, _, u_fit, grad_fit = tails
    if not u_fit.sufficient:
        return MarcinkiewiczLemmaReport(reason=f"insufficient tail in u: {u_fit.reason}",
                                        u_fit=u_fit)
    window_mask = (df_u.k_levels >= u_fit.window[0]) & (df_u.k_levels <= u_fit.window[1])
    ks = df_u.k_levels[window_mask]
    energies = np.array(_cutoff_energies(u, ks))
    positive = energies > 0
    if np.count_nonzero(positive) < 3:
        return MarcinkiewiczLemmaReport(reason="cutoff energies vanish on the window",
                                        u_fit=u_fit)
    rho = float(_line_fit(np.log(ks[positive]), np.log(energies[positive]))[0])
    s = u_fit.exponent
    predicted = 2.0 * s / (rho + s)
    if not grad_fit.sufficient:
        return MarcinkiewiczLemmaReport(reason=f"insufficient tail in grad u: {grad_fit.reason}",
                                        s_exponent=s, rho_exponent=rho,
                                        predicted=predicted, u_fit=u_fit,
                                        grad_fit=grad_fit)
    measured = grad_fit.exponent
    return MarcinkiewiczLemmaReport(
        s_exponent=s, rho_exponent=rho, predicted=predicted, measured=measured,
        u_fit=u_fit, grad_fit=grad_fit,
        verdict=_report("marcinkiewicz_lemma", predicted, measured, float(tol_exponent),
                        scale=abs(predicted)),
    )
