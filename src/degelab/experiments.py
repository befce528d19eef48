"""Solve-then-analyze pipelines: single runs, sweeps, refinement studies.

A run solves one problem by truncation continuation, attaches the regime
prediction and audits the converged solution (:func:`run_checks`); the
refinement study and the exponent probe solve without an audit.  Sweeps
run the Cartesian product of parameter axes; a solve that raises is a
flagged record, not a lost point.  Output files
(records.csv, summary.md, plotdata/*.dat) are byte-deterministic apart
from a timestamp comment so repeated executions can be diffed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import (
    CHECK_TOLERANCE,
    TAIL_TOLERANCE,
    DistributionFunction,
    EstimateReport,
    MarcinkiewiczLemmaReport,
    TailFit,
    check_bg_estimate,
    check_entropy_inequality,
    check_lemma_estimate,
    check_linfty_bound,
    check_truncation_energy,
    check_weighted_energy,
    distribution_function,
    geomspace,
    tail_exponent_fit,
    verify_marcinkiewicz_lemma,
)
from .grid import (
    GridFunction,
    MeshSpec,
    build_radial_grid,
    face_gradient,
    grid_function,
)
from .problem import (
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    RegimeCase,
    RegimePrediction,
    SingularAbsorption,
    classify_regime,
)
from .solver import (DiscreteProblem, SolveFlags, SolverConfig, Stop, manufactured_rhs,
                     truncation_continuation)

__all__ = [
    "MeshSpec",
    "RunRecord",
    "SweepSpec",
    "ConvergenceRow",
    "ProbeRow",
    "ProbeTable",
    "ALL_CHECKS",
    "CheckResults",
    "run_checks",
    "tails",
    "run_single",
    "run_sweep",
    "mesh_refinement_study",
    "exponent_probe",
    "emit_outputs",
    "emit_from_saved",
    "save_records",
    "load_records",
    "regime_label",
]

ALL_CHECKS = ("lemma", "bg", "weighted_energy", "truncation_energy",
              "linfty", "entropy", "marcinkiewicz")

# The audit's sampling families: the lambdas of the weighted-energy family
# (each > 1); the superlevel thresholds of the bg checker, as fractions of
# max|u|; and the numbers of cutoff levels k of the truncation-energy and
# entropy checkers.  Its tolerances are constants of ``analysis``.
WEIGHTED_ENERGY_LAMBDAS = (1.25, 2.0, 4.0)
BG_T_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
TRUNCATION_K_COUNT = 8
ENTROPY_K_COUNT = 4

SWEEP_CAP = 4096  # largest number of points one sweep may have

# mesh_refinement_study's discrete surrogate datum is manufactured on a mesh
# this many times finer than the largest study mesh.
REFERENCE_FACTOR = 8

# exponent_probe: a row is consistent when its gradient tail reaches this
# share of the predicted exponent and its absorption integral changes by
# at most this fraction between the mesh and the mesh half as fine.
PROBE_TAIL_THRESHOLD = 0.85
PROBE_STABILITY_THRESHOLD = 0.25

# A records.csv row is the run cells its record shares with every other row
# of that record, then the cells of one check, then the shared tail and
# prediction cells.  A payload stores the shared cells once; a record that
# reuses an earlier solve stores a reference to it (see _payload).
RUN_COLUMNS = ("run_id", "gamma", "p", "m", "N", "delta", "M", "n_final",
               "converged", "truncation_active", "hit_iteration_cap")
ROW_COLUMNS = ("check_name", "lhs", "rhs", "slack", "passed")
FIT_COLUMNS = ("tail_u", "tail_grad", "predicted_grad")
CSV_COLUMNS = RUN_COLUMNS + ROW_COLUMNS + FIT_COLUMNS

# Names of the plotdata files emission writes, one pair per record.
PLOT_NAME = re.compile(r"run_\d+_(u|grad)\.dat")

# A records.csv cell holding one of these is quoted: the delimiter, the
# quote character and the "\n" row terminator, as csv's minimal quoting does
# for a writer whose lineterminator is "\n".
CSV_SPECIAL = re.compile(r'[,"\n]')


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One solve and its audit (``checks``); records are append-only."""

    run_id: str
    problem: ProblemSpec
    mesh: MeshSpec
    n_final: int
    flags: SolveFlags  # the final level's; Stop.FAILED when no solve finished
    picard_iters: int  # accepted Newton steps summed over the truncation levels
    residual_inf: float
    prediction: RegimePrediction | None
    checks: CheckResults
    duration_s: float
    failure: str | None = None
    shares: str | None = None  # run id of the earlier record whose solve this one reuses
    solution: GridFunction | None = None  # kept in memory, never serialized
    discrete: DiscreteProblem | None = None  # the level solved; in memory only

    converged = property(lambda self: self.flags.converged)
    truncation_active = property(lambda self: self.flags.truncation_active)
    hit_iteration_cap = property(lambda self: self.flags.hit_iteration_cap)
    reports = property(lambda self: self.checks.reports)
    marcinkiewicz = property(lambda self: self.checks.marcinkiewicz)

    @property
    def solved(self) -> bool:
        """Stopped converged (not capped, stalled or failed), at a final
        level that clips neither u nor the datum."""
        return self.converged and not self.truncation_active

    @property
    def all_passed(self) -> bool:
        """Solved and every check passed."""
        return self.solved and self.checks.all_passed

    @cached_property
    def payload(self) -> dict:
        """Serialized form, built on first use; :func:`emit_outputs` and
        :func:`save_records` share it.  Read it, never modify it."""
        return _payload(self)


def _problem_axes(spec: ProblemSpec) -> dict[str, float]:
    gamma = spec.coefficient.gamma
    p = spec.lower.p if isinstance(spec.lower, PowerAbsorption) else math.nan
    m = spec.datum.m
    delta = (spec.datum.family.delta
             if isinstance(spec.datum.family, RadialPowerDatum) else math.nan)
    return {"gamma": gamma, "p": p, "m": m, "N": spec.dimension, "delta": delta}


def _checker_levels(u_max: float, count: int) -> np.ndarray:
    if u_max <= 0:
        return np.array([1.0])
    return geomspace(0.01 * u_max, 2.0 * u_max, count)


@dataclass(frozen=True)
class CheckResults:
    """What :func:`run_checks` measured on one solution."""

    reports: dict[str, tuple[EstimateReport, ...]] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    marcinkiewicz: MarcinkiewiczLemmaReport | None = None
    tail_u: TailFit | None = None
    tail_grad: TailFit | None = None
    dist_u: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    dist_grad: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    @property
    def all_passed(self) -> bool:
        return all(rep.passed for group in self.reports.values() for rep in group)


def tails(u: GridFunction) -> tuple[DistributionFunction, DistributionFunction, TailFit, TailFit]:
    """(df_u, df_grad, fit_u, fit_grad): u's and |grad u|'s distributions and tail fits."""
    df_u = distribution_function(u.values, u.grid.weights)
    df_grad = distribution_function(np.abs(face_gradient(u)), u.grid.face_weights)
    return df_u, df_grad, tail_exponent_fit(df_u), tail_exponent_fit(df_grad)


def run_checks(u: GridFunction, problem: DiscreteProblem) -> CheckResults:
    """Audit u after its solve: every checker in ``ALL_CHECKS`` order, and its tails.

    A checker whose hypothesis the problem does not meet is skipped, with
    its reason.  u is audited against ``problem``, the discrete problem it
    solves, whose datum T_n f every checker reads.  Each quantity of the
    solution is computed once and shared: the :func:`tails` of u feed both
    the Marcinkiewicz check and the record, and each checker sampled over
    cutoff levels evaluates all its levels in one pass.
    """
    spec = problem.spec
    f_nodal = GridFunction(u.grid, problem.rhs)
    df_u, df_g, tail_u, tail_grad = fits = tails(u)
    u_max = u.max_abs()
    tol = CHECK_TOLERANCE
    alpha = spec.coefficient.alpha
    gamma = spec.coefficient.gamma
    reports: dict[str, tuple[EstimateReport, ...]] = {}
    skipped: dict[str, str] = {}
    if isinstance(spec.lower, PowerAbsorption):
        p = spec.lower.p
        reports["lemma"] = (check_lemma_estimate(u, f_nodal, p, spec.datum.m, tol),)
        ts = sorted({frac * u_max for frac in BG_T_FRACTIONS})
        reports["bg"] = tuple(check_bg_estimate(u, f_nodal, p, ts, tol))
    else:
        skipped["lemma"] = skipped["bg"] = "needs a power absorption term"
    reports["weighted_energy"] = tuple(check_weighted_energy(
        u, f_nodal, gamma, WEIGHTED_ENERGY_LAMBDAS, alpha, tol))
    reports["truncation_energy"] = tuple(check_truncation_energy(
        u, f_nodal, gamma, alpha, _checker_levels(u_max, TRUNCATION_K_COUNT), tol))
    if isinstance(spec.lower, SingularAbsorption):
        reports["linfty"] = (check_linfty_bound(u, spec.lower, f_nodal),)
    else:
        skipped["linfty"] = "needs a singular absorption term"
    reports["entropy"] = tuple(check_entropy_inequality(
        u, problem, _checker_levels(u_max, ENTROPY_K_COUNT), tol))
    mk_report = verify_marcinkiewicz_lemma(u, TAIL_TOLERANCE, tails=fits)
    if mk_report.applicable:
        reports["marcinkiewicz"] = (mk_report.verdict,)
    else:
        skipped["marcinkiewicz"] = mk_report.reason

    return CheckResults(
        reports=reports, skipped=skipped, marcinkiewicz=mk_report,
        tail_u=tail_u, tail_grad=tail_grad,
        dist_u=(tuple(df_u.k_levels.tolist()), tuple(df_u.measures.tolist())),
        dist_grad=(tuple(df_g.k_levels.tolist()), tuple(df_g.measures.tolist())),
    )


def _failed_record(run_id: str, spec: ProblemSpec, mesh: MeshSpec,
                   prediction: RegimePrediction | None, duration_s: float,
                   err: Exception) -> RunRecord:
    """Record of a solve that raised; every check is skipped.

    It stops ``Stop.FAILED`` and is not truncation-active: no level
    finished, so nothing was clipped.  The exception is kept in ``failure``."""
    return RunRecord(
        run_id=run_id, problem=spec, mesh=mesh, n_final=0,
        flags=SolveFlags(Stop.FAILED, False), picard_iters=0,
        residual_inf=math.inf, prediction=prediction, duration_s=duration_s,
        checks=CheckResults(skipped=dict.fromkeys(ALL_CHECKS, "solver failed")),
        failure=f"{type(err).__name__}: {err}",
    )


def _prediction(spec: ProblemSpec) -> RegimePrediction | None:
    if isinstance(spec.lower, PowerAbsorption):
        return classify_regime(spec.coefficient.gamma, spec.lower.p, spec.datum.m)
    return None


def run_single(spec: ProblemSpec, mesh: MeshSpec, cfg: SolverConfig, *,
               run_id: str = "run_0000") -> RunRecord:
    """Solve one problem and, once it converges, run the whole audit on it
    (:func:`run_checks`)."""
    t0 = time.perf_counter()

    grid = build_radial_grid(spec.dimension, spec.radius, mesh.cells, mesh.grading)
    prediction = _prediction(spec)

    try:
        result = truncation_continuation(grid, spec, cfg)
    except Exception as err:  # isolate solver blowups for sweep robustness
        return _failed_record(run_id, spec, mesh, prediction,
                              time.perf_counter() - t0, err)

    converged = result.flags.converged
    if converged:
        checked = run_checks(result.u, result.problem)
    else:
        checked = CheckResults(skipped=dict.fromkeys(ALL_CHECKS, "solver did not converge"))
    return RunRecord(
        run_id=run_id, problem=spec, mesh=mesh, n_final=result.n_final,
        flags=result.flags, picard_iters=result.picard_iters,
        residual_inf=result.residual_inf, prediction=prediction, checks=checked,
        duration_s=time.perf_counter() - t0,
        solution=result.u if converged else None, discrete=result.problem,
    )


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over problem and mesh axes around a base problem.

    Axis names: gamma, p, m, N, delta, M.  The constructor caps the product
    of the axis lengths at ``SWEEP_CAP``, then builds each axis value once
    on the base problem and mesh and raises ``ValueError("<axis>: <why>")``
    on the first that breaks a spec's rule.  Every rule an axis value must
    meet is a rule on one field, so every point of the product then builds.
    """

    base: ProblemSpec
    mesh: MeshSpec
    axes: dict[str, tuple[float, ...]] = field(default_factory=dict)
    cfg: SolverConfig = SolverConfig()

    def __post_init__(self):
        if (size := math.prod(map(len, self.axes.values()))) > SWEEP_CAP:
            raise ValueError(f"sweep size {size} exceeds cap {SWEEP_CAP}")
        for key, vals in self.axes.items():
            for val in vals:
                try:
                    _apply_axis_point(self.base, self.mesh, {key: val})
                except ValueError as err:
                    raise ValueError(f"{key}: {err}") from err


def _integral(val):
    """An integral count as an int, so that a records.csv cell prints 3, not
    3.0; any other value is passed on, for a constructor to reject."""
    return int(val) if float(val).is_integer() else val


def _apply_axis_point(base: ProblemSpec, mesh: MeshSpec,
                      point: dict[str, float]) -> tuple[ProblemSpec, MeshSpec]:
    """The problem and mesh of one sweep point, each spec a value changes
    checked by its constructor."""
    spec = base
    for key, val in point.items():
        if key == "gamma":
            spec = replace(spec, coefficient=replace(spec.coefficient, gamma=float(val)))
        elif key == "p":
            if not isinstance(spec.lower, PowerAbsorption):
                raise ValueError("axis 'p' requires a power absorption base problem")
            spec = replace(spec, lower=replace(spec.lower, p=float(val)))
        elif key == "m":
            spec = replace(spec, datum=replace(spec.datum, m=float(val)))
        elif key == "N":
            spec = replace(spec, dimension=_integral(val))
        elif key == "delta":
            if not isinstance(spec.datum.family, RadialPowerDatum):
                raise ValueError("axis 'delta' requires a radial power datum")
            spec = replace(spec, datum=replace(
                spec.datum, family=replace(spec.datum.family, delta=float(val))))
        elif key == "M":
            mesh = replace(mesh, cells=_integral(val))
        else:
            raise ValueError(f"unknown sweep axis {key!r}")
    return spec, mesh


def _discrete_problem(spec: ProblemSpec, mesh: MeshSpec) -> tuple:
    """Key of the discrete problem a sweep point solves and audits.

    It is everything :func:`truncation_continuation` and :func:`run_checks`
    read of the point except the claimed class ``spec.datum.m``, which
    enters only the regime prediction and the ``lemma`` check.
    """
    return (spec.dimension, spec.radius, spec.coefficient, spec.lower,
            spec.datum.family, mesh)


def _reuse(first: RunRecord, spec: ProblemSpec, run_id: str, t0: float) -> RunRecord:
    """The record of a point whose discrete problem ``first`` already solved
    and audited: its prediction and ``lemma`` report are recomputed for its
    own m, everything else (flags, skips, failure, other reports) is shared."""
    checks = first.checks
    if "lemma" in checks.reports:
        u = first.solution
        f_nodal = GridFunction(u.grid, first.discrete.rhs)
        checks = replace(checks, reports={**checks.reports, "lemma": (check_lemma_estimate(
            u, f_nodal, spec.lower.p, spec.datum.m, CHECK_TOLERANCE),)})
    return replace(first, run_id=run_id, problem=spec, prediction=_prediction(spec),
                   checks=checks, shares=first.run_id, duration_s=time.perf_counter() - t0)


def _sweep_point(sweep: SweepSpec, idx: int, point: dict[str, float],
                 solved: dict[tuple, RunRecord]) -> RunRecord:
    """Run one point, or reuse the record in ``solved`` of its discrete problem."""
    run_id = f"run_{idx:04d}"
    t0 = time.perf_counter()
    spec, mesh = _apply_axis_point(sweep.base, sweep.mesh, point)
    key = _discrete_problem(spec, mesh)
    if key in solved:
        return _reuse(solved[key], spec, run_id, t0)
    solved[key] = run_single(spec, mesh, sweep.cfg, run_id=run_id)
    return solved[key]


def run_sweep(sweep: SweepSpec) -> list[RunRecord]:
    """Run every point of the sweep in deterministic axis order, in this process.

    Each distinct discrete problem is solved and audited once.  A later
    point that differs from an earlier one only in the claimed class m
    copies that record and recomputes what depends on m: its regime
    prediction and, when the record has one (a converged solve with power
    absorption), its ``lemma`` report, which keeps its place among the
    reports.  Flags, skips and failures are shared, and the copy's
    ``duration_s`` is its own work only.  Every point builds, because
    :class:`SweepSpec` checks each axis value.
    """
    solved: dict[tuple, RunRecord] = {}
    return [_sweep_point(sweep, idx, dict(zip(sweep.axes, combo)), solved)
            for idx, combo in enumerate(itertools.product(*sweep.axes.values()))]


@dataclass(frozen=True)
class ConvergenceRow:
    cells: int
    error: float
    order: float  # vs the previous row; nan on the first


def mesh_refinement_study(spec: ProblemSpec, u_star: Callable[[np.ndarray], np.ndarray],
                          M_list: Sequence[int], cfg: SolverConfig,
                          rhs: Callable[[np.ndarray], np.ndarray] | None = None,
                          grading: float | None = None) -> tuple[ConvergenceRow, ...]:
    """Max-norm errors against a manufactured field under mesh refinement,
    one row per mesh of ``M_list``.

    The datum is the continuum source for which u_star solves the
    equation: either the closed form ``rhs`` when available, or a
    high-resolution discrete surrogate (manufactured on a mesh
    ``REFERENCE_FACTOR`` times finer than the largest study mesh and
    interpolated down, so its consistency error is negligible next to the
    study's own).
    """
    M_list = [int(MeshSpec(m, 1.0 if grading is None else grading).cells) for m in M_list]
    if rhs is None:
        fine = build_radial_grid(spec.dimension, spec.radius,
                                 REFERENCE_FACTOR * max(M_list), grading)
        star_fine = grid_function(fine, u_star)
        # the first level that clips nowhere on the fine mesh
        level = cfg.level_at_least(math.floor(np.max(np.abs(star_fine.values))) + 1)
        f_fine = manufactured_rhs(fine, spec, star_fine, level)

        def rhs(r):
            return np.interp(r, fine.nodes, f_fine.values)

    rows: list[ConvergenceRow] = []
    prev: tuple[int, float] | None = None
    for M in M_list:
        grid = build_radial_grid(spec.dimension, spec.radius, M, grading)
        star = grid_function(grid, u_star)
        f_vals = grid_function(grid, rhs)
        result = truncation_continuation(grid, spec, cfg, f_values=f_vals)
        err = float(np.max(np.abs(result.u.values - star.values)))
        order = math.nan
        if prev is not None and err > 0 and prev[1] > 0:
            order = math.log(prev[1] / err) / math.log(M / prev[0])
        rows.append(ConvergenceRow(cells=M, error=err, order=order))
        prev = (M, err)
    return tuple(rows)


@dataclass(frozen=True)
class ProbeRow:
    delta: float
    lebesgue_exponent: float
    lebesgue_integral: float
    lebesgue_integral_refined: float
    refinement_change: float
    tail_u: float
    tail_grad: float
    predicted_grad: float
    on_boundary: bool
    insufficient: bool
    consistent: bool


@dataclass(frozen=True)
class ProbeTable:
    rows: tuple[ProbeRow, ...]

    @property
    def verdict(self) -> str:
        usable = [row for row in self.rows if not row.insufficient]
        if not usable:
            return "insufficient"
        return "consistent" if all(row.consistent for row in usable) else "inconsistent"


def exponent_probe(base: ProblemSpec, deltas: Sequence[float], mesh: MeshSpec,
                   cfg: SolverConfig) -> ProbeTable:
    """Sweep the datum singularity toward the integrability edge.

    Each delta is solved, with no audit, on ``mesh`` and on a mesh half as
    fine; a row is consistent when the absorption integral sum w |u|^(pm) is
    finite and changes by at most ``PROBE_STABILITY_THRESHOLD`` between them
    and the gradient's :func:`tails` fit on ``mesh`` reaches
    ``PROBE_TAIL_THRESHOLD`` of the predicted exponent.  Rows whose solution
    is too tame for a tail fit, or where either solve raised or did not
    converge, are only marked insufficient.  At points sitting exactly on
    a regime boundary both neighbouring cases predict the same gradient
    exponent; the row is flagged rather than judged.
    """
    if not isinstance(base.lower, PowerAbsorption):
        raise ValueError("exponent probe requires a power absorption term")
    if not isinstance(base.datum.family, RadialPowerDatum):
        raise ValueError("exponent probe requires a radial power datum")
    gamma = base.coefficient.gamma
    p = base.lower.p
    m = base.datum.m
    prediction = classify_regime(gamma, p, m)
    if m > 1:
        boundary = math.isclose(p, gamma / (m - 1)) or math.isclose(p, (gamma + 1) / (m - 1))
    else:
        boundary = math.isclose(p, gamma + 1)

    pm = p * m
    grids = [build_radial_grid(base.dimension, base.radius, cells, mesh.grading)
             for cells in (mesh.cells, max(mesh.cells // 2, 8))]
    rows = []
    for delta in deltas:
        spec = replace(base, datum=replace(
            base.datum, family=replace(base.datum.family, delta=float(delta))))
        try:
            fine, coarse = [truncation_continuation(grid, spec, cfg) for grid in grids]
        except Exception:  # a solve that raises leaves its row insufficient
            fine = coarse = None

        integral = integral_coarse = change = math.nan
        tail_u_val = tail_grad_val = math.nan
        insufficient = True
        consistent = False
        if fine is not None and fine.flags.converged and coarse.flags.converged:
            integral = _absorption_integral(fine.u, pm)
            integral_coarse = _absorption_integral(coarse.u, pm)
            if math.isfinite(integral):
                change = abs(integral - integral_coarse) / max(abs(integral), 1e-300)
            _, _, tail_u, tail_grad = tails(fine.u)
            tail_u_val = tail_u.exponent if tail_u.sufficient else math.nan
            tail_grad_val = tail_grad.exponent if tail_grad.sufficient else math.nan
            insufficient = not (tail_u.sufficient and tail_grad.sufficient)
            consistent = (not insufficient and math.isfinite(integral)
                          and change <= PROBE_STABILITY_THRESHOLD
                          and tail_grad_val >= PROBE_TAIL_THRESHOLD * prediction.gradient_exponent)
        rows.append(ProbeRow(
            delta=float(delta), lebesgue_exponent=pm, lebesgue_integral=integral,
            lebesgue_integral_refined=integral_coarse, refinement_change=change,
            tail_u=tail_u_val, tail_grad=tail_grad_val,
            predicted_grad=prediction.gradient_exponent, on_boundary=boundary,
            insufficient=insufficient, consistent=consistent,
        ))
    return ProbeTable(rows=tuple(rows))


def _absorption_integral(u: GridFunction, pm: float) -> float:
    return float(np.dot(u.grid.weights, np.abs(u.values) ** pm))


# --- output emission -------------------------------------------------------


def regime_label(prediction: RegimePrediction | None, m: float) -> str:
    if prediction is None:
        return "unclassified"
    bucket = "m=1" if m == 1 else "m>1"
    names = {
        RegimeCase.DISTRIBUTIONAL_SOBOLEV: "distributional",
        RegimeCase.ENTROPY: "entropy",
        RegimeCase.FINITE_ENERGY: "finite_energy",
    }
    return f"{bucket}:{names[prediction.case]}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _shared_cells(rec: RunRecord) -> dict:
    """The CSV cells that every row of one record shares."""
    axes = _problem_axes(rec.problem)
    tail_u, tail_grad = rec.checks.tail_u, rec.checks.tail_grad
    return {
        "run_id": rec.run_id,
        "gamma": axes["gamma"], "p": axes["p"], "m": axes["m"],
        "N": _integral(axes["N"]), "delta": axes["delta"], "M": rec.mesh.cells,
        "n_final": rec.n_final, "converged": rec.converged,
        "truncation_active": rec.truncation_active,
        "hit_iteration_cap": rec.hit_iteration_cap,
        "tail_u": tail_u.exponent if tail_u and tail_u.sufficient else math.nan,
        "tail_grad": tail_grad.exponent if tail_grad and tail_grad.sufficient else math.nan,
        "predicted_grad": (rec.prediction.gradient_exponent
                           if rec.prediction else math.nan),
    }


def _check_row(rep: EstimateReport) -> dict:
    return {"check_name": rep.label, "lhs": rep.lhs, "rhs": rep.rhs,
            "slack": rep.relative_slack, "passed": rep.passed}


def _check_rows(rec: RunRecord) -> list[dict]:
    """One dict of the ``ROW_COLUMNS`` cells per check of the record."""
    rows = [_check_row(rep) for group in rec.reports.values() for rep in group]
    if not rows:
        rows.append({"check_name": "solve_failed" if not rec.converged else "solve",
                     "lhs": rec.residual_inf, "rhs": math.nan, "slack": math.nan,
                     "passed": rec.converged})
    return rows


def _payload(rec: RunRecord) -> dict:
    """Serialized form of one record; every output file is rendered from it.

    A record that reuses an earlier record's solve (``rec.shares``) is a
    reference: it stores only what differs from that record, namely its
    cells, its own ``lemma`` row (None when the shared solve has no
    ``lemma`` report), ``case``, ``duration_s``, ``all_passed`` and
    ``n_checks``, and under ``shares`` the run id it reuses.  Its other
    check rows, distributions, grading, stop and failure are the earlier
    payload's (:func:`_resolve`).
    """
    if rec.shares is not None:
        lemma = rec.reports.get("lemma")
        return {
            "cells": _shared_cells(rec),
            "shares": rec.shares,
            "lemma": _check_row(lemma[0]) if lemma else None,
            "case": regime_label(rec.prediction, rec.problem.datum.m),
            "duration_s": rec.duration_s,
            "all_passed": rec.all_passed,
            "n_checks": sum(len(g) for g in rec.reports.values()),
        }
    return {
        "cells": _shared_cells(rec),
        "rows": _check_rows(rec),
        "grading": rec.mesh.grading,
        "dist_u": rec.checks.dist_u,
        "dist_grad": rec.checks.dist_grad,
        "case": regime_label(rec.prediction, rec.problem.datum.m),
        "duration_s": rec.duration_s,
        "stop": rec.flags.stop.value,
        "failure": rec.failure,
        "all_passed": rec.all_passed,
        "n_checks": sum(len(g) for g in rec.reports.values()),
    }


def emit_outputs(records: Sequence[RunRecord], out_dir) -> dict[str, Path]:
    """Write records.csv, summary.md, and plotdata/*.dat under out_dir."""
    return emit_from_saved([rec.payload for rec in records], out_dir)


def save_records(records: Sequence[RunRecord], path) -> None:
    """Serialize records to JSON, enough to re-emit every output file.

    The file is one JSON list with one record payload per line, so it
    diffs record by record.  A payload stores its shared CSV cells once,
    under ``cells``; each entry of its ``rows`` holds only the
    ``ROW_COLUMNS`` cells of one check.  A record that reuses an earlier
    record's solve is stored as a reference to it (:func:`_payload`), so
    each distinct solve's rows and distributions are written once.
    """
    body = ",\n".join(json.dumps(rec.payload, allow_nan=True, separators=(",", ":"))
                       for rec in records)
    _write_in_place(path, f"[\n{body}\n]\n" if body else "[]\n")


def load_records(path) -> list[dict]:
    return json.loads(Path(path).read_text())


def emit_from_saved(saved: Sequence[dict], out_dir) -> dict[str, Path]:
    """Write the output files from record payloads, fresh or loaded from JSON.

    :func:`emit_outputs` renders through here too, so ``report`` rewrites
    exactly what ``solve`` and ``sweep`` wrote, apart from the timestamp.
    References are resolved first (:func:`_resolve`), and each shared
    solve's check cells and plot bodies are rendered once.  Every file is
    rendered in memory before the first directory is made or file
    written, so a stale or malformed payload (one missing a key, one saved
    before the shared cells moved under ``cells``, or a reference to no
    earlier solve) raises and leaves the output directory as it was.
    Each file is then written in place (:func:`_write_in_place`).  Once
    every file is written, the ``plotdata/run_NNNN_{u,grad}.dat`` files
    that this call did not write, left by an earlier and larger run, are
    deleted; no other file is touched.
    """
    pairs = _resolve(saved)
    csv_text = _csv_text(pairs)
    summary = _summary_markdown(saved)
    plots = _plot_files(pairs)

    out = Path(out_dir)
    plotdir = out / "plotdata"
    plotdir.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    _write_in_place(csv_path, csv_text)
    md_path = out / "summary.md"
    _write_in_place(md_path, summary)
    for name, body in plots.items():
        _write_in_place(plotdir / name, body)
    for path in plotdir.iterdir():
        if PLOT_NAME.fullmatch(path.name) and path.name not in plots:
            path.unlink()
    return {"csv": csv_path, "summary": md_path, "plotdata": plotdir}


def _write_in_place(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does (same encoding
    and newline translation), but over the old bytes: the file is opened
    without truncation, written, then cut to the new length.

    On ext4 (``auto_da_alloc``) a file truncated to zero and rewritten is
    flushed when it is closed; one written over is not.  Neither way is
    atomic, so a crash mid-write can leave a damaged file.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


def _resolve(saved: Sequence[dict]) -> list[tuple[dict, dict]]:
    """Pair each payload with the payload of its solve: itself, or for a
    reference (a payload with ``shares``) the earlier full payload of that
    run id.  Raises ``ValueError`` on a reference to a run id that no
    earlier full payload has."""
    solves: dict[str, dict] = {}
    pairs = []
    for rec in saved:
        if "shares" in rec:
            solve = solves.get(rec["shares"])
            if solve is None:
                raise ValueError(f"{rec['cells']['run_id']} shares {rec['shares']!r}, "
                                 "which is not an earlier solve in the file")
        else:
            solve = solves[rec["cells"]["run_id"]] = rec
        pairs.append((rec, solve))
    return pairs


def _csv_text(pairs: Sequence[tuple[dict, dict]]) -> str:
    """records.csv, built row by row as strings from :func:`_resolve`'s pairs.

    A record's shared cells are formatted and quoted once, and so are the
    check cells of each solve; a reference's rows are its solve's, with its
    own ``lemma`` row in place of the first.  Of a check's cells only
    ``check_name`` can need quoting: in every payload ``lhs``, ``rhs`` and
    ``slack`` are floats and ``passed`` is a bool, which :func:`_fmt`
    writes without a comma, quote or newline.
    """
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}", ",".join(CSV_COLUMNS)]
    checks: dict[int, list[str]] = {}  # id of a solve's payload -> its check cells
    for rec, solve in pairs:
        cells = rec["cells"]
        head = ",".join(_csv_cell(_fmt(cells[col])) for col in RUN_COLUMNS)
        tail = ",".join(_csv_cell(_fmt(cells[col])) for col in FIT_COLUMNS)
        if (rows := checks.get(id(solve))) is None:
            rows = checks[id(solve)] = [_row_cells(row) for row in solve["rows"]]
        if rec.get("lemma") is not None:
            rows = [_row_cells(rec["lemma"]), *rows[1:]]
        lines += [f"{head},{row},{tail}" for row in rows]
    return "\n".join(lines) + "\n"


def _row_cells(row: dict) -> str:
    """The ``ROW_COLUMNS`` cells of one check, joined."""
    return (f"{_csv_cell(_fmt(row['check_name']))},{_fmt(row['lhs'])},"
            f"{_fmt(row['rhs'])},{_fmt(row['slack'])},{_fmt(row['passed'])}")


def _csv_cell(text: str) -> str:
    """``text`` as a records.csv cell: quoted, with its quotes doubled, when
    it holds a ``CSV_SPECIAL`` character."""
    if CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _plot_files(pairs: Sequence[tuple[dict, dict]]) -> dict[str, str]:
    """plotdata file name -> body, for every distribution the records carry.

    Each solve's distributions are rendered once, and a reference's files
    get its solve's bodies.
    """
    bodies: dict[tuple[int, str], str] = {}
    plots = {}
    for rec, solve in pairs:
        for suffix in ("u", "grad"):
            dist = solve[f"dist_{suffix}"]
            if dist is None:
                continue
            key = (id(solve), suffix)
            if key not in bodies:
                bodies[key] = _plot_body(*dist)
            plots[f"{rec['cells']['run_id']}_{suffix}.dat"] = bodies[key]
    return plots


def _plot_body(ks, mus) -> str:
    values = tuple(itertools.chain.from_iterable(zip(ks, mus)))
    return "# k mu(k)\n" + ("%.17g %.17g\n" * (len(values) // 2)) % values


def _summary_markdown(saved: Sequence[dict]) -> str:
    lines = ["# Run summary", "", "## Regime coverage", ""]
    order = ["m=1:distributional", "m=1:entropy", "m>1:finite_energy",
             "m>1:distributional", "m>1:entropy", "unclassified"]
    by_case: dict[str, list[dict]] = {key: [] for key in order}
    for rec in saved:
        by_case.setdefault(rec["case"], []).append(rec)
    lines.append("| case | runs | converged | all checks passed |")
    lines.append("| --- | --- | --- | --- |")
    for key in order:
        group = by_case.get(key, [])
        if not group and key == "unclassified":
            continue
        lines.append(f"| {key} | {len(group)} | "
                     f"{sum(r['cells']['converged'] for r in group)} | "
                     f"{sum(r['all_passed'] for r in group)} |")
    lines += ["", "## Runs", ""]
    lines.append("| run | gamma | p | m | N | delta | M | converged | truncation_active "
                 "| hit_iteration_cap | n_final | checks |")
    lines.append("| --- " * 12 + "|")
    for rec in saved:
        cells = rec["cells"]
        lines.append(
            f"| {cells['run_id']} | {cells['gamma']:g} | {cells['p']:g} | {cells['m']:g} "
            f"| {cells['N']} | {cells['delta']:g} | {cells['M']} "
            f"| {_fmt(cells['converged'])} | {_fmt(cells['truncation_active'])} "
            f"| {_fmt(cells['hit_iteration_cap'])} | {cells['n_final']} | {rec['n_checks']} |")
    return "\n".join(lines) + "\n"
