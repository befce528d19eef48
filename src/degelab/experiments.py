"""Solve-then-analyze pipelines: single runs, sweeps, refinement studies.

A run solves one problem by truncation continuation, attaches the regime
prediction, executes every enabled estimate checker, and fits the tail
exponents of the solution and its gradient.  Sweeps run the Cartesian
product of parameter axes with per-point failure isolation; output files
(records.csv, summary.md, plotdata/*.dat) are byte-deterministic apart
from a timestamp comment so repeated executions can be diffed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import (
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
    build_radial_grid,
    face_gradient,
    grid_function,
    quadrature_weights,
)
from .problem import (
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    RegimeCase,
    RegimePrediction,
    SingularAbsorption,
    classify_regime,
    datum_eval,
)
from .solver import SolverConfig, manufactured_rhs, truncation_continuation

__all__ = [
    "MeshSpec",
    "CheckSettings",
    "RunRecord",
    "SweepSpec",
    "ConvergenceRow",
    "ConvergenceStudy",
    "ProbeRow",
    "ProbeTable",
    "ALL_CHECKS",
    "CheckResults",
    "run_checks",
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

# Superlevel thresholds of the bg checker, as fractions of max|u|, and the
# number of cutoff levels k of the entropy checker.
BG_T_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
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
# prediction cells.  A payload stores the shared cells once.
RUN_COLUMNS = ("run_id", "gamma", "p", "m", "N", "delta", "M", "n_final",
               "converged", "truncation_active", "hit_iteration_cap")
ROW_COLUMNS = ("check_name", "lhs", "rhs", "slack", "passed")
FIT_COLUMNS = ("tail_u", "tail_grad", "predicted_grad")
CSV_COLUMNS = RUN_COLUMNS + ROW_COLUMNS + FIT_COLUMNS

# Names of the plotdata files emission writes, one pair per record.
PLOT_NAME = re.compile(r"run_\d+_(u|grad)\.dat")


@dataclass(frozen=True)
class MeshSpec:
    cells: int
    grading: float = 1.0


@dataclass(frozen=True)
class CheckSettings:
    """Tolerances and sampling families shared by the estimate checkers."""

    tolerance: float = 1e-4
    lambdas: tuple[float, ...] = (1.25, 2.0, 4.0)
    truncation_k_count: int = 8
    tail_tolerance: float = 0.15


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Everything measured about one solve; records are append-only."""

    run_id: str
    problem: ProblemSpec
    mesh: MeshSpec
    n_final: int
    converged: bool
    truncation_active: bool
    hit_iteration_cap: bool
    picard_iters: int  # accepted Newton steps summed over the truncation levels
    residual_inf: float
    prediction: RegimePrediction | None
    reports: dict[str, tuple[EstimateReport, ...]]
    skipped: dict[str, str]
    marcinkiewicz: MarcinkiewiczLemmaReport | None
    tail_u: TailFit | None
    tail_grad: TailFit | None
    dist_u: tuple[tuple[float, ...], tuple[float, ...]] | None
    dist_grad: tuple[tuple[float, ...], tuple[float, ...]] | None
    started_at: str
    duration_s: float
    failure: str | None = None
    solution: GridFunction | None = None  # kept in memory, never serialized

    @property
    def all_passed(self) -> bool:
        """Solved (converged, truncation inactive, no level capped) and
        every check passed."""
        return (self.converged and not self.truncation_active
                and not self.hit_iteration_cap
                and _checks_passed(self.reports))

    @cached_property
    def payload(self) -> dict:
        """Serialized form, built on first use; :func:`emit_outputs` and
        :func:`save_records` share it.  Read it, never modify it."""
        return _payload(self)


def _checks_passed(reports: dict[str, tuple[EstimateReport, ...]]) -> bool:
    return all(rep.passed for group in reports.values() for rep in group)


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
        return _checks_passed(self.reports)


def run_checks(u: GridFunction, spec: ProblemSpec, checks: Sequence[str] = ALL_CHECKS,
               settings: CheckSettings = CheckSettings()) -> CheckResults:
    """Execute every enabled, applicable checker on u and fit its tails.

    Each quantity of the solution is computed once and shared: the
    distribution functions and tail fits of u and |grad u| feed both the
    Marcinkiewicz check and the record, and each checker sampled over
    cutoff levels evaluates all its levels in one array pass.
    """
    grid = u.grid
    w = quadrature_weights(grid)
    f_nodal = grid_function(grid, lambda r: datum_eval(spec.datum, r))
    df_u = distribution_function(u, w)
    df_g = distribution_function(np.abs(face_gradient(u)), grid.face_weights)
    tail_u, tail_grad = tail_exponent_fit(df_u), tail_exponent_fit(df_g)
    u_max = u.max_abs()
    tol = settings.tolerance
    alpha = spec.coefficient.alpha
    gamma = spec.coefficient.gamma
    is_power = isinstance(spec.lower, PowerAbsorption)
    reports: dict[str, tuple[EstimateReport, ...]] = {}
    skipped: dict[str, str] = {}
    mk_report = None

    for name in checks:
        if name == "lemma":
            if not is_power:
                skipped[name] = "needs a power absorption term"
                continue
            reports[name] = (check_lemma_estimate(
                u, f_nodal, spec.lower.p, spec.datum.m, w, tol),)
        elif name == "bg":
            if not is_power:
                skipped[name] = "needs a power absorption term"
                continue
            ts = sorted({frac * u_max for frac in BG_T_FRACTIONS})
            reports[name] = tuple(check_bg_estimate(u, f_nodal, spec.lower.p, ts, w, tol))
        elif name == "weighted_energy":
            reports[name] = tuple(check_weighted_energy(u, f_nodal, gamma, settings.lambdas,
                                                        alpha, w, tol))
        elif name == "truncation_energy":
            ks = _checker_levels(u_max, settings.truncation_k_count)
            reports[name] = tuple(check_truncation_energy(
                u, f_nodal, gamma, alpha, ks, w, tol))
        elif name == "linfty":
            if not isinstance(spec.lower, SingularAbsorption):
                skipped[name] = "needs a singular absorption term"
                continue
            reports[name] = (check_linfty_bound(u, spec.lower, f_nodal),)
        elif name == "entropy":
            ks = _checker_levels(u_max, ENTROPY_K_COUNT)
            reports[name] = tuple(check_entropy_inequality(
                u, spec, None, ks, w, tol, f_values=f_nodal))
        elif name == "marcinkiewicz":
            mk_report = verify_marcinkiewicz_lemma(u, w, settings.tail_tolerance,
                                                   tails=(df_u, tail_u, tail_grad))
            if mk_report.applicable:
                reports[name] = (mk_report.verdict,)
            else:
                skipped[name] = mk_report.reason

    return CheckResults(
        reports=reports, skipped=skipped, marcinkiewicz=mk_report,
        tail_u=tail_u, tail_grad=tail_grad,
        dist_u=(tuple(df_u.k_levels.tolist()), tuple(df_u.measures.tolist())),
        dist_grad=(tuple(df_g.k_levels.tolist()), tuple(df_g.measures.tolist())),
    )


def _failed_record(run_id: str, spec: ProblemSpec, mesh: MeshSpec,
                   checks: Sequence[str], prediction: RegimePrediction | None,
                   started: str, duration_s: float, reason: str,
                   err: Exception) -> RunRecord:
    """Record of a point that produced no solution; every check is skipped."""
    return RunRecord(
        run_id=run_id, problem=spec, mesh=mesh, n_final=0, converged=False,
        truncation_active=True, hit_iteration_cap=False, picard_iters=0,
        residual_inf=math.inf, prediction=prediction,
        started_at=started, duration_s=duration_s,
        failure=f"{type(err).__name__}: {err}",
        **vars(CheckResults(skipped={name: reason for name in checks})),
    )


def run_single(spec: ProblemSpec, mesh: MeshSpec, cfg: SolverConfig,
               checks: Sequence[str] = ALL_CHECKS,
               settings: CheckSettings = CheckSettings(),
               run_id: str = "run_0000") -> RunRecord:
    """Solve one problem and execute every enabled, applicable checker."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    checks = tuple(checks)
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")

    grid = build_radial_grid(spec.dimension, spec.radius, mesh.cells, mesh.grading)
    prediction = None
    if isinstance(spec.lower, PowerAbsorption):
        prediction = classify_regime(spec.coefficient.gamma, spec.lower.p, spec.datum.m)

    try:
        result = truncation_continuation(grid, spec, cfg)
    except Exception as err:  # isolate solver blowups for sweep robustness
        return _failed_record(run_id, spec, mesh, checks, prediction, started,
                              time.perf_counter() - t0, "solver failed", err)

    converged = result.flags.converged
    if converged:
        checked = run_checks(result.u, spec, checks, settings)
    else:
        checked = CheckResults(skipped={name: "solver did not converge" for name in checks})
    return RunRecord(
        run_id=run_id, problem=spec, mesh=mesh, n_final=result.n_final,
        converged=converged,
        truncation_active=result.flags.truncation_active,
        hit_iteration_cap=result.flags.hit_iteration_cap,
        picard_iters=result.picard_iters,
        residual_inf=result.residual_inf, prediction=prediction,
        started_at=started, duration_s=time.perf_counter() - t0,
        solution=result.u if converged else None, **vars(checked),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over problem and mesh axes around a base problem.

    Axis names: gamma, p, m, N, delta, M.  Every point yields a record,
    flagged rather than dropped on failure; the product size is capped at
    ``SWEEP_CAP``.
    """

    base: ProblemSpec
    mesh: MeshSpec
    axes: dict[str, tuple[float, ...]] = field(default_factory=dict)
    cfg: SolverConfig = SolverConfig()
    checks: tuple[str, ...] = ALL_CHECKS
    settings: CheckSettings = CheckSettings()
    parallelism: int = 1


def _apply_axis_point(base: ProblemSpec, mesh: MeshSpec,
                      point: dict[str, float]) -> tuple[ProblemSpec, MeshSpec]:
    spec = base
    for key, val in point.items():
        if key == "gamma":
            spec = replace(spec, coefficient=replace(spec.coefficient, gamma=float(val)))
        elif key == "p":
            if not isinstance(spec.lower, PowerAbsorption):
                raise ValueError("axis 'p' requires a power absorption base problem")
            spec = replace(spec, lower=PowerAbsorption(float(val)))
        elif key == "m":
            spec = replace(spec, datum=replace(spec.datum, m=float(val)))
        elif key == "N":
            spec = replace(spec, dimension=int(val))
        elif key == "delta":
            if not isinstance(spec.datum.family, RadialPowerDatum):
                raise ValueError("axis 'delta' requires a radial power datum")
            spec = replace(spec, datum=replace(
                spec.datum, family=replace(spec.datum.family, delta=float(val))))
        elif key == "M":
            mesh = replace(mesh, cells=int(val))
        else:
            raise ValueError(f"unknown sweep axis {key!r}")
    return spec, mesh


def _sweep_point(args) -> RunRecord:
    sweep, idx, point = args
    run_id = f"run_{idx:04d}"
    started = datetime.now(timezone.utc).isoformat()
    try:
        spec, mesh = _apply_axis_point(sweep.base, sweep.mesh, point)
        return run_single(spec, mesh, sweep.cfg, sweep.checks, sweep.settings, run_id)
    except Exception as err:
        return _failed_record(run_id, sweep.base, sweep.mesh, sweep.checks, None,
                              started, 0.0, "point construction failed", err)


def run_sweep(sweep: SweepSpec) -> list[RunRecord]:
    """Run every point of the sweep in deterministic axis order."""
    names = list(sweep.axes.keys())
    values = [tuple(sweep.axes[name]) for name in names]
    combos = list(itertools.product(*values)) if names else [()]
    if len(combos) > SWEEP_CAP:
        raise ValueError(f"sweep size {len(combos)} exceeds cap {SWEEP_CAP}")
    tasks = [(sweep, idx, dict(zip(names, combo)))
             for idx, combo in enumerate(combos)]
    if sweep.parallelism > 1:
        with ProcessPoolExecutor(max_workers=sweep.parallelism) as pool:
            records = list(pool.map(_sweep_point, tasks))
    else:
        records = [_sweep_point(task) for task in tasks]
    return records


@dataclass(frozen=True)
class ConvergenceRow:
    cells: int
    error: float
    order: float  # vs the previous row; nan on the first


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]

    @property
    def observed_orders(self) -> tuple[float, ...]:
        return tuple(row.order for row in self.rows[1:])


def mesh_refinement_study(spec: ProblemSpec, u_star: Callable[[np.ndarray], np.ndarray],
                          M_list: Sequence[int], cfg: SolverConfig,
                          rhs: Callable[[np.ndarray], np.ndarray] | None = None,
                          grading: float | None = None) -> ConvergenceStudy:
    """Max-norm errors against a manufactured field under mesh refinement.

    The datum is the continuum source for which u_star solves the
    equation: either the closed form ``rhs`` when available, or a
    high-resolution discrete surrogate (manufactured on a mesh
    ``REFERENCE_FACTOR`` times finer than the largest study mesh and
    interpolated down, so its consistency error is negligible next to the
    study's own).
    """
    M_list = [int(m) for m in M_list]
    if rhs is None:
        fine = build_radial_grid(spec.dimension, spec.radius,
                                 REFERENCE_FACTOR * max(M_list), grading)
        star_fine = grid_function(fine, u_star)
        level = _inactive_level(cfg, star_fine.values)
        f_fine = manufactured_rhs(fine, spec, star_fine, level, cfg.face_scheme)

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
    return ConvergenceStudy(rows=tuple(rows))


def _inactive_level(cfg: SolverConfig, values: np.ndarray) -> int:
    """First schedule level that leaves the given values untouched."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    for level in cfg.n_schedule():
        if level > peak:
            return level
    return cfg.n_max


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

    For each delta the run is repeated on a mesh half as fine; a row is
    consistent when the absorption integral sum w |u|^(pm) is finite and
    changes by at most ``PROBE_STABILITY_THRESHOLD`` under that refinement
    and the measured gradient tail exponent reaches
    ``PROBE_TAIL_THRESHOLD`` of the predicted one.  Rows whose solution is
    too tame for a tail fit, or where either solve raised or did not
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
    coarse_mesh = MeshSpec(max(mesh.cells // 2, 8), mesh.grading)
    rows = []
    for delta in deltas:
        spec = replace(base, datum=replace(
            base.datum, family=replace(base.datum.family, delta=float(delta))))
        fine = run_single(spec, mesh, cfg, checks=())
        coarse = run_single(spec, coarse_mesh, cfg, checks=())

        integral = integral_coarse = change = math.nan
        tail_u_val = tail_grad_val = math.nan
        insufficient = True
        consistent = False
        if fine.converged and coarse.converged:
            integral = _absorption_integral(fine.solution, pm)
            integral_coarse = _absorption_integral(coarse.solution, pm)
            if math.isfinite(integral):
                change = abs(integral - integral_coarse) / max(abs(integral), 1e-300)
            tail_u_val = fine.tail_u.exponent if fine.tail_u.sufficient else math.nan
            tail_grad_val = fine.tail_grad.exponent if fine.tail_grad.sufficient else math.nan
            insufficient = not (fine.tail_u.sufficient and fine.tail_grad.sufficient)
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
    return float(np.dot(quadrature_weights(u.grid).values, np.abs(u.values) ** pm))


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
    return {
        "run_id": rec.run_id,
        "gamma": axes["gamma"], "p": axes["p"], "m": axes["m"],
        "N": int(axes["N"]), "delta": axes["delta"], "M": rec.mesh.cells,
        "n_final": rec.n_final, "converged": rec.converged,
        "truncation_active": rec.truncation_active,
        "hit_iteration_cap": rec.hit_iteration_cap,
        "tail_u": rec.tail_u.exponent if rec.tail_u and rec.tail_u.sufficient else math.nan,
        "tail_grad": (rec.tail_grad.exponent
                      if rec.tail_grad and rec.tail_grad.sufficient else math.nan),
        "predicted_grad": (rec.prediction.gradient_exponent
                           if rec.prediction else math.nan),
    }


def _check_rows(rec: RunRecord) -> list[dict]:
    """One dict of the ``ROW_COLUMNS`` cells per check of the record."""
    rows = [{"check_name": rep.label, "lhs": rep.lhs, "rhs": rep.rhs,
             "slack": rep.relative_slack, "passed": rep.passed}
            for group in rec.reports.values() for rep in group]
    if not rows:
        rows.append({"check_name": "solve_failed" if not rec.converged else "solve",
                     "lhs": rec.residual_inf, "rhs": math.nan, "slack": math.nan,
                     "passed": rec.converged})
    return rows


def _payload(rec: RunRecord) -> dict:
    """Serialized form of one record; every output file is rendered from it."""
    return {
        "cells": _shared_cells(rec),
        "rows": _check_rows(rec),
        "grading": rec.mesh.grading,
        "dist_u": rec.dist_u,
        "dist_grad": rec.dist_grad,
        "case": regime_label(rec.prediction, rec.problem.datum.m),
        "duration_s": rec.duration_s,
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
    ``ROW_COLUMNS`` cells of one check.
    """
    body = ",\n".join(json.dumps(rec.payload, allow_nan=True, separators=(",", ":"))
                       for rec in records)
    Path(path).write_text(f"[\n{body}\n]\n" if body else "[]\n")


def load_records(path) -> list[dict]:
    return json.loads(Path(path).read_text())


def emit_from_saved(saved: Sequence[dict], out_dir) -> dict[str, Path]:
    """Write the output files from record payloads, fresh or loaded from JSON.

    :func:`emit_outputs` renders through here too, so ``report`` rewrites
    exactly what ``solve`` and ``sweep`` wrote, apart from the timestamp.
    Every file is rendered in memory before the first directory is made or
    file written, so a stale or malformed payload (one missing a key, or
    one saved before the shared cells moved under ``cells``) raises and
    leaves the output directory as it was.  Once every file is written,
    the ``plotdata/run_NNNN_{u,grad}.dat`` files that this call did not
    write, left by an earlier and larger run, are deleted; no other file
    is touched.
    """
    csv_text = _csv_text(saved)
    summary = _summary_markdown(saved)
    plots = {f"{rec['cells']['run_id']}_{suffix}.dat": _plot_body(rec[f"dist_{suffix}"])
             for rec in saved for suffix in ("u", "grad")
             if rec[f"dist_{suffix}"] is not None}

    out = Path(out_dir)
    plotdir = out / "plotdata"
    plotdir.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    csv_path.write_text(csv_text)
    md_path = out / "summary.md"
    md_path.write_text(summary)
    for name, body in plots.items():
        (plotdir / name).write_text(body)
    for path in plotdir.iterdir():
        if PLOT_NAME.fullmatch(path.name) and path.name not in plots:
            path.unlink()
    return {"csv": csv_path, "summary": md_path, "plotdata": plotdir}


def _csv_text(saved: Sequence[dict]) -> str:
    """records.csv: each record's shared cells are formatted once."""
    text = io.StringIO()
    text.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in saved:
        cells = rec["cells"]
        head = [_fmt(cells[col]) for col in RUN_COLUMNS]
        tail = [_fmt(cells[col]) for col in FIT_COLUMNS]
        writer.writerows([*head, *[_fmt(row[col]) for col in ROW_COLUMNS], *tail]
                         for row in rec["rows"])
    return text.getvalue()


def _plot_body(dist) -> str:
    body = ["# k mu(k)"]
    body += [f"{k:.17g} {mu:.17g}" for k, mu in zip(*dist)]
    return "\n".join(body) + "\n"


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
