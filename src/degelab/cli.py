"""Command-line entry point: config files in, solves and reports out.

Subcommands: ``solve`` (single run plus outputs), ``sweep`` (Cartesian
parameter sweep), ``verify`` (run every checker and exit nonzero on any
failure; ``--solution`` audits a previously written solution file with
the same checkers plus the solver's residual contract), ``mms`` (mesh
refinement study) and ``report`` (rewrite the outputs from stored
records, exactly as ``solve`` or ``sweep`` wrote them).  Configuration
lives in an INI-style file; only the mesh size and the output directory
can be overridden from the command line, so a config file pins a
reproducible run.

Exit codes: 0 success, 1 failed check (verify), 2 solver non-convergence
(for ``solve`` also a final level that still clips the datum or the
solution), 3 configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .experiments import (
    ALL_CHECKS,
    CheckSettings,
    MeshSpec,
    SweepSpec,
    emit_from_saved,
    emit_outputs,
    load_records,
    mesh_refinement_study,
    run_checks,
    run_single,
    run_sweep,
    save_records,
)
from .grid import read_grid_function, write_grid_function
from .problem import (
    BumpDatum,
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
from .solver import FACE_SCHEMES, SolverConfig, residual_norm

__all__ = ["Config", "ConfigError", "parse_config", "dispatch", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3

_KNOWN_KEYS = {
    "problem": {"N", "R", "gamma", "alpha", "beta", "p", "sigma", "datum",
                "amplitude", "delta", "center", "width", "m"},
    "mesh": {"M", "grading"},
    "solver": {"picard_max", "newton_tol", "n_max", "face_scheme", "eps_p",
               "singular_margin"},
    "checks": {"enable", "tolerance", "lambdas", "k_levels", "tail_tolerance"},
    "output": {"directory"},
    "sweep": {"gamma", "p", "m", "N", "delta", "M", "parallelism"},
    "mms": {"M_list", "amplitude"},
}


class ConfigError(Exception):
    """Carries every validation violation found in a config file."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class Config:
    problem: ProblemSpec
    mesh: MeshSpec
    solver: SolverConfig
    checks: tuple[str, ...]
    settings: CheckSettings
    output_dir: str
    sweep_axes: dict[str, tuple[float, ...]]
    sweep_parallelism: int
    mms_cells: tuple[int, ...]
    mms_amplitude: float


def _get(parser, section, key, cast, default, errors, positive=False):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        val = cast(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: cannot parse {raw!r}")
        return default
    if positive and not (val > 0):
        errors.append(f"[{section}] {key}: must be positive, got {val}")
        return default
    return val


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def parse_config(text: str) -> Config:
    """Parse and validate a sectioned key-value config.

    All violations are collected and raised together in a ConfigError,
    not just the first one found.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys like N, R, M are case-significant
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError([f"syntax: {err}"]) from err

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key {key!r} in section [{section}]")

    pr = "problem"
    N = _get(parser, pr, "N", int, 3, errors)
    R = _get(parser, pr, "R", float, 1.0, errors, positive=True)
    gamma = _get(parser, pr, "gamma", float, 0.0, errors)
    alpha = _get(parser, pr, "alpha", float, 1.0, errors, positive=True)
    beta = _get(parser, pr, "beta", float, None, errors)
    p = _get(parser, pr, "p", float, None, errors)
    sigma = _get(parser, pr, "sigma", float, None, errors)
    datum_kind = _get(parser, pr, "datum", str, "constant", errors)
    amplitude = _get(parser, pr, "amplitude", float, 1.0, errors)
    delta = _get(parser, pr, "delta", float, None, errors)
    center = _get(parser, pr, "center", float, 0.5, errors)
    width = _get(parser, pr, "width", float, 0.1, errors)
    m = _get(parser, pr, "m", float, 1.0, errors)

    if N < 3:
        errors.append(f"[problem] N: dimension must be >= 3, got {N}")
    if gamma < 0:
        errors.append(f"[problem] gamma: must be nonnegative, got {gamma}")
    if beta is None:
        beta = alpha
    if beta < alpha:
        errors.append(f"[problem] beta={beta} must be >= alpha={alpha}")
    if p is not None and sigma is not None:
        errors.append("[problem] lower-order term must be exactly one kind: "
                      "give p (power) or sigma (singular), not both")
    if p is not None and not (p > 0):
        errors.append(f"[problem] p: must be positive, got {p}")
    if sigma is not None and not (sigma > 0):
        errors.append(f"[problem] sigma: must be positive, got {sigma}")
    if m < 1:
        errors.append(f"[problem] m: Lebesgue class must be >= 1, got {m}")

    datum_kind = datum_kind.strip().lower()
    family = None
    if datum_kind == "constant":
        family = ConstantDatum(amplitude)
    elif datum_kind in ("radial_power", "radialpower"):
        if delta is None:
            errors.append("[problem] datum=radial_power requires delta")
        elif not (delta > 0):
            errors.append(f"[problem] delta: must be positive, got {delta}")
        else:
            family = RadialPowerDatum(amplitude, delta)
            if delta * m >= N:
                errors.append(
                    f"[problem] datum r^(-{delta}) is not in L^{m} of the "
                    f"{N}-ball (needs delta*m < N)")
    elif datum_kind == "bump":
        if width <= 0:
            errors.append(f"[problem] width: must be positive, got {width}")
        else:
            family = BumpDatum(amplitude, center, width)
    else:
        errors.append(f"[problem] datum: unknown family {datum_kind!r}")

    if sigma is not None and amplitude < 0:
        errors.append("[problem] singular absorption requires a nonnegative datum")

    me = "mesh"
    M = _get(parser, me, "M", int, 256, errors)
    grading = _get(parser, me, "grading", float, 1.0, errors)
    if M < 8:
        errors.append(f"[mesh] M: cell count must be >= 8, got {M}")
    if not (1.0 <= grading <= 4.0):
        errors.append(f"[mesh] grading: must lie in [1, 4], got {grading}")

    so, sd = "solver", SolverConfig()
    picard_max = _get(parser, so, "picard_max", int, sd.picard_max, errors, positive=True)
    newton_tol = _get(parser, so, "newton_tol", float, sd.newton_tol, errors, positive=True)
    n_max = _get(parser, so, "n_max", int, sd.n_max, errors, positive=True)
    face_scheme = _get(parser, so, "face_scheme", str, sd.face_scheme, errors).strip()
    eps_p = _get(parser, so, "eps_p", float, sd.eps_p, errors, positive=True)
    margin = _get(parser, so, "singular_margin", float, sd.singular_margin, errors,
                  positive=True)
    if face_scheme not in FACE_SCHEMES:
        errors.append(f"[solver] face_scheme: must be {' or '.join(FACE_SCHEMES)}, "
                      f"got {face_scheme!r}")

    ch, cd = "checks", CheckSettings()
    enable_raw = _get(parser, ch, "enable", str, "all", errors)
    tolerance = _get(parser, ch, "tolerance", float, cd.tolerance, errors, positive=True)
    lambdas = _get(parser, ch, "lambdas", _float_list, cd.lambdas, errors)
    k_count = _get(parser, ch, "k_levels", int, cd.truncation_k_count, errors, positive=True)
    tail_tol = _get(parser, ch, "tail_tolerance", float, cd.tail_tolerance, errors,
                    positive=True)
    if enable_raw.strip().lower() == "all":
        enabled = ALL_CHECKS
    else:
        enabled = tuple(tok.strip() for tok in enable_raw.split(",") if tok.strip())
        for tok in enabled:
            if tok not in ALL_CHECKS:
                errors.append(f"[checks] enable: unknown checker {tok!r} "
                              f"(known: {', '.join(ALL_CHECKS)})")
    for lam in lambdas:
        if lam <= 1.0:
            errors.append(f"[checks] lambdas: every value must exceed 1, got {lam}")

    output_dir = _get(parser, "output", "directory", str, "out", errors)

    axes: dict[str, tuple[float, ...]] = {}
    parallelism = 1
    if parser.has_section("sweep"):
        for key in parser.options("sweep"):
            if key == "parallelism":
                parallelism = _get(parser, "sweep", "parallelism", int, 1, errors,
                                   positive=True)
            elif key in _KNOWN_KEYS["sweep"]:
                try:
                    axes[key] = _float_list(parser.get("sweep", key))
                except ValueError:
                    errors.append(f"[sweep] {key}: cannot parse value list")

    mms_cells = _get(parser, "mms", "M_list", lambda s: tuple(
        int(tok) for tok in _float_list(s)), (64, 128, 256), errors)
    mms_amplitude = _get(parser, "mms", "amplitude", float, 1.0, errors)

    if errors:
        raise ConfigError(errors)

    lower = NoAbsorption()
    if p is not None:
        lower = PowerAbsorption(p)
    elif sigma is not None:
        lower = SingularAbsorption(sigma)

    try:
        problem = ProblemSpec(
            dimension=N, radius=R,
            coefficient=CoefficientSpec(alpha=alpha, beta=beta, gamma=gamma),
            lower=lower, datum=DatumSpec(family, m),
        )
        solver = SolverConfig(picard_max=picard_max, newton_tol=newton_tol, n_max=n_max,
                              eps_p=eps_p, singular_margin=margin, face_scheme=face_scheme)
    except ValueError as err:
        raise ConfigError([str(err)]) from err

    settings = CheckSettings(tolerance=tolerance, lambdas=tuple(lambdas),
                             truncation_k_count=k_count, tail_tolerance=tail_tol)
    return Config(problem=problem, mesh=MeshSpec(M, grading), solver=solver,
                  checks=enabled, settings=settings, output_dir=output_dir,
                  sweep_axes=axes, sweep_parallelism=parallelism,
                  mms_cells=mms_cells, mms_amplitude=mms_amplitude)


def _print_reports(record) -> None:
    for name, group in sorted(record.reports.items()):
        for rep in group:
            status = "pass" if rep.passed else "FAIL"
            print(f"  [{status}] {rep.label} lhs={rep.lhs:.6e} "
                  f"rhs={rep.rhs:.6e} slack={rep.relative_slack:.3e}")
    for name, reason in sorted(record.skipped.items()):
        print(f"  [skip] {name}: {reason}")


def _cmd_solve(config: Config, out_dir: Path) -> int:
    record = run_single(config.problem, config.mesh, config.solver,
                        config.checks, config.settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    if record.solution is not None:
        write_grid_function(record.solution, out_dir / "solution.dat",
                            extra={"n_final": record.n_final})
    emit_outputs([record], out_dir)
    save_records([record], out_dir / "records.json")
    _print_reports(record)
    print(f"converged={record.converged} truncation_active={record.truncation_active} "
          f"n_final={record.n_final} residual={record.residual_inf:.3e}")
    return EXIT_OK if record.converged and not record.truncation_active else EXIT_NOT_CONVERGED


def _cmd_sweep(config: Config, out_dir: Path) -> int:
    sweep = SweepSpec(base=config.problem, mesh=config.mesh, axes=config.sweep_axes,
                      cfg=config.solver, checks=config.checks,
                      settings=config.settings, parallelism=config.sweep_parallelism)
    records = run_sweep(sweep)
    emit_outputs(records, out_dir)
    save_records(records, out_dir / "records.json")
    bad = [rec for rec in records if not rec.converged]
    print(f"{len(records)} runs, {len(records) - len(bad)} converged, "
          f"outputs in {out_dir}")
    return EXIT_NOT_CONVERGED if bad else EXIT_OK


def _cmd_verify(config: Config, out_dir: Path, solution_path: str | None) -> int:
    if solution_path is None:
        record = run_single(config.problem, config.mesh, config.solver,
                            ALL_CHECKS, config.settings)
        _print_reports(record)
        if not record.converged:
            print("solver did not converge")
            return EXIT_NOT_CONVERGED
        if record.truncation_active or record.hit_iteration_cap:
            print(f"  [FAIL] solve flags truncation_active={record.truncation_active} "
                  f"hit_iteration_cap={record.hit_iteration_cap} at n_final={record.n_final}")
        return EXIT_OK if record.all_passed else EXIT_CHECK_FAILED
    residual, bound, checked = _verify_solution_file(config, solution_path)
    res_ok = residual <= bound
    print(f"  [{'pass' if res_ok else 'FAIL'}] residual |r|={residual:.3e} "
          f"bound={bound:.3e}")
    _print_reports(checked)
    return EXIT_OK if res_ok and checked.all_passed else EXIT_CHECK_FAILED


def _verify_solution_file(config: Config, solution_path: str):
    """Audit a stored solution: its residual, its bound, and every checker.

    The residual bound is the solver's own convergence contract,
    newton_tol * (1 + |T_n f|_inf) at the file's final truncation level n.
    """
    u, extra = read_grid_function(solution_path)
    grid = u.grid
    spec = config.problem
    if (grid.N, grid.M) != (spec.dimension, config.mesh.cells) or \
            not math.isclose(grid.R, spec.radius) or \
            not math.isclose(grid.grading, config.mesh.grading):
        raise ConfigError([
            f"solution file mesh (N={grid.N}, R={grid.R}, M={grid.M}, "
            f"grading={grid.grading}) does not match config "
            f"(N={spec.dimension}, R={spec.radius}, M={config.mesh.cells}, "
            f"grading={config.mesh.grading})"])
    n_final = int(extra.get("n_final", config.solver.n_max))
    f_nodal = np.asarray(datum_eval(spec.datum, grid.nodes), dtype=float)
    residual = residual_norm(grid, spec, u, n_final, scheme=config.solver.face_scheme)
    bound = config.solver.newton_tol * (
        1.0 + float(np.max(np.abs(np.clip(f_nodal, -n_final, n_final)))))
    return residual, bound, run_checks(u, spec, ALL_CHECKS, config.settings)


def _cmd_mms(config: Config, out_dir: Path) -> int:
    spec = config.problem
    amp = config.mms_amplitude
    radius = spec.radius

    def u_star(r):
        return amp * (1.0 - (r / radius) ** 2)

    study = mesh_refinement_study(spec, u_star, config.mms_cells, config.solver,
                                  grading=config.mesh.grading)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["cells,error,order"]
    for row in study.rows:
        lines.append(f"{row.cells},{row.error!r},{row.order!r}")
        print(f"  M={row.cells:5d}  error={row.error:.6e}  order={row.order:.3f}")
    (out_dir / "mms.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_report(config: Config, out_dir: Path) -> int:
    records_path = out_dir / "records.json"
    if not records_path.exists():
        print(f"no stored records at {records_path}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        emit_from_saved(load_records(records_path), out_dir)
    except (ValueError, KeyError, TypeError) as err:
        print(f"cannot re-emit from {records_path} ({type(err).__name__}: {err}); "
              "rerun solve or sweep to rewrite it", file=sys.stderr)
        return EXIT_CONFIG
    print(f"re-emitted outputs in {out_dir}")
    return EXIT_OK


def dispatch(command: str, config: Config, solution_path: str | None = None,
             mesh_override: int | None = None,
             output_override: str | None = None) -> int:
    """Route a parsed config to its command implementation."""
    if mesh_override is not None:
        if mesh_override < 8:
            print(f"mesh override must be >= 8, got {mesh_override}", file=sys.stderr)
            return EXIT_CONFIG
        config = replace(config, mesh=replace(config.mesh, cells=mesh_override))
    out_dir = Path(output_override or config.output_dir)
    try:
        if command == "solve":
            return _cmd_solve(config, out_dir)
        if command == "sweep":
            return _cmd_sweep(config, out_dir)
        if command == "verify":
            return _cmd_verify(config, out_dir, solution_path)
        if command == "mms":
            return _cmd_mms(config, out_dir)
        if command == "report":
            return _cmd_report(config, out_dir)
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"unknown command {command!r}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="degelab",
        description="Radial solver and estimate checker for elliptic problems "
                    "with degenerate coercivity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "solve one problem and write outputs"),
                      ("sweep", "run a parameter sweep"),
                      ("verify", "run all checkers; nonzero exit on failure"),
                      ("mms", "manufactured-solution refinement study"),
                      ("report", "re-emit outputs from stored records")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("config", help="path to the INI config file")
        cmd.add_argument("-M", "--mesh-size", type=int, default=None,
                         help="override the mesh cell count")
        cmd.add_argument("-o", "--output", default=None,
                         help="override the output directory")
        if name == "verify":
            cmd.add_argument("--solution", default=None,
                             help="audit this stored solution file instead of solving")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG

    return dispatch(args.command, config,
                    solution_path=getattr(args, "solution", None),
                    mesh_override=args.mesh_size, output_override=args.output)


if __name__ == "__main__":
    sys.exit(main())
