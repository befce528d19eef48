"""Command-line entry point: config files in, solves and reports out.

Subcommands: ``solve`` (single run plus outputs), ``sweep`` (Cartesian
parameter sweep), ``verify`` (audit the field ``solve`` stored, named by
the required ``--solution``, with every checker plus the solver's
residual contract; it solves nothing), ``mms`` (mesh refinement study)
and ``report`` (rewrite the outputs from stored records, exactly as
``solve`` or ``sweep`` wrote them).  Configuration lives in an INI-style
file; only the mesh size and the output directory can be overridden from
the command line, so a config file pins a reproducible run.

A config is read by a table of its keys and built through the spec
constructors, which own every rule on a value; the config reports each
violation under its section, all of them at once, and exits 3.

Exit codes, one meaning each: 0 success; 1 a stored field failed its
audit (``verify``); 2 a run left unsolved (``solve``, ``sweep``); 3 a
config or usage error, ``verify`` without ``--solution`` among them.

The audit's tolerances are constants of ``degelab.analysis``
(``CHECK_TOLERANCE``, ``TAIL_TOLERANCE``), its sampling families constants
of ``degelab.experiments`` (``WEIGHTED_ENERGY_LAMBDAS`` and its neighbours),
and the Newton iteration's p < 1 regularization and barrier margin are
constants of ``degelab.solver`` (``EPS_P``, ``SINGULAR_MARGIN``); no config
sets them.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .experiments import (
    MeshSpec,
    SweepSpec,
    _apply_axis_point,
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
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    SingularAbsorption,
    datum_eval,
    datum_in_class,
    replace_unchecked,
)
from .solver import FIRST_LEVEL, DiscreteProblem, SolverConfig

__all__ = ["Config", "ConfigError", "parse_config", "dispatch", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# One row per config key: (section, key, type, default, target field).  The
# target is a field of a spec or of Config; a default of None leaves it to
# the spec (a dataclass default, no absorption or delta, beta = alpha).
_KEYS = (
    ("problem", "N", int, 3, "dimension"),
    ("problem", "R", float, 1.0, "radius"),
    ("problem", "gamma", float, 0.0, "gamma"),
    ("problem", "alpha", float, 1.0, "alpha"),
    ("problem", "beta", float, None, "beta"),
    ("problem", "p", float, None, "p"),
    ("problem", "sigma", float, None, "sigma"),
    ("problem", "datum", str, "constant", "family"),
    ("problem", "amplitude", float, 1.0, "amplitude"),
    ("problem", "delta", float, None, "delta"),
    ("problem", "m", float, None, "m"),
    ("mesh", "M", int, 256, "cells"),
    ("mesh", "grading", float, None, "grading"),
    ("solver", "picard_max", int, None, "picard_max"),
    ("solver", "newton_tol", float, None, "newton_tol"),
    ("solver", "n_max", int, None, "n_max"),
    ("output", "directory", str, "out", "output_dir"),
    *(("sweep", axis, _float_list, None, "sweep_axes")
      for axis in ("gamma", "p", "m", "N", "delta", "M")),
    ("sweep", "parallelism", int, None, None),  # no effect; warns
    ("mms", "M_list", _float_list, (64.0, 128.0, 256.0), "mms_cells"),
    ("mms", "amplitude", float, 1.0, "mms_amplitude"),
)

_KNOWN_KEYS = {section: {key for sec, key, *_ in _KEYS if sec == section}
               for section, *_ in _KEYS}


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
    output_dir: str
    sweep_axes: dict[str, tuple[float, ...]]
    mms_cells: tuple[int, ...]
    mms_amplitude: float


def _get(parser, section, key, cast, default, errors):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        val = cast(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: cannot parse {raw!r}")
        return default
    if isinstance(val, (float, tuple)) and not np.isfinite(val).all():
        errors.append(f"[{section}] {key}: must be finite, got {val}")
        return default
    return val


def _not_in_class(section: str, spec: ProblemSpec, where: str = "") -> str:
    return (f"[{section}] datum r^(-{spec.datum.family.delta}) is not in L^{spec.datum.m} "
            f"of the {spec.dimension}-ball (needs delta*m < N{where})")


def parse_config(text: str) -> Config:
    """Parse a sectioned key-value config into the specs it describes; all
    violations are collected and raised together in a ConfigError."""
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

    given: dict = {}
    axes: dict[str, tuple[float, ...]] = {}
    for section, key, cast, default, target in _KEYS:
        value = _get(parser, section, key, cast, default, errors)
        if value is None:
            continue
        if target == "sweep_axes":
            axes[key] = value
        elif target is not None:
            given[target] = value
        elif value < 1:
            errors.append(f"[sweep] {key}: must be positive, got {value}")
    if parser.has_option("sweep", "parallelism"):
        warnings.warn("[sweep] parallelism has no effect: every sweep runs its "
                      "points in one process", FutureWarning, stacklevel=2)
    if axes:  # a sweep runs its axes in the order the config lists them
        axes = {key: axes[key] for key in parser.options("sweep") if key in axes}

    def build(cls, section="problem"):
        """``cls`` from the values of its fields in ``given``.  A rule it breaks
        is a violation of ``section``, and the object is made unchecked so
        that the spec holding it still checks its own rules."""
        values = {f.name: given[f.name] for f in fields(cls) if f.name in given}
        try:
            return cls(**values)
        except ValueError as err:
            errors.append(f"[{section}] {err}")
            return replace_unchecked(object.__new__(cls), **values)

    before = len(errors)
    if "p" in given and "sigma" in given:
        errors.append("[problem] lower-order term must be exactly one kind: "
                      "give p (power) or sigma (singular), not both")
    lower = (PowerAbsorption if "p" in given else
             SingularAbsorption if "sigma" in given else NoAbsorption)
    kind = given["family"].lower()
    radial = kind in ("radial_power", "radialpower")
    if not radial and kind != "constant":
        errors.append(f"[problem] datum: unknown family {kind!r}")
    elif radial and "delta" not in given:
        errors.append("[problem] datum=radial_power requires delta")
    elif not radial and "delta" in given:
        errors.append("[problem] delta: only datum=radial_power takes delta")
    # the datum key names the family; the family built takes its place
    given["family"] = build(RadialPowerDatum if radial and "delta" in given else ConstantDatum)
    given.setdefault("beta", given["alpha"])
    given["coefficient"] = build(CoefficientSpec)
    given["lower"] = build(lower)
    given["datum"] = build(DatumSpec)
    problem = build(ProblemSpec)
    if len(errors) == before and not datum_in_class(problem):  # once it builds
        errors.append(_not_in_class("problem", problem))
    mesh = build(MeshSpec, "mesh")
    solver = build(SolverConfig, "solver")

    if not errors:  # sweep points and mms meshes vary a base that builds
        try:
            SweepSpec(base=problem, mesh=mesh, axes=axes)
        except ValueError as err:
            errors.append(f"[sweep] {err}")
        for val in given["mms_cells"]:
            try:
                _apply_axis_point(problem, mesh, {"M": val})
            except ValueError as err:
                errors.append(f"[mms] M_list: {err}")
                break
    if not errors:  # the datum's claimed class holds at every point
        keys = [key for key in axes if key in ("delta", "m", "N")]
        for combo in itertools.product(*(axes[key] for key in keys)):
            spec, _ = _apply_axis_point(problem, mesh, dict(zip(keys, combo)))
            if not datum_in_class(spec):
                errors.append(_not_in_class("sweep", spec, " at every point"))
                break
    if errors:
        raise ConfigError(errors)

    return Config(problem=problem, mesh=mesh, solver=solver,
                  output_dir=given["output_dir"], sweep_axes=axes,
                  mms_cells=tuple(int(cells) for cells in given["mms_cells"]),
                  mms_amplitude=given["mms_amplitude"])


def _print_reports(checks) -> None:  # in ALL_CHECKS order, as records.csv
    for group in checks.reports.values():
        for rep in group:
            status = "pass" if rep.passed else "FAIL"
            print(f"  [{status}] {rep.label} lhs={rep.lhs:.6e} "
                  f"rhs={rep.rhs:.6e} slack={rep.relative_slack:.3e}")
    for name, reason in checks.skipped.items():
        print(f"  [skip] {name}: {reason}")


def _exit_code(records) -> int:
    """``solve``'s and ``sweep``'s exit: 0 when every run is solved, else 2."""
    return EXIT_OK if all(rec.solved for rec in records) else EXIT_NOT_CONVERGED


def _cmd_solve(config: Config, out_dir: Path) -> int:
    record = run_single(config.problem, config.mesh, config.solver)
    out_dir.mkdir(parents=True, exist_ok=True)
    if record.solution is not None:
        write_grid_function(record.solution, out_dir / "solution.dat",
                            extra={"n_final": record.n_final})
    else:
        # an older run's field must not sit beside this run's solve_failed records
        (out_dir / "solution.dat").unlink(missing_ok=True)
    emit_outputs([record], out_dir)
    save_records([record], out_dir / "records.json")
    _print_reports(record.checks)
    print(f"converged={record.converged} truncation_active={record.truncation_active} "
          f"n_final={record.n_final} residual={record.residual_inf:.3e} "
          f"stop={record.flags.stop.value}")
    return _exit_code([record])


def _cmd_sweep(config: Config, out_dir: Path) -> int:
    sweep = SweepSpec(base=config.problem, mesh=config.mesh, axes=config.sweep_axes,
                      cfg=config.solver)
    records = run_sweep(sweep)
    emit_outputs(records, out_dir)
    save_records(records, out_dir / "records.json")
    print(f"{len(records)} runs, {sum(rec.converged for rec in records)} converged, "
          f"{sum(rec.solved for rec in records)} solved, outputs in {out_dir}")
    return _exit_code(records)


def _cmd_verify(config: Config, solution_path: str | None) -> int:
    if solution_path is None:
        raise ConfigError(["verify audits a stored field and needs --solution: run "
                           "`degelab solve CONFIG -o DIR`, then "
                           "`degelab verify CONFIG --solution DIR/solution.dat`"])
    residual, bound, clipped, checked = _verify_solution_file(config, solution_path)
    res_ok = residual <= bound
    print(f"  [{'pass' if res_ok else 'FAIL'}] residual |r|={residual:.3e} "
          f"bound={bound:.3e}")
    if clipped:
        print("  [FAIL] truncation_active=True: the stored level clips the field or the datum")
    _print_reports(checked)
    return EXIT_OK if res_ok and not clipped and checked.all_passed else EXIT_CHECK_FAILED


def _verify_solution_file(config: Config, solution_path: str):
    """Audit a stored solution: its residual, its bound, whether its level
    still clips it or the datum, and every checker.

    The field is audited against the discrete problem of the config at the
    file's final truncation level n; the residual bound is that problem's
    convergence contract, the solver's own.  A file that cannot be read or
    parsed, and a datum that is not finite at its nodes, are reported as a
    ConfigError.
    """
    try:
        u, extra = read_grid_function(solution_path)
        n_final = int(extra.get("n_final", config.solver.n_max))
        if config.solver.level_at_least(n_final) != n_final:
            raise ValueError(f"n_final {n_final} is not a level of the truncation "
                             f"schedule, doubling from {FIRST_LEVEL} to "
                             f"{config.solver.n_max}")
    except (OSError, ValueError) as err:
        raise ConfigError([f"cannot read solution {solution_path} "
                           f"({type(err).__name__}: {err})"]) from err
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
    try:
        with np.errstate(over="ignore"):  # an overflowing datum is reported below
            f_nodal = datum_eval(spec.datum, grid.nodes)
        problem = DiscreteProblem(grid, spec, f_nodal, n_final)
    except ValueError as err:
        raise ConfigError([f"cannot audit {solution_path} against the config's datum "
                           f"({type(err).__name__}: {err})"]) from err
    return (problem.residual_norm(u.values), problem.tolerance(config.solver.newton_tol),
            problem.truncation_active(u.values), run_checks(u, problem))


def _cmd_mms(config: Config, out_dir: Path) -> int:
    spec = config.problem
    amp = config.mms_amplitude
    radius = spec.radius

    def u_star(r):
        return amp * (1.0 - (r / radius) ** 2)

    rows = mesh_refinement_study(spec, u_star, config.mms_cells, config.solver,
                                 grading=config.mesh.grading)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["cells,error,order"]
    for row in rows:
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
        try:
            config = replace(config, mesh=replace(config.mesh, cells=mesh_override))
        except ValueError as err:
            print(f"mesh override: {err}", file=sys.stderr)
            return EXIT_CONFIG
    out_dir = Path(output_override or config.output_dir)
    try:
        if command == "solve":
            return _cmd_solve(config, out_dir)
        if command == "sweep":
            return _cmd_sweep(config, out_dir)
        if command == "verify":
            return _cmd_verify(config, solution_path)
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
                      ("verify", "audit a stored solution file; exit 1 on a failed audit"),
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
                             help="the solution file solve wrote (required)")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG

    return dispatch(args.command, config,
                    solution_path=getattr(args, "solution", None),
                    mesh_override=args.mesh_size, output_override=args.output)


if __name__ == "__main__":
    sys.exit(main())
