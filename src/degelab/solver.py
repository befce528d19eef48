"""Discretization and nonlinear solve of the regularized problems.

The quasilinear equation is attacked level by level: at truncation level n
the diffusion coefficient is evaluated at the clipped field T_n(u) and the
datum is clipped to T_n(f).  A level below max|f| clips the datum whatever
u is, so it cannot be the answer; the climb therefore starts at the first
level of the schedule that reaches max|f| at the nodes, from u = 0, and
doubles until the clipping no longer touches u either.  Each level is one
damped Newton iteration on the full residual F(u) = A_n(u) u + g(u) - T_n f
with its exact Jacobian A_n(u) + diag(g'(u)) + d_u[A_n(u)] u.  Every face
coefficient depends on its two adjacent nodes at most, so that Jacobian is
tridiagonal.  A step that the exact Jacobian does not get accepted at full
length is taken instead along the frozen-coefficient direction
A_n(u) + diag(g'(u)) from the same point, with backtracking; every trial
point is reassembled.  ``converged`` always means
residual <= newton_tol * (1 + |T_n f|_inf).

Conservative flux form: row i of the operator is
-(F_{i+1/2} - F_{i-1/2}) / V_i with flux
F = r_f^(N-1) a_f (u_{i+1} - u_i)/d_f and V_i the exact shell volume of
cell i.  Face coefficients take the frozen value at the adjacent node of
larger |u| ("upwinded degeneracy", the smaller coefficient), which makes
the discrete energy chain inequalities used by the estimate checkers hold
exactly rather than asymptotically.  Arithmetic-mean faces are available
for convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import GridFunction, RadialGrid
from .problem import (
    CoefficientSpec,
    LowerOrderTerm,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    SingularAbsorption,
    coefficient_eval,
    datum_eval,
    lower_order_eval,
)

__all__ = [
    "FACE_SCHEMES",
    "SolverConfig",
    "DiscreteOperator",
    "SolveFlags",
    "SolveResult",
    "SingularOperatorError",
    "face_upwind_values",
    "face_coefficients",
    "assemble_frozen",
    "apply_operator",
    "tridiag_solve",
    "newton_semilinear",
    "picard_solve",
    "truncation_continuation",
    "residual_norm",
    "manufactured_rhs",
]

TraceSink = Callable[[str], None]

FIRST_LEVEL = 1            # first level of the truncation schedule
DAMPING_MIN = 2.0**-20     # smallest line-search step factor
FACE_SCHEMES = ("upwind", "arithmetic")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, caps and schedule for the level-by-level Newton solve.

    The fields are exactly the ``[solver]`` keys of a config file.
    """

    picard_max: int = 200             # Newton steps per truncation level or Newton solve
    newton_tol: float = 1e-10         # residual tolerance, relative to 1 + |rhs|
    n_max: int = 2**30
    eps_p: float = 1e-10              # Jacobian regularization for p < 1
    singular_margin: float = 1e-12    # exclusion distance from the barrier
    face_scheme: str = "upwind"       # one of FACE_SCHEMES

    def __post_init__(self):
        for name in ("newton_tol", "eps_p", "singular_margin"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.face_scheme not in FACE_SCHEMES:
            raise ValueError(f"face_scheme must be {' or '.join(map(repr, FACE_SCHEMES))}, "
                             f"got {self.face_scheme!r}")
        if not (self.n_max >= FIRST_LEVEL):
            raise ValueError(f"truncation schedule requires n_max >= {FIRST_LEVEL}")

    def n_schedule(self) -> list[int]:
        """Truncation levels doubling from FIRST_LEVEL up to and including n_max."""
        levels = [FIRST_LEVEL]
        while levels[-1] < self.n_max:
            levels.append(min(2 * levels[-1], self.n_max))
        return levels


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Tridiagonal operator in flux form plus a right-hand side.

    ``sub[i]`` couples row i to node i-1 (sub[0] unused), ``sup[i]`` to
    node i+1 (sup[M-1] unused).  Rows are scaled by the inverse shell
    volume, so the operator maps nodal values to nodal values and pairs
    with the volume quadrature weights.
    """

    grid: RadialGrid
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SolveFlags:
    converged: bool
    truncation_active: bool
    hit_iteration_cap: bool


@dataclass(frozen=True, eq=False)
class SolveResult:
    u: GridFunction
    n_final: int
    picard_iters: int  # accepted Newton steps; perfbench/tracing.py reads this name
    residual_inf: float
    flags: SolveFlags


class SingularOperatorError(RuntimeError):
    """The assembled tridiagonal system is singular."""


def face_upwind_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Per-face frozen value: the adjacent node of larger magnitude.

    The outer face compares against the ghost value 0, so it always takes
    the last node; the origin face has no flux and gets the first node.
    """
    up = np.empty(grid.M + 1)
    up[0] = values[0]
    left, right = values[:-1], values[1:]
    up[1:grid.M] = np.where(np.abs(right) >= np.abs(left), right, left)
    up[grid.M] = values[-1]
    return up


def face_coefficients(grid: RadialGrid, coeff: CoefficientSpec, u_frozen: np.ndarray,
                      n: int | None, scheme: str = "upwind") -> np.ndarray:
    """Diffusion coefficient at every face, frozen at u and clipped at n."""
    faces = grid.faces

    def clipped(vals):
        return np.clip(vals, -n, n) if n is not None else vals

    if scheme == "upwind":
        return coefficient_eval(coeff, faces, clipped(face_upwind_values(grid, u_frozen)))
    if scheme == "arithmetic":
        a = np.empty(grid.M + 1)
        a[0] = coefficient_eval(coeff, faces[0], clipped(u_frozen[0]))
        left = coefficient_eval(coeff, faces[1:grid.M], clipped(u_frozen[:-1]))
        right = coefficient_eval(coeff, faces[1:grid.M], clipped(u_frozen[1:]))
        a[1:grid.M] = 0.5 * (left + right)
        a[grid.M] = 0.5 * (
            coefficient_eval(coeff, faces[grid.M], clipped(u_frozen[-1]))
            + coefficient_eval(coeff, faces[grid.M], 0.0)
        )
        return a
    raise ValueError(f"unknown face scheme {scheme!r}")


def assemble_frozen(grid: RadialGrid, coeff: CoefficientSpec, u_frozen: GridFunction,
                    n: int | None, scheme: str = "upwind") -> DiscreteOperator:
    """Assemble -div(a(r, T_n(u_frozen)) grad .) with Dirichlet ghost at R."""
    a_face = face_coefficients(grid, coeff, u_frozen.values, n, scheme)
    trans = np.zeros(grid.M + 1)
    trans[1:] = grid.face_areas[1:] * a_face[1:] / grid.gaps[1:]
    vol = grid.volumes
    diag = (trans[:-1] + trans[1:]) / vol
    sub = np.zeros(grid.M)
    sup = np.zeros(grid.M)
    sub[1:] = -trans[1:grid.M] / vol[1:]
    sup[:-1] = -trans[1:grid.M] / vol[:-1]
    return DiscreteOperator(grid=grid, sub=sub, diag=diag, sup=sup,
                            rhs=np.zeros(grid.M))


def apply_operator(op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    out = op.diag * values
    out[:-1] += op.sup[:-1] * values[1:]
    out[1:] += op.sub[1:] * values[:-1]
    return out


def tridiag_solve(op: DiscreteOperator, rhs: np.ndarray | None = None) -> np.ndarray:
    """Direct solve of the tridiagonal system against rhs (default op.rhs)."""
    b = op.rhs if rhs is None else rhs
    _, _, _, x, info = dgtsv(op.sub[1:], op.diag, op.sup[:-1], b)
    if info != 0:
        raise SingularOperatorError(f"singular tridiagonal assembly (dgtsv info {info})")
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError("tridiagonal solve produced non-finite values")
    return x


def _absorption_prime(term: LowerOrderTerm, s: np.ndarray, eps_p: float) -> np.ndarray:
    """Derivative of the absorption term, regularized for p < 1 at s = 0."""
    if isinstance(term, NoAbsorption):
        return np.zeros_like(s)
    if isinstance(term, PowerAbsorption):
        return term.p * (np.abs(s) + eps_p) ** (term.p - 1.0)
    if isinstance(term, SingularAbsorption):
        return term.sigma / (term.sigma - s) ** 2
    raise TypeError(f"unknown lower-order term {term!r}")


def _clamp_singular(term: LowerOrderTerm, values: np.ndarray, margin: float) -> np.ndarray:
    if isinstance(term, SingularAbsorption):
        return np.clip(values, 0.0, term.sigma - margin)
    return values


def _residual(op: DiscreteOperator, lower: LowerOrderTerm, u: np.ndarray) -> np.ndarray:
    """Nodal residual L u + g(u) - rhs of the operator op."""
    return apply_operator(op, u) + lower_order_eval(lower, u) - op.rhs


def _frozen_operator(grid: RadialGrid, coeff: CoefficientSpec, u: np.ndarray, n: int,
                     rhs: np.ndarray, scheme: str) -> DiscreteOperator:
    """A_n frozen at u, with right-hand side rhs."""
    op = assemble_frozen(grid, coeff, GridFunction(grid, u), n, scheme)
    return DiscreteOperator(grid, op.sub, op.diag, op.sup, rhs)


@dataclass(eq=False)
class _Level:
    """A truncation level, as ``picard_solve`` hands it to ``newton_semilinear``.

    The first fields say how to reassemble A_n at a trial point.  The
    iteration leaves why it stopped ("converged", "capped" or "stalled")
    and the residual sup norm at its final iterate in the last two.
    """

    coeff: CoefficientSpec
    n: int
    scheme: str
    trace: TraceSink | None = None
    stop: str = ""
    residual: float = math.inf


def _face_log_slopes(grid: RadialGrid, coeff: CoefficientSpec, u: np.ndarray, n: int,
                     scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """d(ln a_f)/du at each face's left node (i-1) and right node (i).

    For either coefficient form da/ds = -gamma sgn(s) a / (1 + |s|), zero
    where the clip |s| >= n holds.  An upwind face depends only on the node
    it takes its value from (at a tie, the right one, as in
    ``face_upwind_values``); an arithmetic face on both, in the shares
    a_left : a_right, with the ghost value 0 beyond the last node.
    """
    mag = np.abs(u)
    rate = np.where(mag < n, -coeff.gamma * np.sign(u) / (1.0 + mag), 0.0)
    M = grid.M
    left = np.zeros(M + 1)
    right = np.zeros(M + 1)
    if scheme == "upwind":
        wins = mag[1:] >= mag[:-1]
        left[1:M] = np.where(wins, 0.0, rate[:-1])
        right[1:M] = np.where(wins, rate[1:], 0.0)
        left[M] = rate[-1]
    else:
        clipped = np.clip(u, -n, n)
        a_left = coefficient_eval(coeff, grid.faces[1:], clipped)
        a_right = coefficient_eval(coeff, grid.faces[1:], np.append(clipped[1:], 0.0))
        total = a_left + a_right
        left[1:] = a_left / total * rate
        right[1:M] = (a_right / total)[:-1] * rate[1:]
    return left, right


def _exact_jacobian(op: DiscreteOperator, frozen: DiscreteOperator, u: np.ndarray,
                    level: _Level) -> DiscreteOperator:
    """frozen + d_u[A_n(u)] u, the level residual's exact Jacobian at u.

    ``op`` is A_n(u) and ``frozen`` is op + diag(g'(u)).  Row i of A_n(u) u
    is lam_i (u_i - u_{i-1}) - rho_i (u_{i+1} - u_i) with u_M = 0, where
    lam_i and rho_i are the transmissibilities of the cell's left and right
    face over its volume, read off the assembled row; each face's
    transmissibility varies with its nodes at the rates of
    ``_face_log_slopes``.
    """
    slope_left, slope_right = _face_log_slopes(op.grid, level.coeff, u, level.n, level.scheme)
    lam = -op.sub
    rho = -op.sup
    rho[-1] = op.diag[-1] + op.sub[-1]  # the Dirichlet face has no sup entry
    jump = np.empty(len(u) + 1)
    jump[0] = 0.0
    jump[1:-1] = u[1:] - u[:-1]
    jump[-1] = -u[-1]
    left_flux = lam * jump[:-1]
    right_flux = -rho * jump[1:]
    return DiscreteOperator(frozen.grid, frozen.sub + left_flux * slope_left[:-1],
                            frozen.diag + left_flux * slope_right[:-1]
                            + right_flux * slope_left[1:],
                            frozen.sup + right_flux * slope_right[1:], frozen.rhs)


def _line_search(op: DiscreteOperator, lower: LowerOrderTerm, u: np.ndarray,
                 res: np.ndarray, res_norm: float, jac: DiscreteOperator,
                 min_factor: float, cfg: SolverConfig, level: _Level):
    """First point along jac's Newton direction, halving from full length
    down to min_factor, whose residual norm is below res_norm.

    The level's operator is reassembled at each trial point, unless
    gamma = 0, where A_n does not depend on u.  Returns (u, operator,
    residual, norm) there, or None if no trial is accepted or jac is
    singular.
    """
    try:
        step = tridiag_solve(jac, -res)
    except SingularOperatorError:
        return None
    factor = 1.0
    while factor >= min_factor:
        trial = _clamp_singular(lower, u + factor * step, cfg.singular_margin)
        trial_op = _frozen_operator(op.grid, level.coeff, trial, level.n, op.rhs,
                                    level.scheme) if level.coeff.gamma > 0 else op
        trial_res = _residual(trial_op, lower, trial)
        trial_norm = float(np.max(np.abs(trial_res)))
        if np.isfinite(trial_norm) and trial_norm < res_norm:
            return trial, trial_op, trial_res, trial_norm
        factor *= 0.5
    return None


def newton_semilinear(op: DiscreteOperator, lower: LowerOrderTerm, u0: GridFunction,
                      cfg: SolverConfig, level: _Level,
                      ) -> tuple[GridFunction, int, bool]:
    """Damped Newton on A_n(u) u + g(u) = rhs at one truncation level.

    ``level`` comes from picard_solve and op is A_n(u0); A_n(u) is
    reassembled at every trial point.  A step first tries the exact
    Jacobian at full length (traced as ``newton``), else backtracks along
    the frozen-coefficient direction A_n(u) + diag(g') from the same point
    (traced as ``frozen``; for gamma = 0 the two coincide, only the latter
    is taken and it is traced as ``newton``), and the outcome is left in
    ``level``.  At most picard_max steps are taken, g' is regularized for
    p < 1, iterates with a singular absorption term stay clamped inside
    [0, sigma - margin], and the iteration stalls when no direction lowers
    the residual.  Returns the final iterate, the number of accepted steps
    and whether the residual reached newton_tol * (1 + |rhs|_inf).
    """
    tol = cfg.newton_tol * (1.0 + float(np.max(np.abs(op.rhs))))
    u = _clamp_singular(lower, u0.values.copy(), cfg.singular_margin)
    res = _residual(op, lower, u)
    res_norm = float(np.max(np.abs(res)))
    # with gamma = 0 the frozen-coefficient Jacobian is the exact one
    moving = level.coeff.gamma > 0
    steps = 0
    while res_norm > tol:
        if steps == cfg.picard_max:
            stop = "capped"
            break
        gp = _absorption_prime(lower, u, cfg.eps_p)
        frozen = DiscreteOperator(op.grid, op.sub, op.diag + gp, op.sup, op.rhs)
        accepted = None
        direction = "newton"
        if moving:
            accepted = _line_search(op, lower, u, res, res_norm,
                                    _exact_jacobian(op, frozen, u, level), 1.0, cfg, level)
            if accepted is None:
                direction = "frozen"
        if accepted is None:
            accepted = _line_search(op, lower, u, res, res_norm, frozen,
                                    DAMPING_MIN, cfg, level)
        if accepted is None:
            stop = "stalled"
            break
        u, op, res, res_norm = accepted
        steps += 1
        if level.trace is not None:
            level.trace(f"level {level.n}, step {steps}, {direction}, "
                        f"residual {res_norm:.6e}")
    else:
        stop = "converged"
    level.stop, level.residual = stop, res_norm
    return GridFunction(op.grid, u), steps, stop == "converged"


def _nodal_datum(grid: RadialGrid, spec: ProblemSpec,
                 f_values: GridFunction | None) -> np.ndarray:
    if f_values is not None:
        return f_values.values
    return np.asarray(datum_eval(spec.datum, grid.nodes), dtype=float)


def picard_solve(grid: RadialGrid, spec: ProblemSpec, n: int, cfg: SolverConfig,
                 f_values: GridFunction | None = None,
                 u_init: GridFunction | None = None,
                 trace: TraceSink | None = None) -> SolveResult:
    """Solve one truncation level by one coupled damped Newton iteration.

    From u_init (default 0), ``newton_semilinear`` iterates on the full
    residual A_n(u) u + g(u) - T_n f with the exact tridiagonal Jacobian
    and the frozen-coefficient fallback, for at most picard_max steps.
    ``converged`` means the residual fell below newton_tol * (1 + |T_n f|_inf);
    ``hit_iteration_cap`` that picard_max steps did not get it there.  A
    level that stalls, because neither direction lowers the residual,
    reports neither flag.  ``picard_iters`` counts the accepted steps;
    ``trace`` receives one line per step.
    """
    f_nodal = _nodal_datum(grid, spec, f_values)
    rhs = np.clip(f_nodal, -n, n)
    level = _Level(spec.coefficient, n, cfg.face_scheme, trace=trace)
    u = np.zeros(grid.M) if u_init is None else u_init.values.copy()
    u = _clamp_singular(spec.lower, u, cfg.singular_margin)
    op = _frozen_operator(grid, spec.coefficient, u, n, rhs, cfg.face_scheme)
    u_gf, steps, converged = newton_semilinear(op, spec.lower, GridFunction(grid, u), cfg,
                                               level=level)
    active = _truncation_active(u_gf.values, f_nodal, n)
    return SolveResult(u=u_gf, n_final=n, picard_iters=steps,
                       residual_inf=level.residual,
                       flags=SolveFlags(converged=converged, truncation_active=active,
                                        hit_iteration_cap=level.stop == "capped"))


def _truncation_active(u: np.ndarray, f_nodal: np.ndarray, n: int) -> bool:
    return not (n > np.max(np.abs(u)) and n >= np.max(np.abs(f_nodal)))


def truncation_continuation(grid: RadialGrid, spec: ProblemSpec, cfg: SolverConfig,
                            f_values: GridFunction | None = None,
                            trace: TraceSink | None = None) -> SolveResult:
    """March the truncation level upward until the clipping is inactive.

    The march runs the levels of ``cfg.n_schedule()`` from the first one
    that reaches max|f| at the nodes (n_max if none does): every lower
    level would clip the datum whatever u is.  That first level starts
    from u = 0; each later one is one coupled Newton solve (see
    picard_solve) warm-started from the previous level's iterate, also
    when that level was capped or stalled.  The march stops as soon as n
    exceeds max|u| and max|f| at the nodes, after which larger levels would
    reproduce the same discrete problem.  If the schedule is exhausted
    first, the result keeps truncation_active=True rather than hiding it.
    The returned flags are the final level's; ``picard_iters`` is summed
    over the levels.
    """
    f_nodal = _nodal_datum(grid, spec, f_values)
    f_gf = GridFunction(grid, f_nodal)
    f_peak = float(np.max(np.abs(f_nodal)))
    levels = [n for n in cfg.n_schedule() if n >= f_peak] or [cfg.n_max]

    steps = 0
    result: SolveResult | None = None
    for n in levels:
        result = picard_solve(grid, spec, n, cfg, f_values=f_gf,
                              u_init=None if result is None else result.u, trace=trace)
        steps += result.picard_iters
        if not result.flags.truncation_active:
            break
    assert result is not None
    return SolveResult(u=result.u, n_final=result.n_final, picard_iters=steps,
                       residual_inf=result.residual_inf, flags=result.flags)


def residual_norm(grid: RadialGrid, spec: ProblemSpec, u: GridFunction, n: int,
                  f_values: GridFunction | None = None,
                  scheme: str = "upwind") -> float:
    """Sup-norm of A_n(u) u + g(u) - T_n(f) with the coefficient frozen at u."""
    f_nodal = _nodal_datum(grid, spec, f_values)
    op = _frozen_operator(grid, spec.coefficient, u.values, n, np.clip(f_nodal, -n, n), scheme)
    return float(np.max(np.abs(_residual(op, spec.lower, u.values))))


def manufactured_rhs(grid: RadialGrid, spec: ProblemSpec, u_star: GridFunction,
                     n: int, scheme: str = "upwind") -> GridFunction:
    """Datum for which u_star is the exact discrete solution at level n."""
    op = assemble_frozen(grid, spec.coefficient, u_star, n, scheme)
    vals = apply_operator(op, u_star.values) + lower_order_eval(spec.lower, u_star.values)
    return GridFunction(grid, vals)
