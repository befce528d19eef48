"""Discretization and nonlinear solve of the regularized problems.

The quasilinear equation is attacked level by level: at truncation level n
the diffusion coefficient is evaluated at the clipped field T_n(u) and the
datum is clipped to T_n(f).  Each level is solved by an outer Picard loop
that freezes the coefficient at the current iterate and an inner damped
Newton iteration on the remaining monotone semilinear system; levels
double until the clipping no longer touches either u or f.  Each Picard
sweep assembles once: the operator frozen at the new iterate measures the
self-consistent residual and is the next sweep's operator.

A level below max|f| and below n_max stays truncation-active whatever u
is, so it only supplies the next level's warm start.  Such a provably
intermediate level also stops once Picard has settled and its residual
lies within the residual's own rounding error (see
``ROUNDING_FLOOR_FACTOR``), where the tolerance newton_tol * (1 + n) can
lie below what double precision resolves.  It then reports neither
convergence nor the iteration cap, and the continuation climbs on.  Every
level that might be final keeps the plain rule, so ``converged`` always
means residual <= newton_tol * (1 + |T_n f|_inf).

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

from dataclasses import dataclass, replace
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

# A row of the residual A_n(u) u + g(u) - T_n f takes 8 rounded operations:
# three products, two additions summing them, g, its addition and the
# subtraction of T_n f.  To first order its evaluation error is therefore
# below ROUNDING_FLOOR_FACTOR * eps * (|A_n(u)||u| + |g(u)| + |T_n f|)_i
# (an Oettli-Prager style componentwise bound); a residual whose sup norm
# lies under the largest row bound is rounding noise.
ROUNDING_FLOOR_FACTOR = 8.0


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, caps and schedule for the nested iteration."""

    picard_tol: float = 1e-8          # relative sup-norm update tolerance
    picard_max: int = 200
    newton_tol: float = 1e-10         # residual tolerance, relative to 1 + |rhs|
    newton_max: int = 50
    damping_min: float = 2.0**-20     # smallest line-search step factor
    n0: int = 1
    n_max: int = 2**30
    eps_p: float = 1e-10              # Jacobian regularization for p < 1
    singular_margin: float = 1e-12    # exclusion distance from the barrier
    face_scheme: str = "upwind"       # or "arithmetic"
    relax_after: int = 30             # Picard sweeps before averaging kicks in
    warm_start: bool = True

    def __post_init__(self):
        for name in ("picard_tol", "newton_tol", "damping_min", "eps_p", "singular_margin"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.face_scheme not in ("upwind", "arithmetic"):
            raise ValueError(f"face_scheme must be 'upwind' or 'arithmetic', got {self.face_scheme!r}")
        if not (1 <= self.n0 <= self.n_max):
            raise ValueError("truncation schedule requires 1 <= n0 <= n_max")

    def n_schedule(self) -> list[int]:
        """Truncation levels doubling from n0 up to and including n_max."""
        levels = [self.n0]
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
    picard_iters: int
    newton_iters_total: int
    residual_inf: float
    flags: SolveFlags
    diverged: bool = False  # the level aborted on runaway or non-finite iterates


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


def newton_semilinear(op: DiscreteOperator, lower: LowerOrderTerm, u0: GridFunction,
                      cfg: SolverConfig) -> tuple[GridFunction, int, bool]:
    """Damped Newton on L u + g(u) = rhs with frozen linear part L.

    The Jacobian uses the (regularized) derivative of g; steps are halved
    until the residual norm decreases, and iterates with a singular
    absorption term stay clamped inside [0, sigma - margin].  Returns the
    final iterate, the iteration count and a convergence flag.
    """
    tol = cfg.newton_tol * (1.0 + float(np.max(np.abs(op.rhs))))
    u = _clamp_singular(lower, u0.values.copy(), cfg.singular_margin)

    res = _residual(op, lower, u)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    for iters in range(1, cfg.newton_max + 1):
        if res_norm <= tol:
            return GridFunction(op.grid, u), iters - 1, True
        gp = _absorption_prime(lower, u, cfg.eps_p)
        jac = replace(op, diag=op.diag + gp)
        try:
            step = tridiag_solve(jac, -res)
        except SingularOperatorError:
            return GridFunction(op.grid, u), iters - 1, False
        factor = 1.0
        accepted = False
        while factor >= cfg.damping_min:
            trial = _clamp_singular(lower, u + factor * step, cfg.singular_margin)
            trial_res = _residual(op, lower, trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and trial_norm < res_norm:
                u, res, res_norm = trial, trial_res, trial_norm
                accepted = True
                break
            factor *= 0.5
        if not accepted:
            # line search exhausted; report the best iterate found
            return GridFunction(op.grid, u), iters, res_norm <= tol
        if not np.isfinite(res_norm):
            raise FloatingPointError("Newton residual became non-finite")
    return GridFunction(op.grid, u), iters, res_norm <= tol


def _nodal_datum(grid: RadialGrid, spec: ProblemSpec,
                 f_values: GridFunction | None) -> np.ndarray:
    if f_values is not None:
        return f_values.values
    return np.asarray(datum_eval(spec.datum, grid.nodes), dtype=float)


def _rounding_floor(op: DiscreteOperator, lower: LowerOrderTerm, u: np.ndarray) -> float:
    """Bound on the rounding error of ``_residual(op, lower, u)`` in sup norm."""
    mag = np.abs(op.diag * u) + np.abs(lower_order_eval(lower, u)) + np.abs(op.rhs)
    mag[:-1] += np.abs(op.sup[:-1] * u[1:])
    mag[1:] += np.abs(op.sub[1:] * u[:-1])
    return ROUNDING_FLOOR_FACTOR * float(np.finfo(float).eps) * float(np.max(mag))


def _self_residual(grid: RadialGrid, spec: ProblemSpec, u: np.ndarray, n: int,
                   rhs: np.ndarray, scheme: str) -> tuple[DiscreteOperator, float]:
    """Operator frozen at u (right-hand side rhs) and its residual's sup norm at u."""
    op = assemble_frozen(grid, spec.coefficient, GridFunction(grid, u), n, scheme)
    op = replace(op, rhs=rhs)
    return op, float(np.max(np.abs(_residual(op, spec.lower, u))))


def picard_solve(grid: RadialGrid, spec: ProblemSpec, n: int, cfg: SolverConfig,
                 f_values: GridFunction | None = None,
                 u_init: GridFunction | None = None,
                 trace: TraceSink | None = None) -> SolveResult:
    """Solve one truncation level by freezing the coefficient and iterating.

    Each sweep solves the semilinear system frozen at the current iterate
    by Newton, then assembles once at the new iterate: that operator gives
    the self-consistent residual and is the next sweep's operator.
    Convergence requires the relative update to fall below picard_tol and
    the residual below newton_tol * (1 + |T_n f|_inf).  After
    ``relax_after`` sweeps the update is averaged with the previous iterate
    to damp oscillatory non-convergence.

    A provably intermediate level (n < max|f| at the nodes and n < n_max,
    so truncation stays active whatever u is) also stops once the update is
    below picard_tol and the residual lies within its own rounding bound
    (``ROUNDING_FLOOR_FACTOR``); it then reports converged=False and
    hit_iteration_cap=False.  Other levels stop only on the convergence
    rule, the cap or divergence, which sets ``diverged``.
    """
    f_nodal = _nodal_datum(grid, spec, f_values)
    rhs = np.clip(f_nodal, -n, n)
    rhs_scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    res_tol = cfg.newton_tol * (1.0 + rhs_scale)
    intermediate = n < cfg.n_max and n < float(np.max(np.abs(f_nodal)))

    u = np.zeros(grid.M) if u_init is None else u_init.values.copy()
    u = _clamp_singular(spec.lower, u, cfg.singular_margin)
    op = replace(assemble_frozen(grid, spec.coefficient, GridFunction(grid, u), n,
                                 cfg.face_scheme), rhs=rhs)

    newton_total = 0
    converged = False
    hit_cap = False
    diverged = False
    picard_iters = 0
    res_inf = np.inf
    for k in range(1, cfg.picard_max + 1):
        picard_iters = k
        try:
            u_gf, newton_iters, _ = newton_semilinear(op, spec.lower,
                                                      GridFunction(grid, u), cfg)
        except FloatingPointError:
            diverged = True
            break
        newton_total += newton_iters
        u_new = u_gf.values
        update = float(np.max(np.abs(u_new - u))) / (1.0 + float(np.max(np.abs(u))))
        if k > cfg.relax_after:
            u_new = 0.5 * (u_new + u)
        u = u_new
        op, res_inf = _self_residual(grid, spec, u, n, rhs, cfg.face_scheme)
        if trace is not None:
            trace(f"level {n}, picard {k}, newton {newton_iters}, residual {res_inf:.6e}")
        if update < cfg.picard_tol:
            if res_inf <= res_tol:
                converged = True
                break
            if intermediate and res_inf <= _rounding_floor(op, spec.lower, u):
                break  # settled at the rounding floor; only a warm start
        if float(np.max(np.abs(u))) > 1e6 * (1.0 + rhs_scale):
            diverged = True
            break
    else:
        hit_cap = True

    u_gf = GridFunction(grid, u)
    active = _truncation_active(u, f_nodal, n)
    return SolveResult(u=u_gf, n_final=n, picard_iters=picard_iters,
                       newton_iters_total=newton_total, residual_inf=res_inf,
                       flags=SolveFlags(converged=converged, truncation_active=active,
                                        hit_iteration_cap=hit_cap),
                       diverged=diverged)


def _truncation_active(u: np.ndarray, f_nodal: np.ndarray, n: int) -> bool:
    return not (n > np.max(np.abs(u)) and n >= np.max(np.abs(f_nodal)))


def truncation_continuation(grid: RadialGrid, spec: ProblemSpec, cfg: SolverConfig,
                            f_values: GridFunction | None = None,
                            trace: TraceSink | None = None) -> SolveResult:
    """March the truncation level upward until the clipping is inactive.

    Each level warm-starts from the previous solution (unless disabled);
    the march stops as soon as n exceeds max|u| and max|f| at the nodes,
    after which larger levels would reproduce the same discrete problem.
    Only a diverged level ends the march early: a capped level, or an
    intermediate level stopped at its rounding floor (see picard_solve),
    still hands its iterate on as the next warm start.  If the schedule is
    exhausted first, the result keeps truncation_active=True rather than
    hiding it.  The returned flags are the final level's, so ``converged``
    keeps the plain residual rule.
    """
    f_nodal = _nodal_datum(grid, spec, f_values)
    f_gf = GridFunction(grid, f_nodal)

    picard_total = 0
    newton_total = 0
    result: SolveResult | None = None
    warm: GridFunction | None = None
    for n in cfg.n_schedule():
        result = picard_solve(grid, spec, n, cfg, f_values=f_gf,
                              u_init=warm if cfg.warm_start else None, trace=trace)
        picard_total += result.picard_iters
        newton_total += result.newton_iters_total
        warm = result.u
        if not result.flags.truncation_active or result.diverged:
            break
    assert result is not None
    return SolveResult(u=result.u, n_final=result.n_final, picard_iters=picard_total,
                       newton_iters_total=newton_total,
                       residual_inf=result.residual_inf, flags=result.flags,
                       diverged=result.diverged)


def residual_norm(grid: RadialGrid, spec: ProblemSpec, u: GridFunction, n: int,
                  f_values: GridFunction | None = None,
                  scheme: str = "upwind") -> float:
    """Sup-norm of A_n(u) u + g(u) - T_n(f) with the coefficient frozen at u."""
    f_nodal = _nodal_datum(grid, spec, f_values)
    return _self_residual(grid, spec, u.values, n, np.clip(f_nodal, -n, n), scheme)[1]


def manufactured_rhs(grid: RadialGrid, spec: ProblemSpec, u_star: GridFunction,
                     n: int, scheme: str = "upwind") -> GridFunction:
    """Datum for which u_star is the exact discrete solution at level n."""
    op = assemble_frozen(grid, spec.coefficient, u_star, n, scheme)
    vals = apply_operator(op, u_star.values) + lower_order_eval(spec.lower, u_star.values)
    return GridFunction(grid, vals)
