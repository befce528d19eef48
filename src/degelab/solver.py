"""Discretization and nonlinear solve of the regularized problems.

The quasilinear equation is attacked level by level: at truncation level n
the diffusion coefficient is evaluated at the clipped field T_n(u) and the
datum is clipped to T_n(f).  A level below max|f| clips the datum whatever
u is, and one below the discrete maximum principle's bound on max|u|
(``_sup_bound``) may clip u; the climb therefore starts at the first level
of the schedule that reaches both, from u = 0, and doubles until the
clipping no longer touches u either.  Each level is one damped Newton
iteration on the full residual F(u) = A_n(u) u + g(u) - T_n f with its
exact Jacobian A_n(u) + diag(g'(u)) + d_u[A_n(u)] u, halved until the
residual falls.  Every face coefficient depends on its two adjacent nodes
at most, so that Jacobian is tridiagonal.  ``converged`` always means
residual <= newton_tol * (1 + |T_n f|_inf).

Conservative flux form: row i of the operator is
-(F_{i+1/2} - F_{i-1/2}) / V_i with flux
F = r_f^(N-1) a_f (u_{i+1} - u_i)/d_f and V_i the exact shell volume of
cell i.  Face coefficients take the frozen value at the adjacent node of
larger |u| ("upwinded degeneracy", the smaller coefficient), the right-hand
one at a tie.  That rule is ``grid.upwind_takes_right``, the one the
audit's face values follow too, which makes the discrete energy chain
inequalities used by the estimate checkers hold exactly rather than
asymptotically.  Arithmetic-mean faces are available for convergence
studies.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .grid import GridFunction, RadialGrid, upwind_takes_right
from .problem import (
    LowerOrderTerm,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    SingularAbsorption,
    coefficient_eval,
    datum_eval,
    lower_order_eval,
)


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded by file.

    The solver needs one routine from it, ``dgtsv``.  Importing it through
    ``scipy.linalg`` runs that package's init, which clones numpy's namespace
    for array-API support and with it loads ``numpy.f2py``, ``numpy.testing``
    and ``numpy.ma``: about half of the CLI's start-up, none of it used here.
    ``import scipy`` alone still runs scipy's own init (DLL paths on Windows
    wheels).  The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it and ``scipy.linalg.lapack.dgtsv`` is
    the same function object as the one taken here; if ``scipy.linalg`` is
    already loaded, its module is taken as it is.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    stem = Path(scipy.__file__).parent / "linalg" / "_flapack"
    for suffix in EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                name, path, loader=ExtensionFileLoader(name, str(path)))
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension {stem}{{{','.join(EXTENSION_SUFFIXES)}}} "
                      f"in scipy {scipy.__version__}")


dgtsv = _load_flapack().dgtsv


__all__ = [
    "FACE_SCHEMES",
    "SolverConfig",
    "DiscreteOperator",
    "DiscreteProblem",
    "Stop",
    "SolveFlags",
    "SolveResult",
    "SingularOperatorError",
    "assemble_frozen",
    "apply_operator",
    "tridiag_solve",
    "newton_semilinear",
    "picard_solve",
    "truncation_continuation",
    "manufactured_rhs",
]

FIRST_LEVEL = 1            # first level of the truncation schedule
DAMPING_MIN = 2.0**-20     # smallest line-search step factor
EPS_P = 1e-10              # regularization of g'(s) = p |s|^(p-1) at s = 0 for p < 1
SINGULAR_MARGIN = 1e-12    # Newton iterates stay in [0, sigma - SINGULAR_MARGIN]
FACE_SCHEMES = ("upwind", "arithmetic")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, caps and schedule for the level-by-level Newton solve.

    The fields are exactly the ``[solver]`` keys of a config file.
    """

    picard_max: int = 200             # Newton steps per truncation level or Newton solve
    newton_tol: float = 1e-10         # residual tolerance, relative to 1 + |rhs|
    n_max: int = 2**200               # last truncation level
    face_scheme: str = "upwind"       # one of FACE_SCHEMES

    def __post_init__(self):
        if not (isinstance(self.picard_max, int) and self.picard_max >= 1):
            raise ValueError(f"picard_max must be an integer >= 1, got {self.picard_max!r}")
        if not (0 < self.newton_tol < math.inf):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol!r}")
        if self.face_scheme not in FACE_SCHEMES:
            raise ValueError(f"face_scheme must be {' or '.join(map(repr, FACE_SCHEMES))}, "
                             f"got {self.face_scheme!r}")
        if not (isinstance(self.n_max, int) and self.n_max >= FIRST_LEVEL):
            raise ValueError(f"n_max must be an integer >= {FIRST_LEVEL}, got {self.n_max!r}")

    def level_at_least(self, bound: float) -> int:
        """The first truncation level n >= bound, or n_max if there is none.

        The levels double from FIRST_LEVEL = 1 up to and including n_max, so
        below n_max they are the powers of two: the one sought is read off
        the bit length of ceil(bound).  An integer n is a level exactly when
        ``level_at_least(n) == n``; the next one is ``level_at_least(n + 1)``.
        """
        if not bound < self.n_max:  # also a nan bound
            return self.n_max
        if bound <= FIRST_LEVEL:
            return FIRST_LEVEL
        return min(1 << (math.ceil(bound) - 1).bit_length(), self.n_max)


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


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Truncation level n of a problem on a grid: A_n(u) u + g(u) = T_n f.

    One level of the solve iterates on it, the audit checks a field
    against it and ``verify --solution`` rebuilds it from a stored field's
    level.  All three freeze A_n at a field by the same code: ``freeze``
    for the node arrays, then ``_faces`` and ``assemble_frozen``.
    ``f_nodal`` is the datum at the nodes, unclipped, and must be finite;
    ``rhs`` is T_n f.  A_n(u) is the flux-form operator whose face
    coefficients are frozen at T_n(u) by ``scheme``, one of FACE_SCHEMES.
    """

    grid: RadialGrid
    spec: ProblemSpec
    f_nodal: np.ndarray
    n: int
    scheme: str
    rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.scheme not in FACE_SCHEMES:
            raise ValueError(f"unknown face scheme {self.scheme!r}")
        f_nodal = GridFunction(self.grid, self.f_nodal).values  # finite, of length M
        object.__setattr__(self, "f_nodal", f_nodal)
        object.__setattr__(self, "rhs", np.clip(f_nodal, -self.n, self.n))

    def faces(self, u: np.ndarray) -> np.ndarray:
        """Diffusion coefficient at every face, frozen at T_n(u)."""
        return _faces(self, self.freeze(u))

    def operator(self, u: np.ndarray) -> DiscreteOperator:
        """A_n frozen at the finite field u, with right-hand side T_n f."""
        return assemble_frozen(self, GridFunction(self.grid, u))

    def freeze(self, u: np.ndarray) -> FrozenNodes:
        """u's node arrays at this level.  |T_n u| is min(|u|, n) exactly,
        and an upwind face follows ``grid.upwind_takes_right``."""
        mag = np.abs(u)
        wins = upwind_takes_right(mag) if self.scheme == "upwind" else None
        return FrozenNodes(u, mag, wins,
                           coefficient_eval(self.spec.coefficient, np.minimum(mag, self.n)))

    def residual_norm(self, u: np.ndarray) -> float:
        """Sup norm of A_n(u) u + g(u) - T_n f."""
        return float(np.max(np.abs(_residual(self.operator(u), self.spec.lower, u))))

    def tolerance(self, newton_tol: float) -> float:
        """The solver's convergence contract: a residual of at most
        newton_tol * (1 + |T_n f|_inf)."""
        return newton_tol * (1.0 + float(np.max(np.abs(self.rhs))))

    def truncation_active(self, u: np.ndarray) -> bool:
        """Whether the clipping at n touches u or the datum.  Only when it
        touches neither does u solve the untruncated discrete problem."""
        return not (self.n > np.max(np.abs(u)) and self.n >= np.max(np.abs(self.f_nodal)))


class FrozenNodes(NamedTuple):
    """A field u at one truncation level and the node arrays that freezing
    A_n at u reads; ``DiscreteProblem.freeze`` makes them.

    The Newton loop freezes each trial point once: the trial's faces, and
    the next step's Jacobian when the trial is accepted, share its |u|,
    upwind choice and coefficient.
    """

    u: np.ndarray
    mag: np.ndarray            # |u|
    wins: np.ndarray | None    # upwind: upwind_takes_right(mag); arithmetic: None
    coeff: np.ndarray          # a(T_n u) at the nodes


def _faces(problem: DiscreteProblem, nodes: FrozenNodes) -> np.ndarray:
    """Diffusion coefficient at every face, frozen at T_n(u).

    An upwind face takes the coefficient of its adjacent node of larger
    |u|, the smaller one; an arithmetic face the mean of its two nodes'
    coefficients, with the ghost value 0 beyond the last node.  The origin
    face, which carries no flux, takes the first node's.
    """
    coeff, M = nodes.coeff, problem.grid.M
    a = np.empty(M + 1)
    a[0] = coeff[0]
    if problem.scheme == "upwind":
        a[1:M] = np.where(nodes.wins, coeff[1:], coeff[:-1])
        a[M] = coeff[-1]
        return a
    a[1:M] = 0.5 * (coeff[:-1] + coeff[1:])
    # scalar evaluations: numpy's scalar power can differ in the last bit from
    # the array power in coeff[-1], and this scheme's outputs follow the scalar
    spec = problem.spec.coefficient
    a[M] = 0.5 * (coefficient_eval(spec, np.minimum(nodes.mag[-1], problem.n))
                  + coefficient_eval(spec, 0.0))
    return a


class Stop(Enum):
    """How a level's Newton iteration ended (see ``newton_semilinear``), and
    so a solve or a record.  ``FAILED`` marks a record whose solve raised;
    no level returns it."""

    CONVERGED = "converged"
    CAPPED = "capped"
    STALLED = "stalled"
    FAILED = "failed"


@dataclass(frozen=True)
class SolveFlags:
    """How the final level ended, and whether its clipping touches u or the datum."""

    stop: Stop
    truncation_active: bool

    @property
    def converged(self) -> bool:
        return self.stop is Stop.CONVERGED

    @property
    def hit_iteration_cap(self) -> bool:
        return self.stop is Stop.CAPPED


@dataclass(frozen=True, eq=False)
class SolveResult:
    u: GridFunction
    problem: DiscreteProblem  # the level u was solved on (after a climb, the last)
    picard_iters: int  # accepted Newton steps; perfbench/tracing.py reads this name
    residual_inf: float
    flags: SolveFlags

    @property
    def n_final(self) -> int:
        return self.problem.n


class SingularOperatorError(RuntimeError):
    """The assembled tridiagonal system is singular."""


def assemble_frozen(problem: DiscreteProblem,
                    u_frozen: GridFunction | FrozenNodes) -> DiscreteOperator:
    """Assemble A_n(u_frozen) = -div(a(r, T_n(u_frozen)) grad .) with Dirichlet
    ghost at R and right-hand side T_n f.  The Newton loop passes the
    ``FrozenNodes`` of its trial point, any other caller a GridFunction."""
    grid = problem.grid
    nodes = (problem.freeze(u_frozen.values) if isinstance(u_frozen, GridFunction)
             else u_frozen)
    a_face = _faces(problem, nodes)
    trans = np.zeros(grid.M + 1)
    trans[1:] = grid.face_areas[1:] * a_face[1:] / grid.gaps[1:]
    vol = grid.volumes
    diag = (trans[:-1] + trans[1:]) / vol
    sub = np.zeros(grid.M)
    sup = np.zeros(grid.M)
    sub[1:] = -trans[1:grid.M] / vol[1:]
    sup[:-1] = -trans[1:grid.M] / vol[:-1]
    return DiscreteOperator(grid=grid, sub=sub, diag=diag, sup=sup, rhs=problem.rhs)


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


def _absorption_prime(term: LowerOrderTerm, s: np.ndarray) -> np.ndarray:
    """Derivative of the absorption term, regularized by EPS_P for p < 1 at s = 0."""
    if isinstance(term, NoAbsorption):
        return np.zeros_like(s)
    if isinstance(term, PowerAbsorption):
        return term.p * (np.abs(s) + EPS_P) ** (term.p - 1.0)
    if isinstance(term, SingularAbsorption):
        return term.sigma / (term.sigma - s) ** 2
    raise TypeError(f"unknown lower-order term {term!r}")


def _clamp_singular(term: LowerOrderTerm, values: np.ndarray) -> np.ndarray:
    if isinstance(term, SingularAbsorption):
        return np.clip(values, 0.0, term.sigma - SINGULAR_MARGIN)
    return values


def _residual(op: DiscreteOperator, lower: LowerOrderTerm, u: np.ndarray) -> np.ndarray:
    """Nodal residual L u + g(u) - rhs of the operator op."""
    return apply_operator(op, u) + lower_order_eval(lower, u) - op.rhs


def _face_log_slopes(problem: DiscreteProblem,
                     nodes: FrozenNodes) -> tuple[np.ndarray, np.ndarray]:
    """d(ln a_f)/du at each face's left node (i-1) and right node (i).

    For either coefficient form da/ds = -gamma sgn(s) a / (1 + |s|), zero
    where the clip |s| >= n holds.  An upwind face depends only on the node
    it takes its value from; an arithmetic face on both, in the shares
    a_left : a_right, with the ghost value 0 beyond the last node.
    """
    coeff, n, M = problem.spec.coefficient, problem.n, problem.grid.M
    mag = nodes.mag
    rate = np.where(mag < n, -coeff.gamma * np.sign(nodes.u) / (1.0 + mag), 0.0)
    left = np.zeros(M + 1)
    right = np.zeros(M + 1)
    if problem.scheme == "upwind":
        wins = nodes.wins
        left[1:M] = np.where(wins, 0.0, rate[:-1])
        right[1:M] = np.where(wins, rate[1:], 0.0)
        left[M] = rate[-1]
    else:
        a_left = nodes.coeff
        a_right = np.append(a_left[1:], coefficient_eval(coeff, 0.0))
        total = a_left + a_right
        left[1:] = a_left / total * rate
        right[1:M] = (a_right / total)[:-1] * rate[1:]
    return left, right


def _exact_jacobian(op: DiscreteOperator, frozen: DiscreteOperator, nodes: FrozenNodes,
                    problem: DiscreteProblem) -> DiscreteOperator:
    """frozen + d_u[A_n(u)] u, the level residual's exact Jacobian at u.

    ``op`` is A_n(u), assembled from ``nodes``, and ``frozen`` is op +
    diag(g'(u)).  Row i of A_n(u) u is lam_i (u_i - u_{i-1}) - rho_i
    (u_{i+1} - u_i) with u_M = 0, where lam_i and rho_i are the
    transmissibilities of the cell's left and right face over its volume,
    read off the assembled row; each face's transmissibility varies with
    its nodes at the rates of ``_face_log_slopes``.
    """
    u = nodes.u
    slope_left, slope_right = _face_log_slopes(problem, nodes)
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


def _line_search(problem: DiscreteProblem, op: DiscreteOperator, u: np.ndarray,
                 res: np.ndarray, res_norm: float, jac: DiscreteOperator):
    """First point along jac's Newton direction, halving from full length
    down to DAMPING_MIN, whose residual norm is below res_norm.

    The level's operator is reassembled at each trial point from the
    trial's ``FrozenNodes``, unless gamma = 0, where A_n does not depend on
    u and the trial is not frozen.  Returns (u, FrozenNodes or None at
    gamma = 0, operator, residual, norm) there, or None if no trial is
    accepted or jac is singular.
    """
    try:
        step = tridiag_solve(jac, -res)
    except SingularOperatorError:
        return None
    lower = problem.spec.lower
    moving = problem.spec.coefficient.gamma > 0
    factor = 1.0
    while factor >= DAMPING_MIN:
        trial = _clamp_singular(lower, u + factor * step)
        nodes = problem.freeze(trial) if moving else None
        trial_op = assemble_frozen(problem, nodes) if moving else op
        trial_res = _residual(trial_op, lower, trial)
        trial_norm = float(np.max(np.abs(trial_res)))
        if np.isfinite(trial_norm) and trial_norm < res_norm:
            return trial, nodes, trial_op, trial_res, trial_norm
        factor *= 0.5
    return None


def newton_semilinear(problem: DiscreteProblem, u0: np.ndarray,
                      cfg: SolverConfig) -> tuple[GridFunction, int, Stop, float]:
    """Damped Newton on A_n(u) u + g(u) = T_n f at one truncation level.

    Each step solves with the exact Jacobian A_n(u) + diag(g'(u)) +
    d_u[A_n(u)] u (for gamma = 0 the last term vanishes) and halves the
    step from full length down to DAMPING_MIN until the residual falls.
    For gamma > 0, A_n(u) is reassembled at every trial point from the
    trial's ``FrozenNodes``, and the next step's Jacobian reuses those of
    the accepted one; for gamma = 0 it is assembled once.  At most
    picard_max steps are taken, g' is regularized by EPS_P for p < 1,
    iterates with a singular absorption term stay clamped inside [0,
    sigma - SINGULAR_MARGIN], and the iteration stalls when no trial
    lowers the residual.  Returns the final iterate, the number of
    accepted steps, the ``Stop`` (``CONVERGED`` once the residual is within
    ``problem.tolerance``, ``CAPPED`` after picard_max steps, or ``STALLED``)
    and the residual sup norm at the final iterate.
    A nan residual is never within the tolerance.
    """
    lower = problem.spec.lower
    tol = problem.tolerance(cfg.newton_tol)
    u = _clamp_singular(lower, u0.copy())
    nodes = problem.freeze(u)
    op = assemble_frozen(problem, nodes)
    res = _residual(op, lower, u)
    res_norm = float(np.max(np.abs(res)))
    steps = 0
    while not res_norm <= tol:
        if steps == cfg.picard_max:
            stop = Stop.CAPPED
            break
        gp = _absorption_prime(lower, u)
        jac = DiscreteOperator(op.grid, op.sub, op.diag + gp, op.sup, op.rhs)
        if problem.spec.coefficient.gamma > 0:  # else A_n does not depend on u
            jac = _exact_jacobian(op, jac, nodes, problem)
        accepted = _line_search(problem, op, u, res, res_norm, jac)
        if accepted is None:
            stop = Stop.STALLED
            break
        u, nodes, op, res, res_norm = accepted
        steps += 1
    else:
        stop = Stop.CONVERGED
    return GridFunction(problem.grid, u), steps, stop, res_norm


def picard_solve(problem: DiscreteProblem, cfg: SolverConfig,
                 u_init: GridFunction | None = None) -> SolveResult:
    """Solve one truncation level by one coupled damped Newton iteration.

    From u_init (default 0), ``newton_semilinear`` iterates on the full
    residual A_n(u) u + g(u) - T_n f with the exact tridiagonal Jacobian,
    for at most picard_max steps.  The flags carry its ``Stop`` and whether
    the level's clipping touches the final iterate or the datum;
    ``converged`` and ``hit_iteration_cap`` read the stop.  ``picard_iters``
    counts the accepted steps.
    """
    u0 = np.zeros(problem.grid.M) if u_init is None else u_init.values
    u, steps, stop, residual = newton_semilinear(problem, u0, cfg)
    return SolveResult(u=u, problem=problem, picard_iters=steps, residual_inf=residual,
                       flags=SolveFlags(stop, problem.truncation_active(u.values)))


def _sup_bound(lower: LowerOrderTerm, f_peak: float) -> float:
    """The discrete maximum principle's bound on max|u|: at the node where
    |u| peaks the row of A_n(u) u is of u's sign, so g(max|u|) <= max|f|.
    That is max|f|^(1/p) for power absorption and sigma for the barrier;
    without absorption there is none (0)."""
    if isinstance(lower, PowerAbsorption):
        try:
            return f_peak ** (1.0 / lower.p)
        except OverflowError:
            return math.inf
    if isinstance(lower, SingularAbsorption):
        return lower.sigma
    return 0.0


def truncation_continuation(grid: RadialGrid, spec: ProblemSpec, cfg: SolverConfig,
                            f_values: GridFunction | None = None) -> SolveResult:
    """March the truncation level upward until the clipping is inactive.

    The datum is ``f_values`` or, by default, ``spec.datum`` at the nodes.
    The march starts at the first level that reaches max|f| at the nodes,
    below which the datum is clipped whatever u is, and ``_sup_bound``,
    and doubles up to n_max.  Each level is one ``DiscreteProblem``.  The
    first one starts from u = 0; each later one is one coupled Newton solve
    (see picard_solve) warm-started from the previous level's iterate, also
    when that level was capped or stalled.  The march stops as soon as n
    exceeds max|u| and max|f| at the nodes, after which larger levels would
    reproduce the same discrete problem.  If n_max comes first, the result
    keeps truncation_active=True rather than hiding it.  The returned
    problem and flags are the final level's; ``picard_iters`` is summed
    over the levels.
    """
    f_nodal = datum_eval(spec.datum, grid.nodes) if f_values is None else f_values.values
    f_peak = float(np.max(np.abs(f_nodal)))
    n = cfg.level_at_least(max(f_peak, _sup_bound(spec.lower, f_peak)))
    steps = 0
    result: SolveResult | None = None
    while True:
        problem = DiscreteProblem(grid, spec, f_nodal, n, cfg.face_scheme)
        result = picard_solve(problem, cfg, u_init=None if result is None else result.u)
        steps += result.picard_iters
        if not result.flags.truncation_active or n == cfg.n_max:
            return replace(result, picard_iters=steps)
        n = cfg.level_at_least(n + 1)


def manufactured_rhs(grid: RadialGrid, spec: ProblemSpec, u_star: GridFunction,
                     n: int, scheme: str = "upwind") -> GridFunction:
    """Datum for which u_star is the exact discrete solution at level n: the
    residual of u_star in the level-n problem with datum zero."""
    problem = DiscreteProblem(grid, spec, np.zeros(grid.M), n, scheme)
    return GridFunction(grid, _residual(problem.operator(u_star.values), spec.lower,
                                        u_star.values))
