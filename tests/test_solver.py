import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from common import CFG, no_absorption_spec, poisson_spec, power_spec, singular_spec

from degelab.grid import build_radial_grid, grid_function
from degelab.problem import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    SingularAbsorption,
    datum_eval,
    lower_order_eval,
)
import degelab.solver as solver
from degelab.solver import (
    DiscreteOperator,
    DiscreteProblem,
    SingularOperatorError,
    SolveFlags,
    SolverConfig,
    Stop,
    assemble_frozen,
    apply_operator,
    manufactured_rhs,
    newton_semilinear,
    picard_solve,
    tridiag_solve,
    truncation_continuation,
)


def level(grid, spec, n, f_values=None):
    """The level-n discrete problem of spec's datum, or of f_values, on grid."""
    f = datum_eval(spec.datum, grid.nodes) if f_values is None else f_values.values
    return DiscreteProblem(grid, spec, f, n)


def coefficient_level(grid, coeff, n):
    """A level-n discrete problem with coefficient coeff and datum zero."""
    return DiscreteProblem(grid, replace(poisson_spec(), coefficient=coeff),
                           np.zeros(grid.M), n)


def synthetic_operator(grid, sub, diag, sup, rhs):
    return DiscreteOperator(grid=grid, sub=np.asarray(sub, float),
                            diag=np.asarray(diag, float), sup=np.asarray(sup, float),
                            rhs=np.asarray(rhs, float))


def probe_case():
    """M = 2048 entropy probe near the L^1 edge: gamma = p = m = 1, delta = 2.55.

    Its datum peaks above 2^30 at the first node."""
    grid = build_radial_grid(3, 1.0, 2048)
    return grid, power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.55))


def matrix_radial_case(delta):
    """Acceptance-matrix corner gamma = 1, p = 0.5, m = 1, radial datum, M = 256."""
    grid = build_radial_grid(3, 1.0, 256)
    return grid, power_spec(1.0, 0.5, 1.0, RadialPowerDatum(1.0, delta))


class TestAssemble:
    def test_constant_coefficient_matches_manual_stencil(self):
        grid = build_radial_grid(3, 1.0, 16)
        u0 = grid_function(grid, 0.0)
        op = assemble_frozen(coefficient_level(grid, CoefficientSpec(1.0, 1.0, 0.0), 4), u0)
        # manual conservative stencil with unit coefficient
        areas = grid.faces**2
        trans = np.zeros(grid.M + 1)
        trans[1:] = areas[1:] / grid.gaps[1:]
        vol = (grid.faces[1:] ** 3 - grid.faces[:-1] ** 3) / 3
        assert np.allclose(op.diag, (trans[:-1] + trans[1:]) / vol)
        assert np.allclose(op.sub[1:], -trans[1:-1] / vol[1:])
        assert np.allclose(op.sup[:-1], -trans[1:-1] / vol[:-1])

    def test_zero_frozen_state_scales_with_alpha(self):
        grid = build_radial_grid(3, 1.0, 16)
        u0 = grid_function(grid, 0.0)
        op1 = assemble_frozen(coefficient_level(grid, CoefficientSpec(1.0, 1.0, 0.7), 4), u0)
        op2 = assemble_frozen(coefficient_level(grid, CoefficientSpec(2.0, 2.0, 0.7), 4), u0)
        assert np.allclose(op2.diag, 2 * op1.diag)
        assert np.allclose(op2.sub, 2 * op1.sub)

    def test_truncated_face_coefficients(self):
        grid = build_radial_grid(3, 1.0, 16)
        problem = coefficient_level(grid, CoefficientSpec(1.0, 1.0, 1.0), 10)
        a = problem.faces(np.full(grid.M, 3.0))
        assert np.allclose(a, 0.25)  # T_10(3) = 3, a = alpha/(1+3)
        a_clipped = problem.faces(np.full(grid.M, 50.0))
        assert np.allclose(a_clipped, 1.0 / 11.0)  # T_10(50) = 10

    def test_upwind_picks_larger_magnitude(self):
        grid = build_radial_grid(3, 1.0, 8)
        vals = np.array([0.0, 5.0, 0.0, -7.0, 0.0, 1.0, 2.0, 0.5])
        # n = 8 clips no value
        a = coefficient_level(grid, CoefficientSpec(1.0, 1.0, 1.0), 8).faces(vals)
        assert a[1] == pytest.approx(1.0 / 6.0)   # faces next to the 5
        assert a[2] == pytest.approx(1.0 / 6.0)
        assert a[3] == pytest.approx(1.0 / 8.0)   # |-7| wins
        assert a[8] == pytest.approx(1.0 / 1.5)   # boundary face vs ghost 0

    def test_frozen_operator_applied_is_the_residual(self):
        # A_n(u) assembled at u and applied to u, plus g(u) - T_n f, is the
        # flux-form residual up to rounding
        grid = build_radial_grid(3, 1.0, 32, grading=2.0)
        spec = power_spec(1.0, 2.0, 1.0, ConstantDatum(3.0))
        problem = level(grid, spec, 4)
        u = grid_function(grid, lambda r: 6.0 * (1.0 - r**2))
        applied = apply_operator(assemble_frozen(problem, u), u.values) \
            + lower_order_eval(spec.lower, u.values) - problem.rhs
        residual = problem.residual(u.values)
        assert np.max(np.abs(applied - residual)) <= 1e-12 * np.max(np.abs(residual))


class TestDiscreteProblem:
    def test_datum_must_be_finite(self):
        # a radial datum can overflow at the first node; run_single records
        # the raise as a failed solve
        grid = build_radial_grid(3, 1.0, 8)
        spec = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 400.0))
        with np.errstate(over="ignore"):
            f = datum_eval(spec.datum, grid.nodes)
        assert f[0] == np.inf
        with pytest.raises(ValueError, match="must be finite"):
            DiscreteProblem(grid, spec, f, 2**30)

    def test_level_clips_datum_and_sets_contract(self):
        grid = build_radial_grid(3, 1.0, 8)
        clipped = level(grid, poisson_spec(amplitude=5.0), 4)
        assert np.all(clipped.f_nodal == 5.0) and np.all(clipped.rhs == 4.0)
        assert clipped.tolerance(1e-10) == 1e-10 * (1.0 + 4.0)
        assert clipped.truncation_active(np.zeros(grid.M))
        free = level(grid, poisson_spec(amplitude=4.0), 4)
        assert not free.truncation_active(np.full(grid.M, 3.0))
        assert free.truncation_active(np.full(grid.M, -4.0))


class TestTridiagSolve:
    def test_identity(self):
        grid = build_radial_grid(3, 1.0, 8)
        rhs = np.arange(8, dtype=float)
        op = synthetic_operator(grid, np.zeros(8), np.ones(8), np.zeros(8), rhs)
        assert np.allclose(tridiag_solve(op), rhs)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        grid = build_radial_grid(3, 1.0, 32)
        M = grid.M
        sub = np.zeros(M)
        sup = np.zeros(M)
        sub[1:] = rng.uniform(-1, 0, M - 1)
        sup[:-1] = rng.uniform(-1, 0, M - 1)
        diag = 2.5 + rng.uniform(0, 1, M)
        rhs = rng.normal(0, 1, M)
        op = synthetic_operator(grid, sub, diag, sup, rhs)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expect = np.linalg.solve(dense, rhs)
        got = tridiag_solve(op)
        assert np.max(np.abs(got - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))
        residual = dense @ got - rhs
        assert np.max(np.abs(residual)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_poisson_solve_matches_analytic(self):
        grid = build_radial_grid(3, 1.0, 128)
        op = assemble_frozen(coefficient_level(grid, CoefficientSpec(1.0, 1.0, 0.0), 1),
                             grid_function(grid, 0.0))
        u = tridiag_solve(op, np.ones(grid.M))
        exact = (1 - grid.nodes**2) / 6
        assert np.max(np.abs(u - exact)) < 5e-5

    def test_matches_solve_banded_on_probe_operator(self):
        grid, spec = probe_case()
        n = 64
        problem = level(grid, spec, n)
        warm = picard_solve(problem, CFG)
        op = assemble_frozen(problem, warm.u)
        rhs = np.clip(grid.nodes ** -2.55, -n, n)
        banded = np.zeros((3, grid.M))
        banded[0, 1:] = op.sup[:-1]
        banded[1] = op.diag
        banded[2, :-1] = op.sub[1:]
        assert np.array_equal(tridiag_solve(op, rhs), solve_banded((1, 1), banded, rhs))

    def test_singular_assembly_raises(self):
        grid = build_radial_grid(3, 1.0, 8)
        op = synthetic_operator(grid, np.zeros(8), np.zeros(8), np.zeros(8), np.ones(8))
        with pytest.raises(SingularOperatorError):
            tridiag_solve(op)

    def test_missing_lapack_extension_names_path_and_version(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(ImportError) as err:
            solver._load_flapack()
        assert str(tmp_path / "linalg" / "_flapack") in str(err.value)
        assert f"in scipy {scipy.__version__}" in str(err.value)


def dense(op):
    """The tridiagonal operator op as a dense matrix."""
    return np.diag(op.diag) + np.diag(op.sub[1:], -1) + np.diag(op.sup[:-1], 1)


class TestExactJacobian:
    @staticmethod
    def jacobian(problem, u):
        """The Newton loop's Jacobian at u, from the point its residual is taken at."""
        return dense(solver._jacobian(problem, problem._at(u),
                                      solver._absorption_prime(problem.spec.lower, u)))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_central_differences(self, gamma, scaled):
        # central differences of DiscreteProblem.residual, the one residual;
        # g' is the solver's own, at two powers p so that a wrong factor or
        # exponent in g' shows; scaled, alpha = 2 shows a coefficient term
        # off by a factor of alpha
        grid = build_radial_grid(3, 1.0, 24, grading=2.0)
        alpha = 2.0 if scaled else 1.0
        coeff = CoefficientSpec(alpha, alpha, gamma)
        n, h = 4, 1e-6
        rng = np.random.default_rng(5)
        u = rng.normal(0.0, 3.0, grid.M)
        f = rng.normal(0.0, 1.0, grid.M)
        # the stencil crosses no upwind tie and no clip at |u| = n, and some
        # nodes are clipped
        assert np.min(np.abs(np.abs(u[1:]) - np.abs(u[:-1]))) > 100 * h
        assert np.min(np.abs(np.abs(u) - n)) > 100 * h
        assert np.any(np.abs(u) > n)
        for p in (2.0, 3.0):
            spec = replace(poisson_spec(), coefficient=coeff, lower=PowerAbsorption(p))
            problem = DiscreteProblem(grid, spec, f, n)
            fd = np.column_stack([(problem.residual(u + h * e) - problem.residual(u - h * e))
                                  / (2 * h) for e in np.eye(grid.M)])
            jac = self.jacobian(problem, u)
            scale = np.max(np.abs(fd))
            assert np.max(np.abs(jac - fd)) <= 1e-6 * scale, p
            frozen = dense(assemble_frozen(problem, grid_function(grid, u))) \
                + np.diag(solver._absorption_prime(spec.lower, u))
            coefficient_part = np.max(np.abs(jac - frozen))
            assert coefficient_part == 0.0 if gamma == 0.0 else coefficient_part > 1e-3 * scale

    def test_no_rate_at_a_node_exactly_on_the_clip(self):
        # |u| = n at nodes 2 and 4: T_n holds a(T_n u) there, so no face
        # coefficient moves with them and their Jacobian columns are the
        # frozen operator's; node 1 lies below n and its column is not
        grid = build_radial_grid(3, 1.0, 8)
        problem = coefficient_level(grid, CoefficientSpec(1.0, 1.0, 1.0), 4)
        u = np.array([0.5, 1.0, 4.0, 1.0, -4.0, 2.0, 0.5, 0.25])
        jac = self.jacobian(problem, u)
        frozen = dense(assemble_frozen(problem, grid_function(grid, u)))
        assert np.array_equal(jac[:, [2, 4]], frozen[:, [2, 4]])
        assert not np.allclose(jac[:, 1], frozen[:, 1])


class TestNewton:
    """newton_semilinear at gamma = 0 levels, through picard_solve: A_n does
    not depend on u there, so the frozen-coefficient Jacobian is exact."""

    def test_linear_problem_single_solve(self):
        grid = build_radial_grid(3, 1.0, 16)
        res = picard_solve(level(grid, poisson_spec(), 1), CFG)
        assert res.flags.converged and res.picard_iters <= 1
        assert res.problem.residual_norm(res.u.values) <= 1e-12 * (1 + 1)

    @staticmethod
    def constant_root_level(absorption, root):
        """The gamma = 0 level whose exact discrete solution is u = root at
        every node: its datum is manufactured from that constant field."""
        grid = build_radial_grid(3, 1.0, 8)
        spec = ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, 0.0), absorption,
                           DatumSpec(ConstantDatum(1.0), 1.0))
        star = grid_function(grid, root)
        n = 2 ** 12
        f_h = manufactured_rhs(grid, spec, star, n)
        assert np.max(np.abs(f_h.values)) < n
        return picard_solve(level(grid, spec, n, f_h), CFG)

    def test_cubic_scalar_root(self):
        # field value: the bisection root of u + u^3 = 2
        root = brentq(lambda s: s + s**3 - 2.0, 0.0, 2.0, xtol=1e-14)
        res = self.constant_root_level(PowerAbsorption(3.0), root)
        assert res.flags.converged
        assert np.allclose(res.u.values, root, rtol=1e-10)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_barrier_scalar_root(self):
        # field value: the bisection root of u + u/(1-u) = 3 on [0, 1)
        root = brentq(lambda s: s + s / (1.0 - s) - 3.0, 0.0, 1.0 - 1e-12, xtol=1e-15)
        res = self.constant_root_level(SingularAbsorption(1.0), root)
        assert res.flags.converged
        assert np.allclose(res.u.values, root, rtol=1e-9)
        assert root == pytest.approx((5.0 - math.sqrt(13.0)) / 2.0, abs=1e-12)

    def test_fractional_power_root(self):
        # the regularized Jacobian still finds the field; its value is the
        # root of u + sqrt(u) = 2
        root = brentq(lambda s: s + math.sqrt(s) - 2.0, 0.0, 4.0, xtol=1e-14)
        res = self.constant_root_level(PowerAbsorption(0.5), root)
        assert res.flags.converged
        assert np.allclose(res.u.values, root, rtol=1e-9)


    def test_nan_residual_stalls(self, monkeypatch):
        # a nan residual is within no tolerance: the level stalls, where a
        # `residual > tol` loop test ended it converged after 0 steps
        grid = build_radial_grid(3, 1.0, 16)
        monkeypatch.setattr(solver, "lower_order_eval",
                            lambda term, s: np.full(np.shape(s), np.nan))
        res = picard_solve(level(grid, power_spec(0.5, 1.0, 1.0), 1), CFG)
        assert res.flags == SolveFlags(Stop.STALLED, truncation_active=False)
        assert not (res.flags.converged or res.flags.hit_iteration_cap)
        assert res.picard_iters == 0 and math.isnan(res.residual_inf)

    def test_a_trial_that_ties_the_residual_stalls(self):
        # barrier sigma = 1 against the datum 1e15: every node's step points
        # past the barrier, so each trial clamps back to the start at sigma -
        # SINGULAR_MARGIN and its residual norm ties the current one.  A tie
        # is no progress: the level stalls after 0 steps, where accepting it
        # would step in place until picard_max
        grid = build_radial_grid(3, 1.0, 16)
        problem = level(grid, singular_spec(1.0, 1.0, 1e15), 2**60)
        start = grid_function(grid, 1.0 - solver.SINGULAR_MARGIN)
        res = picard_solve(problem, CFG, u_init=start)
        assert (res.flags.stop, res.picard_iters) == (Stop.STALLED, 0)
        assert np.all(res.u.values == start.values)


class TestOneAssemblyPath:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_newton_operator_is_the_problems(self, monkeypatch, gamma):
        # every residual the Newton loop takes, from the faces it carries
        # (at gamma = 0, the start's), is bit for bit DiscreteProblem.residual
        # at that point, the one the audit and verify --solution use;
        # alpha = 0.01 lifts u above n = 4 inside the ball
        seen = []
        original = solver._evaluate

        def recording(*args):
            point = original(*args)
            seen.append((point.u, point.res))
            return point

        monkeypatch.setattr(solver, "_evaluate", recording)
        grid = build_radial_grid(3, 1.0, 32, grading=2.0)
        spec = ProblemSpec(3, 1.0, CoefficientSpec(0.01, 0.01, gamma), PowerAbsorption(0.5),
                           DatumSpec(ConstantDatum(50.0), 1.0))
        problem = level(grid, spec, 4)
        res = picard_solve(problem, CFG)
        taken = list(seen)
        assert res.flags.converged and res.picard_iters > 1
        assert len(taken) > res.picard_iters
        clipped = np.abs(res.u.values) > problem.n
        assert clipped.any() and not clipped.all()
        assert taken[-1][0].tobytes() == res.u.values.tobytes()
        for u, residual in taken:
            assert residual.tobytes() == problem.residual(u).tobytes()
        assert res.residual_inf == problem.residual_norm(res.u.values)


class TestPicard:
    def test_zero_datum_single_sweep(self):
        # the zero start already solves the level, so no Newton step is taken
        grid = build_radial_grid(3, 1.0, 32)
        spec = power_spec(0.0, 1.0, 1.0, ConstantDatum(0.0))
        res = picard_solve(level(grid, spec, 1), CFG)
        assert res.flags.converged
        assert res.picard_iters == 0
        assert np.all(res.u.values == 0.0)

    def test_analytic_baseline(self):
        grid = build_radial_grid(3, 1.0, 128)
        res = picard_solve(level(grid, poisson_spec(), 2), CFG)
        exact = (1 - grid.nodes**2) / 6
        assert res.flags.converged
        assert np.max(np.abs(res.u.values - exact)) < 5e-5

    def test_degenerate_sandwiched_by_constant_coefficient_runs(self):
        # frozen comparison oracle at the same mesh: the degenerate solution
        # dominates the coercive one in sup norm and is dominated pointwise
        # by the run with the coefficient pinned at its degeneracy floor
        grid = build_radial_grid(3, 1.0, 128)
        spec_deg = power_spec(1.0, 2.0, 1.0)
        res_deg = truncation_continuation(grid, spec_deg, CFG)
        assert res_deg.flags.converged
        res_lo = truncation_continuation(grid, power_spec(0.0, 2.0, 1.0), CFG)
        K = float(np.max(res_deg.u.values))
        floor_coeff = 1.0 / (1.0 + K)
        spec_up = ProblemSpec(3, 1.0, CoefficientSpec(floor_coeff, floor_coeff, 0.0),
                              PowerAbsorption(2.0), DatumSpec(ConstantDatum(1.0), 1.0))
        res_up = truncation_continuation(grid, spec_up, CFG)
        scale = 1e-9 * (1 + K)
        assert np.max(res_deg.u.values) >= np.max(res_lo.u.values) - scale
        assert np.all(res_deg.u.values <= res_up.u.values + scale)

    def test_maximum_principle_nonnegative(self):
        grid = build_radial_grid(3, 1.0, 64)
        for spec in (power_spec(1.0, 2.0, 1.0, ConstantDatum(5.0)),
                     power_spec(0.5, 0.5, 1.5, RadialPowerDatum(1.0, 1.0)),
                     singular_spec(1.0, 1.0, 2.0)):
            res = truncation_continuation(grid, spec, CFG)
            assert res.flags.converged
            assert np.all(res.u.values >= 0.0)

    def test_interior_maximum_bounded_by_datum(self):
        # at the peak node the absorption cannot exceed the datum
        grid = build_radial_grid(3, 1.0, 64)
        spec = power_spec(1.0, 2.0, 1.0, ConstantDatum(5.0))
        res = truncation_continuation(grid, spec, CFG)
        peak = float(np.max(res.u.values))
        assert peak**2 <= 5.0 * (1 + 1e-10)

    def test_divergence_guard_keeps_flags_honest(self):
        grid = build_radial_grid(3, 1.0, 32)
        spec = power_spec(1.0, 2.0, 1.0)
        cfg = SolverConfig(picard_max=2)
        res = picard_solve(level(grid, spec, 1024), cfg)
        assert (res.flags.stop, res.picard_iters) == (Stop.CAPPED, 2)
        assert res.flags.hit_iteration_cap
        assert not res.flags.converged

    @pytest.mark.parametrize("picard_max", [2.5, 0, -1])
    def test_picard_max_is_an_integer_of_at_least_one(self, picard_max):
        # the cap test `steps == picard_max` never holds for these: the
        # level would run on uncapped and could never stop capped
        with pytest.raises(ValueError, match=r"picard_max must be an integer >= 1"):
            SolverConfig(picard_max=picard_max)

    @pytest.mark.parametrize("key,value,violation", [
        # level_at_least(3) returned the non-level 2.5
        ("n_max", 2.5, "n_max must be an integer >= 1, got 2.5"),
        ("n_max", 0, "n_max must be an integer >= 1, got 0"),
        # every residual met an infinite tolerance
        ("newton_tol", math.inf, "newton_tol must be finite and positive, got inf"),
        ("newton_tol", 0.0, "newton_tol must be finite and positive, got 0.0"),
    ], ids=["n_max-fraction", "n_max-zero", "newton_tol-inf", "newton_tol-zero"])
    def test_n_max_and_newton_tol_are_checked(self, key, value, violation):
        with pytest.raises(ValueError) as err:
            SolverConfig(**{key: value})
        assert str(err.value) == violation

    def test_one_line_search_per_newton_step(self, monkeypatch):
        # one direction per step, the exact Jacobian's (for gamma = 0 the
        # frozen-coefficient one): a converged level makes one line search
        # per accepted step
        searches = []
        original = solver._line_search
        monkeypatch.setattr(solver, "_line_search",
                            lambda *args: searches.append(args) or original(*args))
        grid = build_radial_grid(3, 1.0, 32)
        for gamma in (0.0, 0.5):
            searches.clear()
            res = picard_solve(level(grid, power_spec(gamma, 1.0, 1.0), 4), CFG)
            assert res.flags.converged
            assert len(searches) == res.picard_iters > 0


class TestContinuation:
    def test_bounded_datum_deactivates_truncation(self):
        grid = build_radial_grid(3, 1.0, 64)
        spec = power_spec(1.0, 1.0, 1.0, ConstantDatum(5.0))
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged
        assert not res.flags.truncation_active
        assert res.n_final >= 5
        assert res.n_final > np.max(np.abs(res.u.values))

    def test_zero_datum_stops_at_first_level(self):
        grid = build_radial_grid(3, 1.0, 32)
        spec = power_spec(0.5, 1.0, 1.0, ConstantDatum(0.0))
        res = truncation_continuation(grid, spec, CFG)
        assert res.n_final == 1
        assert np.all(res.u.values == 0.0)

    def test_final_level_clears_nodal_datum_peak(self):
        grid = build_radial_grid(3, 1.0, 32)
        spec = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.5))
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged and not res.flags.truncation_active
        f_peak = float(np.max(grid.nodes ** -2.5))
        u_peak = float(np.max(np.abs(res.u.values)))
        # first level of the schedule, the powers of two, that satisfies the
        # stopping rule
        assert res.n_final == min(2**k for k in range(64) if 2**k >= f_peak and 2**k > u_peak)

    def test_warm_start_never_costs_more_newton_steps(self):
        # the cold baseline solves the same levels, from the first one that
        # reaches the datum's peak and the maximum principle's bound
        # max|f|^(1/p), each from zero instead of the previous level's
        # iterate
        specs = [
            power_spec(0.0, 0.5, 1.0, ConstantDatum(1.0)),
            power_spec(0.0, 2.0, 1.5, ConstantDatum(4.0)),
            power_spec(0.5, 1.0, 1.0, ConstantDatum(2.0)),
            power_spec(0.5, 4.0, 2.0, ConstantDatum(1.0)),
            power_spec(1.0, 1.0, 1.0, ConstantDatum(5.0)),
            power_spec(1.0, 2.0, 1.0, ConstantDatum(1.0)),
            power_spec(1.0, 0.5, 1.5, ConstantDatum(3.0)),
            power_spec(0.5, 2.0, 1.0, RadialPowerDatum(1.0, 1.0)),
            power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0)),
            power_spec(0.0, 1.0, 2.0, ConstantDatum(8.0)),
            # u outgrows the datum here, up to the bound max|f|^2 = 2^31
            power_spec(1.0, 0.5, 1.0, RadialPowerDatum(1.0, 2.2)),
            # without absorption there is no bound: the climb passes 6 levels
            no_absorption_spec(1.0, 40.0),
        ]
        grid = build_radial_grid(3, 1.0, 64)
        warm_total = cold_total = 0
        for spec in specs:
            warm = truncation_continuation(grid, spec, CFG)
            assert warm.flags.converged
            warm_total += warm.picard_iters
            f_peak = float(np.max(datum_eval(spec.datum, grid.nodes)))
            bound = f_peak ** (1.0 / spec.lower.p) if isinstance(spec.lower, PowerAbsorption) \
                else 0.0
            for n in (2**k for k in range(64) if 2**k >= max(f_peak, bound)):
                cold = picard_solve(level(grid, spec, n), CFG)
                cold_total += cold.picard_iters
                if not cold.flags.truncation_active:
                    break
            assert cold.flags.converged
        assert warm_total <= cold_total

    @staticmethod
    def record_levels(monkeypatch):
        """Results of the picard_solve calls truncation_continuation makes."""
        levels = []
        original = solver.picard_solve

        def recording(*args, **kwargs):
            levels.append(original(*args, **kwargs))
            return levels[-1]

        monkeypatch.setattr(solver, "picard_solve", recording)
        return levels

    def test_probe_runs_only_the_top_level(self, monkeypatch):
        # the datum peaks above n_max = 2^30, so every lower level would
        # clip it whatever u is: the climb is the single level n_max, from
        # zero
        grid, spec = probe_case()
        cfg = SolverConfig(n_max=2**30)
        levels = self.record_levels(monkeypatch)
        res = truncation_continuation(grid, spec, cfg)
        assert [level.n_final for level in levels] == [2**30]
        assert res.flags.converged and not res.flags.hit_iteration_cap
        assert res.n_final == 2**30
        assert res.picard_iters == levels[0].picard_iters < 20
        r = res.problem.residual_norm(res.u.values)
        assert r == res.residual_inf
        assert r <= cfg.newton_tol * (1 + 2**30)

    def test_climb_starts_at_the_datum_peak(self, monkeypatch):
        grid = build_radial_grid(3, 1.0, 64)
        levels = self.record_levels(monkeypatch)
        res = truncation_continuation(grid, power_spec(1.0, 1.0, 1.0, ConstantDatum(5.0)),
                                      CFG)
        assert levels[0].n_final == 8
        assert res.flags.converged and not res.flags.truncation_active

    @pytest.mark.parametrize("spec, first", [
        (power_spec(1.0, 0.5, 1.0, ConstantDatum(5.0)), 32),  # max|u| <= 5^2
        (singular_spec(1.0, 100.0, 5.0), 128),                # u < sigma = 100
        (no_absorption_spec(0.5, 5.0), 8),                    # no bound: max|f|
        # climbing from max|f| = 64, this case stalled at level 64 or 128
        (power_spec(1.0, 0.5, 1.0, ConstantDatum(64.0)), 4096),
    ])
    def test_climb_starts_at_the_sup_bound(self, monkeypatch, spec, first):
        # the maximum principle bounds u before the solve, so the climb ends
        # on the level it starts at
        levels = self.record_levels(monkeypatch)
        res = truncation_continuation(build_radial_grid(3, 1.0, 64), spec, CFG)
        assert [level.n_final for level in levels] == [first]
        assert res.flags.converged and not res.flags.truncation_active

    def test_datum_clipped_at_the_cap_is_odd(self):
        # a datum above n_max is clipped to T_n f on both signs; the scheme
        # is odd in (u, f), so -f gives exactly -u, and each meets the
        # residual contract at the cap
        grid = build_radial_grid(3, 1.0, 64)
        cfg = SolverConfig(n_max=16)
        res = {}
        for amplitude in (100.0, -100.0):
            spec = power_spec(0.5, 1.0, 1.0, ConstantDatum(amplitude))
            res[amplitude] = truncation_continuation(grid, spec, cfg)
            assert res[amplitude].n_final == 16
            r = res[amplitude].problem.residual_norm(res[amplitude].u.values)
            assert r <= cfg.newton_tol * (1 + 16)
        assert np.array_equal(res[-100.0].u.values, -res[100.0].u.values)


    def test_slow_picard_matrix_case_converges(self):
        # the nested Picard/Newton ran 12 levels of this case into picard_max
        grid, spec = matrix_radial_case(2.0912546988088936)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged and not res.flags.hit_iteration_cap
        r = res.problem.residual_norm(res.u.values)
        assert r == res.residual_inf
        f_peak = float(np.max(grid.nodes ** -2.0912546988088936))
        assert r <= CFG.newton_tol * (1 + min(f_peak, res.n_final))

    def test_level_at_least_reads_the_schedule(self):
        cfg = SolverConfig(n_max=100)
        schedule = [1, 2, 4, 8, 16, 32, 64, 100]
        for bound in (-3.0, 0, 0.5, 1, 1.5, 2, 3, 63.5, 64, 64.5, 99, 100, 101, 1e300,
                      math.inf, math.nan):
            assert cfg.level_at_least(bound) == min([n for n in schedule if n >= bound],
                                                    default=100), bound
        assert [n for n in range(-2, 202) if cfg.level_at_least(n) == n] == schedule
        # exact beyond float64's integers: 2^60 + 1 is no level, 2^61 is the next
        assert CFG.level_at_least(2**60 + 1) == 2**61
        assert CFG.level_at_least(2**60) == 2**60

    def test_constant_datum_scan_is_solved(self):
        # 69 of these 384 problems stalled, with no flag set and |F| of the
        # order of A, when the climb started at max|f| below the bound
        # max|f|^(1/p) and a frozen-coefficient direction backed the exact
        # one; (gamma, p, A, M) = (1, 0.25, 1000, 64) needs a smallest step
        # factor DAMPING_MIN below 2^-6
        unsolved = []
        for M in (32, 64, 256, 1024):
            grid = build_radial_grid(3, 1.0, M)
            for gamma, p, amplitude in itertools.product(
                    (0.0, 0.5, 1.0), (0.25, 0.5, 1.0, 2.0), (5, 10, 20, 40, 64, 100, 300, 1000)):
                spec = power_spec(gamma, p, 1.0, ConstantDatum(float(amplitude)))
                res = truncation_continuation(grid, spec, CFG)
                if not res.flags.converged or res.flags.truncation_active:
                    unsolved.append((gamma, p, amplitude, M, res.n_final, res.residual_inf))
        assert unsolved == []

    @pytest.mark.parametrize("delta", [2.2695845868115727, 2.3621931384412047])
    def test_exact_direction_solves_from_the_bound_level(self, delta):
        # climbing from max|f|, Newton along the exact Jacobian stalled at
        # levels 2^27 to 2^30 of these cases, with the iterate swung to
        # -1.7e7 and -2.4e8. Started at the maximum principle's level
        # n >= max|f|^2 (2^41 and 2^43), the halved exact direction solves
        # each on that one level
        grid, spec = matrix_radial_case(delta)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged and not res.flags.hit_iteration_cap
        f_peak = float(np.max(grid.nodes ** -delta))
        assert res.residual_inf <= CFG.newton_tol * (1 + min(f_peak, res.n_final))


class TestStartIndependence:
    # gamma -> (problems solved, restarts that converge) over the grid below:
    # no absorption at gamma = 1 and radial A = 100 stalls at M = 64 and
    # stays truncation-active at M = 256; the restarts that do not converge
    # stall
    COUNTS = {0.0: (24, 120), 0.5: (24, 117), 1.0: (22, 97)}

    @pytest.mark.parametrize("gamma", sorted(COUNTS))
    def test_every_converged_restart_reaches_newtons_field(self, gamma):
        # for gamma <= 1 the level's system is monotone: each converged,
        # untruncated solve is re-solved at its final level from 2u, u/2,
        # -u, a seeded random field and a flat field, and every restart
        # that converges lands on the same field (the largest deviation,
        # 2.9e-8 max|u|, is p = 0.5 with radial data)
        solved = converged = 0
        for lower, amplitude, radial, M in itertools.product(
                (PowerAbsorption(0.5), PowerAbsorption(2.0), NoAbsorption()),
                (1.0, 100.0), (False, True), (64, 256)):
            datum = RadialPowerDatum(amplitude, 1.5) if radial else ConstantDatum(amplitude)
            spec = ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma), lower,
                               DatumSpec(datum, 1.0))
            res = truncation_continuation(build_radial_grid(3, 1.0, M), spec, CFG)
            if not res.flags.converged or res.flags.truncation_active:
                continue
            solved += 1
            u = res.u.values
            peak = np.max(np.abs(u))
            rng = np.random.default_rng(0)
            for start in (2 * u, u / 2, -u, rng.uniform(-peak, peak, M), np.full(M, peak)):
                field, _, stop, _ = newton_semilinear(res.problem, start, CFG)
                if stop is Stop.CONVERGED:
                    converged += 1
                    assert np.max(np.abs(field.values - u)) <= 1e-6 * peak, (spec, M)
        assert (solved, converged) == self.COUNTS[gamma]


class TestResidualAndManufactured:
    def test_converged_run_meets_contract(self):
        grid = build_radial_grid(3, 1.0, 64)
        spec = power_spec(1.0, 2.0, 1.0)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged
        r = res.problem.residual_norm(res.u.values)
        assert r <= CFG.newton_tol * (1 + 1.0)

    def test_returned_residual_within_contract_one_step_past_it(self):
        # the next-to-last Newton step of the final level (n = 2048) leaves
        # the residual at 2.3 times the contract; the last one takes it to
        # 1.2e-5 times it. A looser stop test would return the earlier
        # iterate, still marked converged
        grid = build_radial_grid(3, 1.0, 64)
        spec = power_spec(0.5, 1.0, 1.0, RadialPowerDatum(1.0, 1.5))
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged and not res.flags.truncation_active
        assert res.n_final == 2048
        f_peak = float(np.max(datum_eval(spec.datum, grid.nodes)))
        r = res.problem.residual_norm(res.u.values)
        assert r == res.residual_inf
        assert r <= CFG.newton_tol * (1 + min(f_peak, res.n_final))

    def test_zero_field_residual_is_datum(self):
        grid = build_radial_grid(3, 1.0, 32)
        spec = poisson_spec()
        r = level(grid, spec, 1).residual_norm(np.zeros(grid.M))
        assert r == pytest.approx(1.0)

    def test_injected_exact_solution_interior_consistency(self):
        # the flux form reproduces the quadratic solution exactly away from
        # the Dirichlet face; the half-cell one-sided boundary gradient
        # leaves an O(1) defect confined to the last cell
        grid = build_radial_grid(3, 1.0, 256)
        spec = poisson_spec()
        exact = grid_function(grid, (1 - grid.nodes**2) / 6)
        f = manufactured_rhs(grid, spec, exact, n=1)
        interior = np.abs(f.values[:-1] - 1.0)
        assert np.max(interior) < 1e-10
        assert abs(f.values[-1] - 1.0) == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_manufactured_zero(self):
        grid = build_radial_grid(3, 1.0, 32)
        f = manufactured_rhs(grid, power_spec(1.0, 2.0, 1.0),
                             grid_function(grid, 0.0), n=1)
        assert np.all(f.values == 0.0)

    @pytest.mark.parametrize("spec,star", [
        (power_spec(1.0, 2.0, 1.0), lambda r: 1 - r**2),
        (power_spec(0.5, 0.5, 1.0), lambda r: 2 * (1 - r**2)),
        (singular_spec(1.0, 1.0, 2.0), lambda r: 0.5 * (1 - r**2)),
    ])
    def test_round_trip_reproduces_field(self, spec, star):
        grid = build_radial_grid(3, 1.0, 64)
        u_star = grid_function(grid, star)
        peak = u_star.max_abs()
        n = 1
        while n <= peak:
            n *= 2
        f_h = manufactured_rhs(grid, spec, u_star, n=n)
        res = truncation_continuation(grid, spec, CFG, f_values=f_h)
        assert res.flags.converged
        assert not res.flags.truncation_active
        err = np.max(np.abs(res.u.values - u_star.values))
        assert err <= 1e-7 * (1 + peak)
