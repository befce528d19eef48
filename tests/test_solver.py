import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from common import CFG, poisson_spec, power_spec, singular_spec

from degelab.grid import build_radial_grid, grid_function
from degelab.problem import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
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
    SingularOperatorError,
    SolverConfig,
    assemble_frozen,
    apply_operator,
    face_coefficients,
    manufactured_rhs,
    picard_solve,
    residual_norm,
    tridiag_solve,
    truncation_continuation,
)


def synthetic_operator(grid, sub, diag, sup, rhs):
    return DiscreteOperator(grid=grid, sub=np.asarray(sub, float),
                            diag=np.asarray(diag, float), sup=np.asarray(sup, float),
                            rhs=np.asarray(rhs, float))


def probe_case():
    """M = 2048 entropy probe near the L^1 edge: gamma = p = m = 1, delta = 2.55.

    Its datum peaks above n_max = 2^30 at the first node."""
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
        op = assemble_frozen(grid, CoefficientSpec(1.0, 1.0, 0.0), u0, n=4)
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
        op1 = assemble_frozen(grid, CoefficientSpec(1.0, 1.0, 0.7), u0, n=4)
        op2 = assemble_frozen(grid, CoefficientSpec(2.0, 2.0, 0.7), u0, n=4)
        assert np.allclose(op2.diag, 2 * op1.diag)
        assert np.allclose(op2.sub, 2 * op1.sub)

    def test_truncated_face_coefficients(self):
        grid = build_radial_grid(3, 1.0, 16)
        coeff = CoefficientSpec(1.0, 1.0, 1.0)
        a = face_coefficients(grid, coeff, np.full(grid.M, 3.0), n=10)
        assert np.allclose(a, 0.25)  # T_10(3) = 3, a = alpha/(1+3)
        a_clipped = face_coefficients(grid, coeff, np.full(grid.M, 50.0), n=10)
        assert np.allclose(a_clipped, 1.0 / 11.0)  # T_10(50) = 10

    def test_upwind_picks_larger_magnitude(self):
        grid = build_radial_grid(3, 1.0, 8)
        vals = np.array([0.0, 5.0, 0.0, -7.0, 0.0, 1.0, 2.0, 0.5])
        coeff = CoefficientSpec(1.0, 1.0, 1.0)
        a = face_coefficients(grid, coeff, vals, n=None)
        assert a[1] == pytest.approx(1.0 / 6.0)   # faces next to the 5
        assert a[2] == pytest.approx(1.0 / 6.0)
        assert a[3] == pytest.approx(1.0 / 8.0)   # |-7| wins
        assert a[8] == pytest.approx(1.0 / 1.5)   # boundary face vs ghost 0


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
        op = assemble_frozen(grid, CoefficientSpec(1.0, 1.0, 0.0),
                             grid_function(grid, 0.0), n=1)
        u = tridiag_solve(op, np.ones(grid.M))
        exact = (1 - grid.nodes**2) / 6
        assert np.max(np.abs(u - exact)) < 5e-5

    def test_matches_solve_banded_on_probe_operator(self):
        grid, spec = probe_case()
        n = 64
        warm = picard_solve(grid, spec, n=n, cfg=CFG)
        op = assemble_frozen(grid, spec.coefficient, warm.u, n)
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


class TestExactJacobian:
    @pytest.mark.parametrize("scheme", ["upwind", "arithmetic"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_central_differences(self, scheme, gamma, scaled):
        grid = build_radial_grid(3, 1.0, 24, grading=2.0)
        if scaled:
            coeff = CoefficientSpec(1.0, 2.0, gamma, spatial_factor=lambda r: 1.0 + r**2,
                                    spatial_bounds=(1.0, 2.0))
        else:
            coeff = CoefficientSpec(1.0, 1.0, gamma)
        lower = PowerAbsorption(2.0)
        n, h = 4, 1e-6
        rng = np.random.default_rng(5)
        u = rng.normal(0.0, 3.0, grid.M)
        rhs = rng.normal(0.0, 1.0, grid.M)
        # the stencil crosses no upwind tie and no clip at |u| = n, and some
        # nodes are clipped
        assert np.min(np.abs(np.abs(u[1:]) - np.abs(u[:-1]))) > 100 * h
        assert np.min(np.abs(np.abs(u) - n)) > 100 * h
        assert np.any(np.abs(u) > n)

        def F(v):
            op = assemble_frozen(grid, coeff, grid_function(grid, v), n, scheme)
            return apply_operator(op, v) + lower_order_eval(lower, v) - rhs

        fd = np.column_stack([(F(u + h * e) - F(u - h * e)) / (2 * h)
                              for e in np.eye(grid.M)])
        op = replace(assemble_frozen(grid, coeff, grid_function(grid, u), n, scheme), rhs=rhs)
        frozen = replace(op, diag=op.diag + 2 * np.abs(u))  # g'(u) of |u| u
        jac = solver._exact_jacobian(op, frozen, u, solver._Level(coeff, n, scheme))

        def dense(t):
            return np.diag(t.diag) + np.diag(t.sub[1:], -1) + np.diag(t.sup[:-1], 1)

        scale = np.max(np.abs(fd))
        assert np.max(np.abs(dense(jac) - fd)) <= 1e-6 * scale
        coefficient_part = np.max(np.abs(dense(jac) - dense(frozen)))
        assert coefficient_part == 0.0 if gamma == 0.0 else coefficient_part > 1e-3 * scale


class TestNewton:
    """newton_semilinear at gamma = 0 levels, through picard_solve: A_n does
    not depend on u there, so the frozen-coefficient Jacobian is exact."""

    def test_linear_problem_single_solve(self):
        grid = build_radial_grid(3, 1.0, 16)
        res = picard_solve(grid, poisson_spec(), n=1, cfg=CFG)
        assert res.flags.converged and res.picard_iters <= 1
        assert residual_norm(grid, poisson_spec(), res.u, 1) <= 1e-12 * (1 + 1)

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
        return picard_solve(grid, spec, n, CFG, f_values=f_h)

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


class TestPicard:
    def test_zero_datum_single_sweep(self):
        # the zero start already solves the level, so no Newton step is taken
        grid = build_radial_grid(3, 1.0, 32)
        spec = power_spec(0.0, 1.0, 1.0, ConstantDatum(0.0))
        res = picard_solve(grid, spec, n=1, cfg=CFG)
        assert res.flags.converged
        assert res.picard_iters == 0
        assert np.all(res.u.values == 0.0)

    def test_analytic_baseline(self):
        grid = build_radial_grid(3, 1.0, 128)
        res = picard_solve(grid, poisson_spec(), n=2, cfg=CFG)
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
        res = picard_solve(grid, spec, n=1024, cfg=cfg)
        assert res.flags.hit_iteration_cap
        assert not res.flags.converged

    def test_trace_lines(self):
        # on these mild levels every exact-Jacobian step is accepted at full
        # length, so each line names the exact direction; for gamma = 0 the
        # frozen-coefficient Jacobian is the exact one
        grid = build_radial_grid(3, 1.0, 32)
        for gamma in (0.0, 0.5):
            lines = []
            res = picard_solve(grid, power_spec(gamma, 1.0, 1.0), n=4, cfg=CFG,
                               trace=lines.append)
            assert len(lines) == res.picard_iters > 0  # one line per Newton step
            assert [line.split(", ")[:3] for line in lines] == [
                ["level 4", f"step {k}", "newton"] for k in range(1, len(lines) + 1)]
            assert "residual" in lines[0]


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
        # first schedule level satisfying the stopping rule
        levels = [n for n in CFG.n_schedule() if n >= f_peak and n > u_peak]
        assert res.n_final == levels[0]

    def test_warm_start_never_costs_more_newton_steps(self):
        # the cold baseline solves the same levels, from the first one that
        # reaches the datum's peak, each from zero instead of the previous
        # level's iterate
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
            # u outgrows the datum here, so the climb passes 15 levels
            power_spec(1.0, 0.5, 1.0, RadialPowerDatum(1.0, 2.2)),
        ]
        grid = build_radial_grid(3, 1.0, 64)
        warm_total = cold_total = 0
        for spec in specs:
            warm = truncation_continuation(grid, spec, CFG)
            assert warm.flags.converged
            warm_total += warm.picard_iters
            f_peak = float(np.max(datum_eval(spec.datum, grid.nodes)))
            for n in [n for n in CFG.n_schedule() if n >= f_peak]:
                cold = picard_solve(grid, spec, n, CFG)
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
        # the datum peaks above n_max, so every lower level would clip it
        # whatever u is: the climb is the single level n_max, from zero
        grid, spec = probe_case()
        levels = self.record_levels(monkeypatch)
        res = truncation_continuation(grid, spec, CFG)
        assert [level.n_final for level in levels] == [2**30]
        assert res.flags.converged and not res.flags.hit_iteration_cap
        assert res.n_final == 2**30
        assert res.picard_iters == levels[0].picard_iters < 20
        r = residual_norm(grid, spec, res.u, res.n_final)
        assert r == res.residual_inf
        assert r <= CFG.newton_tol * (1 + 2**30)

    def test_climb_starts_at_the_datum_peak(self, monkeypatch):
        grid = build_radial_grid(3, 1.0, 64)
        levels = self.record_levels(monkeypatch)
        res = truncation_continuation(grid, power_spec(1.0, 1.0, 1.0, ConstantDatum(5.0)),
                                      CFG)
        assert levels[0].n_final == 8
        assert res.flags.converged and not res.flags.truncation_active


    def test_slow_picard_matrix_case_converges(self):
        # the nested Picard/Newton ran 12 levels of this case into picard_max
        grid, spec = matrix_radial_case(2.0912546988088936)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged and not res.flags.hit_iteration_cap
        r = residual_norm(grid, spec, res.u, res.n_final)
        assert r == res.residual_inf
        f_peak = float(np.max(grid.nodes ** -2.0912546988088936))
        assert r <= CFG.newton_tol * (1 + min(f_peak, res.n_final))

    @pytest.mark.parametrize("delta", [2.2695845868115727, 2.3621931384412047])
    def test_frozen_direction_carries_exact_jacobian_stalls(self, delta):
        # without a fallback, full-length exact-Jacobian steps stall at
        # level 2^27 of the first case with the iterate swung to -1.7e7.
        # Halving along the exact direction gets through the first case
        # but stalls at levels 2^29 and 2^30 of the second, with the
        # iterate swung to -2.4e8; the frozen-coefficient direction
        # carries both
        grid, spec = matrix_radial_case(delta)
        lines = []
        res = truncation_continuation(grid, spec, CFG, trace=lines.append)
        assert res.flags.converged and not res.flags.hit_iteration_cap
        f_peak = float(np.max(grid.nodes ** -delta))
        assert res.residual_inf <= CFG.newton_tol * (1 + min(f_peak, res.n_final))
        assert any(", frozen, " in line for line in lines)


class TestResidualAndManufactured:
    def test_converged_run_meets_contract(self):
        grid = build_radial_grid(3, 1.0, 64)
        spec = power_spec(1.0, 2.0, 1.0)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged
        r = residual_norm(grid, spec, res.u, res.n_final)
        assert r <= CFG.newton_tol * (1 + 1.0)

    def test_zero_field_residual_is_datum(self):
        grid = build_radial_grid(3, 1.0, 32)
        spec = poisson_spec()
        r = residual_norm(grid, spec, grid_function(grid, 0.0), n=1)
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
