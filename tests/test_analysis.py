import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import CFG, grid_and_weights, power_spec, singular_spec
from reference import dirichlet_energy, lebesgue_norm, marcinkiewicz_constant, truncate

import degelab.analysis as analysis
from degelab.analysis import (
    _line_fit,
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
from degelab.experiments import tails
from degelab.grid import (
    GridFunction,
    face_gradient,
    face_upwind_values,
    grid_function,
)
from degelab.problem import ConstantDatum, coefficient_eval, lower_order_eval
from degelab.solver import DiscreteProblem, truncation_continuation


class TestLebesgueNorm:
    def test_constant(self):
        grid, _ = grid_and_weights(256)
        val = lebesgue_norm(grid_function(grid, 1.0), 1.0)
        assert val == pytest.approx(4 * math.pi / 3, rel=5e-3)

    def test_zero(self):
        grid, _ = grid_and_weights(16)
        assert lebesgue_norm(grid_function(grid, 0.0), 2.5) == 0.0

    def test_inverse_radius_in_l2(self):
        grid, _ = grid_and_weights(256)
        val = lebesgue_norm(grid_function(grid, lambda r: 1.0 / r), 2.0)
        assert val == pytest.approx(math.sqrt(4 * math.pi), rel=1e-2)

    def test_rejects_nonpositive_exponent(self):
        grid, _ = grid_and_weights(16)
        with pytest.raises(ValueError):
            lebesgue_norm(grid_function(grid, 1.0), 0.0)


class TestDistributionFunction:
    def test_constant_below_level(self):
        grid, w = grid_and_weights(64)
        df = distribution_function(grid_function(grid, 2.0).values, w,
                                   k_levels=np.array([1.0]))
        assert df.measures[0] == pytest.approx(w.sum())

    def test_constant_above_level(self):
        grid, w = grid_and_weights(64)
        df = distribution_function(grid_function(grid, 2.0).values, w,
                                   k_levels=np.array([3.0]))
        assert df.measures[0] == 0.0

    def test_radial_power_analytic(self):
        # |{r^-a >= k}| = (omega_N/N) k^(-N/a) once the superlevel ball is
        # mesh-resolved
        a = 2.0
        grid, w = grid_and_weights(2048)
        u = grid_function(grid, lambda r: r**-a)
        ks = np.array([1.0, 2.0, 5.0, 10.0])
        df = distribution_function(u.values, w, ks)
        expect = (4 * math.pi / 3) * ks ** (-3.0 / a)
        assert np.allclose(df.measures, expect, rtol=2e-2)

    def test_nonincreasing_and_exact_at_ties(self):
        grid, w = grid_and_weights(32)
        rng = np.random.default_rng(5)
        u = grid_function(grid, rng.normal(0, 2, grid.M))
        df = distribution_function(u.values, w)
        assert np.all(np.diff(df.measures) <= 0)
        # >= semantics: a level equal to a nodal value includes that node
        v = np.abs(u.values)
        k = float(np.sort(v)[grid.M // 2])
        df2 = distribution_function(u.values, w, np.array([k]))
        mask = v >= k
        assert df2.measures[0] == pytest.approx(float(w[mask].sum()), rel=1e-14)

    def test_rejects_bad_levels(self):
        grid, w = grid_and_weights(16)
        u = grid_function(grid, 1.0)
        with pytest.raises(ValueError):
            distribution_function(u.values, w, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            distribution_function(u.values, w, np.array([-1.0, 1.0]))


class TestMarcinkiewiczConstant:
    def test_radial_power_constant(self):
        a = 2.0
        grid, w = grid_and_weights(4096)
        u = grid_function(grid, lambda r: r**-a)
        ks = np.geomspace(1.0, 100.0, 40)
        df = distribution_function(u.values, w, ks)
        got = marcinkiewicz_constant(df, 3.0 / a)
        assert got == pytest.approx(4 * math.pi / 3, rel=3e-2)

    def test_bounded_function_finite(self):
        grid, w = grid_and_weights(64)
        u = grid_function(grid, lambda r: 1 - r)
        df = distribution_function(u.values, w)
        val = marcinkiewicz_constant(df, 2.0)
        assert 0 < val < math.inf

    def test_zero_function(self):
        grid, w = grid_and_weights(64)
        df = distribution_function(grid_function(grid, 0.0).values, w)
        assert marcinkiewicz_constant(df, 1.5) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.3, 4.0),
           scale=st.floats(0.01, 100.0))
    def test_chebyshev_embedding(self, seed, s, scale):
        # weak constant never exceeds the strong norm: k^s mu(k) <= sum w|u|^s
        rng = np.random.default_rng(seed)
        grid, w = grid_and_weights(32)
        u = grid_function(grid, rng.normal(0, scale, grid.M))
        df = distribution_function(u.values, w)
        assert marcinkiewicz_constant(df, s) <= lebesgue_norm(u, s) ** s * (1 + 1e-12)


class TestTailFit:
    def test_inverse_square_in_three_dimensions(self):
        grid, w = grid_and_weights(512)
        u = grid_function(grid, lambda r: r**-2.0)
        fit = tail_exponent_fit(distribution_function(u.values, w))
        assert fit.sufficient
        assert fit.exponent == pytest.approx(1.5, rel=0.10)
        assert fit.fit_quality > 0.98

    def test_inverse_radius_in_four_dimensions(self):
        grid, w = grid_and_weights(512, N=4)
        u = grid_function(grid, lambda r: r**-1.0)
        fit = tail_exponent_fit(distribution_function(u.values, w))
        assert fit.sufficient
        assert fit.exponent == pytest.approx(4.0, rel=0.10)

    def test_constant_has_no_tail(self):
        grid, w = grid_and_weights(128)
        fit = tail_exponent_fit(distribution_function(grid_function(grid, 1.0).values, w))
        assert not fit.sufficient
        assert "no decay" in fit.reason or "decade" in fit.reason

    def test_bounded_smooth_solution_reported_insufficient(self):
        grid, w = grid_and_weights(128)
        u = grid_function(grid, lambda r: (1 - r**2) / 6)
        fit = tail_exponent_fit(distribution_function(u.values, w))
        assert not fit.sufficient


@pytest.fixture(scope="module")
def converged_run():
    grid, _ = grid_and_weights(128)
    spec = power_spec(1.0, 2.0, 1.0, ConstantDatum(1.0))
    res = truncation_continuation(grid, spec, CFG)
    assert res.flags.converged
    f = grid_function(grid, 1.0)
    return grid, res.problem, res.u, f


class TestCheckers:
    def test_lemma_zero_case(self):
        grid, _ = grid_and_weights(32)
        zero = grid_function(grid, 0.0)
        rep = check_lemma_estimate(zero, zero, 2.0, 1.0)
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_lemma_on_converged_run(self, converged_run):
        grid, problem, u, f = converged_run
        rep = check_lemma_estimate(u, f, 2.0, 1.0)
        assert rep.passed
        assert rep.relative_slack > 0

    def test_bg_matches_lemma_at_zero_threshold(self, converged_run):
        grid, problem, u, f = converged_run
        # m = 1 and t = 0 reduce to the lemma inequality (positive solution)
        assert np.all(u.values > 0)
        lem = check_lemma_estimate(u, f, 2.0, 1.0)
        bg = check_bg_estimate(u, f, 2.0, [0.0])[0]
        assert bg.lhs == pytest.approx(lem.lhs, rel=1e-12)
        assert bg.rhs == pytest.approx(lem.rhs, rel=1e-12)

    def test_bg_empty_superlevel_set(self, converged_run):
        grid, problem, u, f = converged_run
        rep = check_bg_estimate(u, f, 2.0, [2 * u.max_abs()])[0]
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_weighted_energy_zero_field(self):
        grid, _ = grid_and_weights(32)
        zero = grid_function(grid, 0.0)
        f = grid_function(grid, 1.0)
        [rep] = check_weighted_energy(zero, f, 0.5, [2.0], 1.0)
        assert rep.passed and rep.lhs == 0.0

    def test_weighted_energy_scales_with_lambda(self, converged_run):
        grid, problem, u, f = converged_run
        reps = {lam: check_weighted_energy(u, f, 1.0, [lam], 1.0)[0]
                for lam in (1.25, 2.0, 4.0)}
        assert all(rep.passed for rep in reps.values())
        # the constant (lam-1) shrinks the left side faster than the weight
        # grows when lam decreases toward 1
        assert reps[1.25].lhs < reps[2.0].lhs

    def test_weighted_energy_rejects_lambda_at_most_one(self, converged_run):
        grid, problem, u, f = converged_run
        with pytest.raises(ValueError):
            check_weighted_energy(u, f, 1.0, [1.0], 1.0)

    def test_truncation_energy_all_levels(self, converged_run):
        grid, problem, u, f = converged_run
        ks = np.geomspace(0.1, 10.0, 8)
        reps = check_truncation_energy(u, f, 1.0, 1.0, ks)
        assert all(rep.passed for rep in reps)

    def test_truncation_energy_saturated_level(self, converged_run):
        # k above max|u|: reduces to the plain energy inequality
        grid, problem, u, f = converged_run
        k = 2.0 * u.max_abs()
        rep = check_truncation_energy(u, f, 1.0, 1.0, [k])[0]
        assert rep.passed
        assert rep.lhs == pytest.approx(dirichlet_energy(u), rel=1e-14)

    def test_linfty_bound(self):
        grid, _ = grid_and_weights(64)
        spec = singular_spec(0.5, 1.0, 3.0)
        res = truncation_continuation(grid, spec, CFG)
        f = grid_function(grid, 3.0)
        rep = check_linfty_bound(res.u, spec.lower, f)
        assert rep.passed
        assert rep.rhs == pytest.approx(0.75)

    def test_linfty_zero_datum(self):
        grid, _ = grid_and_weights(64)
        spec = singular_spec(0.5, 1.0, 0.0)
        res = truncation_continuation(grid, spec, CFG)
        assert np.all(res.u.values == 0.0)
        rep = check_linfty_bound(res.u, spec.lower, grid_function(grid, 0.0))
        assert rep.passed and rep.rhs == 0.0

    def test_linfty_tolerance_is_absolute(self):
        # bound h^{-1}(3) = 0.75 at sigma = 1: the peak may exceed it by
        # LINFTY_TOLERANCE = 1e-8, not by 1e-8 times the bound
        grid, _ = grid_and_weights(16)
        spec = singular_spec(0.5, 1.0, 3.0)
        f = grid_function(grid, 3.0)
        for excess, passed in ((1e-8, True), (2e-8, False)):
            u = grid_function(grid, 0.5)
            u.values[3] = 0.75 + excess
            rep = check_linfty_bound(u, spec.lower, f)
            assert (rep.rhs, rep.lhs, rep.passed) == (0.75, 0.75 + excess, passed)
        assert rep.tolerance == analysis.LINFTY_TOLERANCE == 1e-8

    def test_entropy_inequality_on_run(self, converged_run):
        grid, problem, u, f = converged_run
        ks = np.geomspace(0.01 * u.max_abs(), 2 * u.max_abs(), 4)
        reps = check_entropy_inequality(u, problem, ks)
        assert len(reps) == 12  # 3 test functions x 4 levels
        assert all(rep.passed for rep in reps)

    def test_entropy_with_solution_as_test_function(self, converged_run):
        grid, problem, u, f = converged_run
        reps = check_entropy_inequality(u, problem, [1.0], phi_samples=[("self", u)])
        assert reps[0].lhs == 0.0 and reps[0].rhs == 0.0 and reps[0].passed

    def test_checkers_are_pure(self, converged_run):
        grid, problem, u, f = converged_run
        assert check_lemma_estimate(u, f, 2.0, 1.0) == \
            check_lemma_estimate(u, f, 2.0, 1.0)
        assert check_weighted_energy(u, f, 1.0, [2.0], 1.0) == \
            check_weighted_energy(u, f, 1.0, [2.0], 1.0)
        assert check_truncation_energy(u, f, 1.0, 1.0, [1.0]) == \
            check_truncation_energy(u, f, 1.0, 1.0, [1.0])


class TestMarcinkiewiczLemma:
    def test_synthetic_inverse_square(self):
        grid, _ = grid_and_weights(512)
        u = grid_function(grid, lambda r: r**-2.0)
        rep = verify_marcinkiewicz_lemma(u, tails=tails(u))
        assert rep.applicable
        # closed forms: s = N/a = 1.5, cutoff energy ~ k^1.5, so the
        # prediction 2s/(rho+s) = 1 matches the gradient tail N/(a+1) = 1
        assert rep.s_exponent == pytest.approx(1.5, rel=0.1)
        assert rep.predicted == pytest.approx(1.0, rel=0.1)
        assert rep.measured == pytest.approx(1.0, rel=0.1)
        assert rep.passed

    def test_bounded_field_not_applicable(self):
        grid, _ = grid_and_weights(128)
        u = grid_function(grid, lambda r: 1 - r)
        rep = verify_marcinkiewicz_lemma(u, tails=tails(u))
        assert not rep.applicable
        assert "insufficient tail" in rep.reason

    def test_gate_at_its_tolerance_edge(self):
        # a bounded solution whose fitted window sees the bulk of u: the
        # gradient tail falls short of the prediction by 75.4%, so the gate
        # fails at a tolerance of 0.5 and passes at 0.9
        grid, _ = grid_and_weights(256)
        res = truncation_continuation(grid, power_spec(0.0, 0.5, 1.0, ConstantDatum(2.64)),
                                      CFG)
        assert res.flags.converged and not res.flags.truncation_active
        short = verify_marcinkiewicz_lemma(res.u, 0.5, tails=tails(res.u))
        assert short.applicable and not short.passed
        gate = short.verdict
        assert gate.name == gate.label == "marcinkiewicz_lemma"
        assert (gate.lhs, gate.rhs) == (short.predicted, short.measured)
        assert gate.scale == abs(short.predicted) and gate.tolerance == 0.5
        assert gate.relative_slack == pytest.approx(-0.754, abs=1e-3)
        assert verify_marcinkiewicz_lemma(res.u, 0.9, tails=tails(res.u)).passed


@st.composite
def cutoff_cases(draw, max_cells=300, max_levels=12):
    """A grid, a signed field and increasing positive levels, with some
    nodal values exactly at +-k so the clip's boundary case is exercised."""
    M = draw(st.integers(8, max_cells))
    grading = draw(st.sampled_from([None, 1.5, 4.0]))
    grid, w = grid_and_weights(M, grading=grading)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, draw(st.floats(0.01, 100.0)), M)
    ks = np.unique(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=max_levels)))
    for k in ks:
        values[rng.integers(M)] = k * rng.choice([-1.0, 1.0])
    return grid, w, GridFunction(grid, values), ks


def assert_energies_per_level(u, ks):
    reps = check_truncation_energy(u, grid_function(u.grid, 1.0), 0.0, 1.0, ks)
    assert [rep.lhs for rep in reps] == [dirichlet_energy(u, k) for k in ks]


def assert_entropy_per_pair(u, ks, gamma, p, phis):
    grid, w = u.grid, u.grid.weights
    spec = power_spec(gamma, p, 1.0)
    f = grid_function(grid, lambda r: 1.0 + r)
    # n = 2^30 clips neither the field nor the datum
    problem = DiscreteProblem(grid, spec, f.values, 2**30, "upwind")
    a_face = coefficient_eval(spec.coefficient, face_upwind_values(grid, u.values))
    wf = grid.face_weights
    grad_u = face_gradient(u)
    g_u = lower_order_eval(spec.lower, u.values)
    expect = []
    for _, phi in phis:
        for k in ks:
            test = truncate(GridFunction(grid, u.values - phi.values), k)
            lhs = float(np.dot(wf, a_face * grad_u * face_gradient(test)))
            lhs += float(np.dot(w, g_u * test.values))
            expect.append((lhs, float(np.dot(w, f.values * test.values))))
    reps = check_entropy_inequality(u, problem, ks, phi_samples=phis)
    assert [(rep.lhs, rep.rhs) for rep in reps] == expect
    assert [rep.name for rep in reps] == [f"entropy[{label}]" for label, _ in phis for _ in ks]


def three_phis(grid):
    return [("zero", grid_function(grid, 0.0)),
            ("ramp", grid_function(grid, lambda r: 0.3 * (1.0 - r))),
            ("-bump", grid_function(grid, lambda r: -2.0 * (1.0 - r**2)))]


class TestBatchedCutoffs:
    """The checkers evaluate their cutoff levels in blocks of array passes;
    every value must equal the per-level formula exactly."""

    @settings(max_examples=60, deadline=None)
    @given(case=cutoff_cases())
    def test_cutoff_energies_equal_per_level_formula(self, case):
        _, _, u, ks = case
        assert_energies_per_level(u, ks)

    @settings(max_examples=40, deadline=None)
    @given(case=cutoff_cases(), gamma=st.sampled_from([0.0, 0.5, 1.0]),
           p=st.sampled_from([0.5, 2.0]))
    def test_entropy_sums_equal_per_pair_loop(self, case, gamma, p):
        grid, _, u, ks = case
        assert_entropy_per_pair(u, ks, gamma, p, three_phis(grid)[:2])

    # up to 4096 cells and 40 levels: several blocks, often a partial last one
    @settings(max_examples=25, deadline=None)
    @given(case=cutoff_cases(max_cells=4096, max_levels=40))
    def test_cutoff_energies_across_blocks(self, case):
        _, _, u, ks = case
        assert_energies_per_level(u, ks)

    @settings(max_examples=15, deadline=None)
    @given(case=cutoff_cases(max_cells=4096, max_levels=40),
           gamma=st.sampled_from([0.0, 0.5, 1.0]), p=st.sampled_from([0.5, 2.0]))
    def test_entropy_across_blocks(self, case, gamma, p):
        grid, _, u, ks = case
        assert_entropy_per_pair(u, ks, gamma, p, three_phis(grid))

    def test_probe_size_spans_blocks(self):
        # the probe's finest mesh: 20 levels are 7 blocks of cutoff energies
        # (the last one partial), and each entropy block holds one level
        grid, _ = grid_and_weights(2048)
        rng = np.random.default_rng(7)
        u = grid_function(grid, grid.nodes ** -1.5 * (1.0 + 0.1 * rng.normal(size=grid.M)))
        ks = geomspace(0.01 * u.max_abs(), 2.0 * u.max_abs(), 20)
        per_block = analysis.CUTOFF_BLOCK_BYTES // (8 * (grid.M + 1))
        assert 1 <= per_block < ks.size and ks.size % per_block
        assert_energies_per_level(u, ks)
        assert_entropy_per_pair(u, ks, 1.0, 1.0, three_phis(grid))
        # the Marcinkiewicz rho: the slope of the window's energies
        rep = verify_marcinkiewicz_lemma(u, tails=tails(u))
        assert rep.applicable
        df_u = distribution_function(u.values, grid.weights)
        window = df_u.k_levels[(df_u.k_levels >= rep.u_fit.window[0])
                               & (df_u.k_levels <= rep.u_fit.window[1])]
        assert window.size > per_block
        energies = np.array([dirichlet_energy(u, k) for k in window])
        assert np.all(energies > 0)
        assert rep.rho_exponent == float(_line_fit(np.log(window), np.log(energies))[0])

    @pytest.mark.parametrize("M", [9, 64, 255, 1024, 2048, 8193])
    def test_vecdot_equals_dot_row_by_row(self, M):
        # the checkers take each block's per-level sums with one np.vecdot
        # call; it must equal np.dot of every row bit for bit on the audit's
        # shapes: contiguous nodal rows (length M) and face rows (M + 1)
        rng = np.random.default_rng(M)
        for length in (M, M + 1):
            weights = rng.random(length)
            rows = rng.normal(size=(3, 5, length)) * np.logspace(-8, 8, length)
            assert rows.flags.c_contiguous
            assert np.vecdot(rows, weights).tolist() == [
                [float(np.dot(weights, row)) for row in block] for block in rows]

    def test_nonpositive_level_rejected(self):
        grid, _ = grid_and_weights(16)
        u = grid_function(grid, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            check_truncation_energy(u, u, 0.0, 1.0, [0.0])
        with pytest.raises(ValueError, match="must be positive"):
            check_truncation_energy(u, u, 0.0, 1.0, [1.0, -1.0])


class TestExactReplicas:
    """The audit's level grids, line fits and weighted-energy pass replace
    numpy calls and per-lambda calls; each result must be equal exactly."""

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(1e-12, 1e12), ratio=st.floats(1.01, 1e5),
           num=st.integers(2, 64))
    def test_geomspace_equals_numpy(self, start, ratio, num):
        stop = start * ratio
        assert geomspace(start, stop, num).tobytes() == \
            np.geomspace(start, stop, num).tobytes()

    def test_geomspace_rejects_nonpositive_ends(self):
        with pytest.raises(ValueError, match="positive ends"):
            geomspace(0.0, 1.0, 4)

    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=48, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_line_fit_equals_polyfit(self, ks, seed):
        x = np.log(np.sort(np.array(ks)))
        y = np.random.default_rng(seed).normal(-1.5 * x, 0.1)
        if np.unique(x).size < 2:
            return
        assert _line_fit(x, y).tobytes() == np.polyfit(x, y, 1).tobytes()

    def test_line_fit_warns_like_polyfit_on_rank_deficiency(self):
        x, y = np.full(5, 2.0), np.arange(5.0)  # the columns [x, 1] are parallel
        with pytest.warns(np.exceptions.RankWarning):
            got = _line_fit(x, y)
        with pytest.warns(np.exceptions.RankWarning):
            expect = np.polyfit(x, y, 1)
        assert got.tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=cutoff_cases(), gamma=st.sampled_from([0.0, 0.5, 1.0]),
           lams=st.lists(st.floats(1.01, 8.0), min_size=1, max_size=4),
           alpha=st.sampled_from([0.5, 1.0]))
    def test_weighted_energy_pass_equals_per_lambda_formula(self, case, gamma, lams,
                                                            alpha):
        grid, _, u, _ = case
        f = grid_function(grid, lambda r: 1.0 + r)
        grad = face_gradient(u)
        upwind = face_upwind_values(grid, u.values)
        expect = [alpha * (lam - 1.0) * float(np.dot(
            grid.face_weights, grad**2 * (1.0 + np.abs(upwind)) ** (-(gamma + lam))))
            for lam in lams]
        reps = check_weighted_energy(u, f, gamma, lams, alpha)
        assert [rep.lhs for rep in reps] == expect
        assert reps == [check_weighted_energy(u, f, gamma, [lam], alpha)[0] for lam in lams]
