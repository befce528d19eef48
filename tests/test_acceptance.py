"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from reference import dirichlet_energy, lebesgue_norm, marcinkiewicz_constant

from degelab.analysis import (
    check_bg_estimate,
    check_entropy_inequality,
    check_lemma_estimate,
    check_linfty_bound,
    check_truncation_energy,
    check_weighted_energy,
    distribution_function,
    tail_exponent_fit,
    verify_marcinkiewicz_lemma,
)
from degelab.experiments import MeshSpec, SweepSpec, emit_outputs, run_sweep, tails
from degelab.grid import (
    build_radial_grid,
    face_gradient,
    grid_function,
)
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
)
from degelab.solver import SolverConfig, truncation_continuation

CFG = SolverConfig()
CHECK_TOL = 1e-4


def verdict(num: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _power_problem(gamma, p, m, family, alpha=1.0, N=3):
    return ProblemSpec(N, 1.0, CoefficientSpec(alpha, alpha, gamma),
                       PowerAbsorption(p), DatumSpec(family, m))


# twelve problems spanning gamma in {0, 0.5, 1}, p in {0.5, 1, 2, 4},
# m in {1, 1.5, 2}, constant and radial-power data (delta * m < 3 throughout)
MATRIX = [
    _power_problem(0.0, 0.5, 1.0, ConstantDatum(1.0)),
    _power_problem(0.0, 2.0, 1.5, RadialPowerDatum(1.0, 1.0)),
    _power_problem(0.5, 1.0, 1.0, ConstantDatum(5.0)),
    _power_problem(0.5, 4.0, 2.0, RadialPowerDatum(1.0, 1.2)),
    _power_problem(1.0, 2.0, 1.0, RadialPowerDatum(1.0, 2.0)),
    _power_problem(1.0, 0.5, 2.0, ConstantDatum(2.0)),
    _power_problem(0.0, 4.0, 2.0, ConstantDatum(1.0)),
    _power_problem(0.5, 2.0, 1.5, ConstantDatum(3.0)),
    _power_problem(1.0, 4.0, 1.5, RadialPowerDatum(1.0, 1.5)),
    _power_problem(1.0, 1.0, 1.0, ConstantDatum(1.0)),
    _power_problem(0.5, 0.5, 1.5, RadialPowerDatum(1.0, 0.8)),
    _power_problem(0.0, 1.0, 2.0, RadialPowerDatum(1.0, 1.0)),
]


@pytest.fixture(scope="module")
def matrix_runs():
    runs = []
    t0 = time.perf_counter()
    for spec in MATRIX:
        grid = build_radial_grid(3, 1.0, 256)
        result = truncation_continuation(grid, spec, CFG)
        assert result.flags.converged, f"matrix solve failed for {spec}"
        assert not result.flags.truncation_active
        f = grid_function(grid, lambda r: datum_eval(spec.datum, r))
        runs.append((spec, grid, result.u, f))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def probe_run():
    spec = _power_problem(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.8))
    grid = build_radial_grid(3, 1.0, 512)
    t0 = time.perf_counter()
    result = truncation_continuation(grid, spec, CFG)
    elapsed = time.perf_counter() - t0
    assert result.flags.converged and not result.flags.truncation_active
    f = grid_function(grid, lambda r: datum_eval(spec.datum, r))
    return result.problem, grid, result.u, f, elapsed


def test_criterion_01_analytic_baseline():
    spec = ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, 0.0), NoAbsorption(),
                       DatumSpec(ConstantDatum(1.0), 1.0))
    t0 = time.perf_counter()
    errors = {}
    for M in (64, 128, 256):
        grid = build_radial_grid(3, 1.0, M)
        result = truncation_continuation(grid, spec, CFG)
        assert result.flags.converged
        exact = (1.0 - grid.nodes**2) / 6.0
        errors[M] = float(np.max(np.abs(result.u.values - exact)))
    elapsed = time.perf_counter() - t0
    orders = [math.log2(errors[64] / errors[128]), math.log2(errors[128] / errors[256])]
    ok = errors[256] <= 5e-4 and all(o >= 1.9 for o in orders) and elapsed < 1.0
    verdict(1, ok, f"max error {errors[256]:.2e} at M=256 (<= 5e-4), "
                   f"orders {orders[0]:.2f}/{orders[1]:.2f} (>= 1.9), "
                   f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_absorption_summability(matrix_runs):
    runs, elapsed = matrix_runs
    worst = math.inf
    for spec, grid, u, f in runs:
        rep = check_lemma_estimate(u, f, spec.lower.p, spec.datum.m, CHECK_TOL)
        worst = min(worst, rep.relative_slack)
        assert rep.passed
    ok = worst >= -1e-4 and elapsed < 30.0
    verdict(2, ok, f"sum w|u|^(pm) <= sum w|f|^m on 12 runs, "
                   f"min slack {worst:.2e} (>= -1e-4), matrix runtime "
                   f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_superlevel_tail_bound(matrix_runs):
    runs, _ = matrix_runs
    worst = math.inf
    count = 0
    for spec, grid, u, f in runs:
        ts = np.array([0.0, 0.25, 0.5, 0.75]) * u.max_abs()
        for rep in check_bg_estimate(u, f, spec.lower.p, np.unique(ts), CHECK_TOL):
            worst = min(worst, rep.relative_slack)
            count += 1
            assert rep.passed
    verdict(3, worst >= -1e-4,
            f"superlevel bound at 4 thresholds x 12 runs ({count} checks), "
            f"min slack {worst:.2e} (>= -1e-4)")


def test_criterion_04_truncation_energy(matrix_runs):
    runs, _ = matrix_runs
    worst = math.inf
    for spec, grid, u, f in runs:
        peak = u.max_abs()
        ks = np.geomspace(0.01 * peak, 2.0 * peak, 8)
        for rep in check_truncation_energy(u, f, spec.coefficient.gamma,
                                           spec.coefficient.alpha, ks, CHECK_TOL):
            worst = min(worst, rep.relative_slack)
            assert rep.passed
    verdict(4, worst >= -1e-4,
            f"alpha|grad T_k u|^2 <= k(1+k)^gamma |f|_1 at 8 levels x 12 runs, "
            f"min slack {worst:.2e}")


def test_criterion_05_weighted_energy(matrix_runs):
    runs, _ = matrix_runs
    worst = math.inf
    count = 0
    for spec, grid, u, f in runs:
        if spec.datum.m != 1.0:
            continue
        for rep in check_weighted_energy(u, f, spec.coefficient.gamma, [1.25, 2.0, 4.0],
                                         spec.coefficient.alpha, CHECK_TOL):
            worst = min(worst, rep.relative_slack)
            count += 1
            assert rep.passed
    verdict(5, count >= 12 and worst >= -1e-4,
            f"weighted energy with C=alpha(lambda-1) at lambda in "
            f"{{1.25,2,4}} on every m=1 run ({count} checks), min slack {worst:.2e}")


def test_criterion_06_singular_absorption_bounds():
    details = []
    ok = True
    for gamma in (0.5, 1.0):
        spec = ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma),
                           SingularAbsorption(1.0), DatumSpec(ConstantDatum(3.0), 1.0))
        grid = build_radial_grid(3, 1.0, 256)
        result = truncation_continuation(grid, spec, CFG)
        assert result.flags.converged
        u = result.u
        f = grid_function(grid, 3.0)
        rep = check_linfty_bound(u, spec.lower, f)
        sup_ok = rep.passed and float(np.max(u.values)) <= 0.75 + 1e-8 \
            and float(np.min(u.values)) >= -1e-12
        energy_lhs = spec.coefficient.alpha * dirichlet_energy(u) / (1.0 + 1.0) ** gamma
        energy_rhs = 1.0 * float(np.dot(grid.weights, np.abs(f.values)))
        energy_ok = energy_lhs <= energy_rhs * (1 + 1e-4)
        ok = ok and sup_ok and energy_ok
        details.append(f"gamma={gamma}: max u={float(np.max(u.values)):.6f} "
                       f"(<= 0.75), energy {energy_lhs:.3f} <= {energy_rhs:.3f}")
    verdict(6, ok, "; ".join(details))


def test_criterion_07_gradient_tail_prediction_synthetic():
    grid = build_radial_grid(3, 1.0, 512)
    u = grid_function(grid, lambda r: r**-2.0)
    rep = verify_marcinkiewicz_lemma(u, tails=tails(u))
    assert rep.applicable
    spread = abs(rep.predicted - rep.measured) / rep.predicted
    verdict(7, spread <= 0.15,
            f"synthetic r^-2: predicted {rep.predicted:.3f} vs measured "
            f"{rep.measured:.3f} gradient tail, spread {spread:.1%} (<= 15%)")


def test_criterion_08_entropy_regime_probe(probe_run):
    _, grid, u, f, elapsed = probe_run
    grad = np.abs(face_gradient(u))
    fit = tail_exponent_fit(distribution_function(grad, grid.face_weights))
    assert fit.sufficient
    target = 0.85 * (2.0 / 3.0)
    ok = fit.exponent >= target and elapsed < 10.0
    verdict(8, ok, f"measured gradient tail {fit.exponent:.3f} >= "
                   f"0.85*(2/3) = {target:.3f}, runtime {elapsed:.1f}s (< 10s)")


def test_criterion_09_entropy_inequality(probe_run):
    problem, grid, u, f, _ = probe_run
    peak = u.max_abs()
    ks = np.geomspace(0.01 * peak, 2.0 * peak, 4)
    reps = check_entropy_inequality(u, problem, ks, CHECK_TOL)
    worst = min(rep.relative_slack for rep in reps)
    ok = all(rep.passed for rep in reps)
    verdict(9, ok, f"entropy inequality over {len(reps)} (phi, k) samples, "
                   f"min slack {worst:.2e} (tolerance 1e-4)")


def test_criterion_10_weak_strong_embedding():
    rng = np.random.default_rng(20240817)
    grid = build_radial_grid(3, 1.0, 64)
    failures = 0
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-2, 3)
        u = grid_function(grid, rng.normal(0.0, scale, grid.M))
        s = rng.uniform(0.3, 4.0)
        weak = marcinkiewicz_constant(distribution_function(u.values, grid.weights), s)
        strong = lebesgue_norm(u, s) ** s
        if weak > strong:
            failures += 1
    verdict(10, failures == 0,
            f"weak constant <= strong norm^s on 100 random fields "
            f"({failures} violations)")


def test_criterion_11_deterministic_sweep(tmp_path):
    sweep = SweepSpec(
        base=_power_problem(1.0, 2.0, 1.0, ConstantDatum(1.0)),
        mesh=MeshSpec(64),
        axes={"p": (0.5, 3.0, 4.0), "m": (1.0, 1.5)},
    )
    bodies = []
    for tag in ("a", "b"):
        records = run_sweep(sweep)
        paths = emit_outputs(records, tmp_path / tag)
        body = [line for line in paths["csv"].read_text().splitlines()
                if not line.startswith("#")]
        bodies.append(body)
    ok = bodies[0] == bodies[1] and len(bodies[0]) > 1
    verdict(11, ok, f"two sweep executions, {len(bodies[0]) - 1} data rows each, "
                    f"byte-identical bodies: {bodies[0] == bodies[1]}")
