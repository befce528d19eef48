import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from common import CFG, power_spec, singular_spec

from degelab.analysis import (
    _report,
    check_bg_estimate,
    check_entropy_inequality,
    check_lemma_estimate,
    check_truncation_energy,
    check_weighted_energy,
    dirichlet_energy,
    distribution_function,
    tail_exponent_fit,
    verify_marcinkiewicz_lemma,
)
from degelab.experiments import (
    ALL_CHECKS,
    CSV_COLUMNS,
    ROW_COLUMNS,
    CheckResults,
    CheckSettings,
    MeshSpec,
    SweepSpec,
    emit_from_saved,
    emit_outputs,
    exponent_probe,
    load_records,
    mesh_refinement_study,
    regime_label,
    run_checks,
    run_single,
    run_sweep,
    save_records,
    _fmt,
)
from degelab.grid import build_radial_grid, face_gradient, grid_function, quadrature_weights
from degelab.problem import ConstantDatum, RadialPowerDatum, datum_eval
from degelab.solver import SolverConfig, truncation_continuation


def canonical_sweep(parallelism=1, M=64):
    # covers both m=1 cases and all three m>1 cases
    return SweepSpec(
        base=power_spec(1.0, 2.0, 1.0, ConstantDatum(1.0)),
        mesh=MeshSpec(M),
        axes={"p": (0.5, 3.0, 4.0), "m": (1.0, 1.5)},
        parallelism=parallelism,
    )


def csv_body(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def plain_csv_body(saved: list[dict]) -> list[str]:
    """records.csv body by the plain rule: csv.writer over _fmt of every cell."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in saved:
        for row in rec["rows"]:
            cells = {**rec["cells"], **row}
            writer.writerow([_fmt(cells[col]) for col in CSV_COLUMNS])
    return text.getvalue().splitlines()


class TestRunSingle:
    def test_zero_datum_trivial(self):
        rec = run_single(power_spec(0.0, 1.0, 1.0, ConstantDatum(0.0)),
                         MeshSpec(32), CFG)
        assert rec.converged
        assert rec.all_passed
        assert np.all(rec.solution.values == 0.0)

    def test_full_checks_on_degenerate_run(self):
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(128), CFG)
        assert rec.converged and rec.all_passed
        for name in ("lemma", "bg", "weighted_energy", "truncation_energy", "entropy"):
            assert name in rec.reports
        assert rec.skipped.keys() == {"linfty", "marcinkiewicz"}

    def test_singular_run_reports_sup_bound(self):
        rec = run_single(singular_spec(0.5, 1.0, 3.0), MeshSpec(96), CFG)
        assert rec.converged
        assert "linfty" in rec.reports
        rep = rec.reports["linfty"][0]
        assert rep.passed and rep.rhs == pytest.approx(0.75)
        assert rec.skipped.keys() >= {"lemma", "bg"}

    def test_every_enabled_checker_contributes_one_entry(self):
        rec = run_single(power_spec(0.5, 1.0, 1.5), MeshSpec(64), CFG)
        assert set(rec.reports) | set(rec.skipped) == set(ALL_CHECKS)
        assert not (set(rec.reports) & set(rec.skipped))

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_single(power_spec(0.5, 1.0, 1.0), MeshSpec(32), CFG,
                       checks=("lemma", "bogus"))

    def test_truncation_active_run_not_all_passed(self):
        # f(r_0) ~ 1.9e9 exceeds n_max = 2^30, so the schedule runs out
        rec = run_single(power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.8)),
                         MeshSpec(1024), CFG)
        assert rec.converged and rec.truncation_active
        assert not rec.all_passed

    def test_failed_marcinkiewicz_gate_is_not_all_passed(self):
        # the gate skipped (bounded solution) leaves the run all-passed; an
        # applied gate counts like any other report
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(64), CFG)
        assert rec.all_passed and rec.reports and "marcinkiewicz" in rec.skipped
        failed = _report("marcinkiewicz_lemma", 1.0, 0.5, 0.15, scale=1.0)
        passed = _report("marcinkiewicz_lemma", 1.0, 0.9, 0.15, scale=1.0)
        for gate, verdict in ((failed, False), (passed, True)):
            reports = {**rec.reports, "marcinkiewicz": (gate,)}
            assert replace(rec, reports=reports).all_passed is verdict
            assert CheckResults(reports=reports).all_passed is verdict

    def test_marcinkiewicz_shares_the_record_tail_fits(self):
        # r^-2 has a fittable tail in u and in grad u, so the check applies
        grid = build_radial_grid(3, 1.0, 512)
        u = grid_function(grid, lambda r: r**-2.0)
        res = run_checks(u, power_spec(1.0, 1.0, 1.0), checks=("marcinkiewicz",))
        mk = res.marcinkiewicz
        assert mk.applicable
        assert mk.u_fit == res.tail_u and mk.grad_fit == res.tail_grad
        assert mk == verify_marcinkiewicz_lemma(u, quadrature_weights(grid))
        assert res.reports == {"marcinkiewicz": (mk.verdict,)}

    @pytest.mark.parametrize("spec", [
        power_spec(0.5, 2.0, 1.0, ConstantDatum(3.0)),
        power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0)),
    ], ids=["constant", "radial"])
    def test_run_checks_equals_checkers_called_one_by_one(self, spec):
        # run_checks shares its passes and level grids across checkers; the
        # standalone checkers, fed numpy's own level grids, must give the
        # same reports, skips and tail data, equal by repr
        grid = build_radial_grid(3, 1.0, 256)
        res = truncation_continuation(grid, spec, CFG)
        assert res.flags.converged
        u, w, settings = res.u, quadrature_weights(grid), CheckSettings()
        f = grid_function(grid, lambda r: datum_eval(spec.datum, r))
        gamma, alpha, p, tol = (spec.coefficient.gamma, spec.coefficient.alpha,
                                spec.lower.p, settings.tolerance)
        peak = u.max_abs()
        df_u = distribution_function(u, w, np.geomspace(1e-3, max(2.0 * peak, 2e-3), 48))
        grad = np.abs(face_gradient(u))
        df_g = distribution_function(grad, grid.face_weights,
                                     np.geomspace(1e-3, max(2.0 * grad.max(), 2e-3), 48))
        mk = verify_marcinkiewicz_lemma(u, w, settings.tail_tolerance)
        assert mk.applicable
        expect = CheckResults(
            reports={
                "lemma": (check_lemma_estimate(u, f, p, spec.datum.m, w, tol),),
                "bg": tuple(check_bg_estimate(u, f, p, np.unique(
                    np.array([0.0, 0.25, 0.5, 0.75]) * peak), w, tol)),
                "weighted_energy": tuple(check_weighted_energy(u, f, gamma, lam, alpha,
                                                               w, tol)
                                         for lam in settings.lambdas),
                "truncation_energy": tuple(check_truncation_energy(
                    u, f, gamma, alpha, np.geomspace(0.01 * peak, 2.0 * peak, 8), w, tol)),
                "entropy": tuple(check_entropy_inequality(
                    u, spec, None, np.geomspace(0.01 * peak, 2.0 * peak, 4), w, tol,
                    f_values=f)),
                "marcinkiewicz": (mk.verdict,),
            },
            skipped={"linfty": "needs a singular absorption term"},
            marcinkiewicz=mk, tail_u=tail_exponent_fit(df_u),
            tail_grad=tail_exponent_fit(df_g),
            dist_u=(tuple(map(float, df_u.k_levels)), tuple(map(float, df_u.measures))),
            dist_grad=(tuple(map(float, df_g.k_levels)), tuple(map(float, df_g.measures))),
        )
        assert repr(run_checks(u, spec)) == repr(expect)

    def test_prediction_attached(self):
        rec = run_single(power_spec(1.0, 4.0, 1.5), MeshSpec(32), CFG)
        assert rec.prediction is not None
        assert rec.prediction.gradient_exponent == 2.0
        assert regime_label(rec.prediction, 1.5) == "m>1:finite_energy"


class TestSweep:
    def test_covers_all_five_cases(self):
        records = run_sweep(canonical_sweep())
        assert len(records) == 6
        labels = {regime_label(r.prediction, r.problem.datum.m) for r in records}
        assert labels == {"m=1:entropy", "m=1:distributional", "m>1:entropy",
                          "m>1:distributional", "m>1:finite_energy"}
        assert all(r.converged for r in records)

    def test_empty_axes_single_record(self):
        sweep = SweepSpec(base=power_spec(0.5, 1.0, 1.0), mesh=MeshSpec(32), axes={})
        records = run_sweep(sweep)
        assert len(records) == 1

    def test_cap_enforced(self):
        sweep = SweepSpec(base=power_spec(0.5, 1.0, 1.0), mesh=MeshSpec(32),
                          axes={"p": tuple(np.linspace(0.5, 4, 70)),
                                "m": tuple(np.linspace(1, 2, 70))})
        with pytest.raises(ValueError, match="cap"):
            run_sweep(sweep)

    def test_invalid_point_isolated_not_dropped(self):
        sweep = SweepSpec(base=power_spec(0.5, 1.0, 1.0, ConstantDatum(1.0)),
                          mesh=MeshSpec(32), axes={"delta": (0.5, 1.0)})
        records = run_sweep(sweep)  # delta axis needs a radial power base
        assert len(records) == 2
        assert all(rec.failure is not None for rec in records)
        assert all(not rec.converged for rec in records)

    def test_parallel_matches_serial(self):
        serial = run_sweep(canonical_sweep(parallelism=1, M=32))
        parallel = run_sweep(canonical_sweep(parallelism=2, M=32))
        assert [r.run_id for r in serial] == [r.run_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.solution.values, b.solution.values)


class TestEmission:
    def test_row_per_check(self, tmp_path):
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(64), CFG,
                         checks=("lemma", "bg"))
        paths = emit_outputs([rec], tmp_path)
        body = csv_body(paths["csv"])
        # header + 1 lemma row + 4 tail rows
        assert body[0].startswith("run_id,gamma,p,m,N,delta,M,n_final,converged,")
        assert len(body) == 1 + 1 + 4

    def test_csv_reader_reads_every_column(self, tmp_path):
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(64), CFG)
        paths = emit_outputs([rec], tmp_path)
        save_records([rec], tmp_path / "records.json")
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert all(len(row) == 19 for row in rows)
        names = [row[rows[0].index("check_name")] for row in rows[1:]]
        assert names == [row["check_name"]
                         for row in load_records(tmp_path / "records.json")[0]["rows"]]
        assert "lemma_estimate(p=2,m=1)" in names

    def test_summary_checks_column_counts_the_marcinkiewicz_row(self, tmp_path):
        # radial delta=2.5 has a gradient tail, so the gate applies and
        # writes one of the run's 29 records.csv rows
        rec = run_single(power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.5)),
                         MeshSpec(512), CFG)
        assert rec.marcinkiewicz.applicable
        paths = emit_outputs([rec], tmp_path)
        names = [row[CSV_COLUMNS.index("check_name")]
                 for row in csv.reader(csv_body(paths["csv"])[1:])]
        assert len(names) == 29 and names.count("marcinkiewicz_lemma") == 1
        run_row = paths["summary"].read_text().splitlines()[-1]
        assert run_row.startswith("| run_0000 |")
        assert run_row.split("|")[-2].strip() == "29"

    def test_empty_records_header_only(self, tmp_path):
        paths = emit_outputs([], tmp_path)
        body = csv_body(paths["csv"])
        assert len(body) == 1

    def test_deterministic_bodies(self, tmp_path):
        records = run_sweep(canonical_sweep(M=32))
        paths1 = emit_outputs(records, tmp_path / "a")
        paths2 = emit_outputs(records, tmp_path / "b")
        assert csv_body(paths1["csv"]) == csv_body(paths2["csv"])

    def test_plotdata_format(self, tmp_path):
        rec = run_single(power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0)),
                         MeshSpec(64), CFG, checks=())
        paths = emit_outputs([rec], tmp_path)
        dat = (paths["plotdata"] / "run_0000_u.dat").read_text().splitlines()
        assert dat[0] == "# k mu(k)"
        ks, mus = np.loadtxt(paths["plotdata"] / "run_0000_u.dat", unpack=True)
        assert np.all(np.diff(ks) > 0)
        assert np.all(np.diff(mus) <= 0)

    def test_save_and_reemit_round_trip(self, tmp_path):
        records = run_sweep(canonical_sweep(M=32))
        first = emit_outputs(records, tmp_path / "a")
        save_records(records, tmp_path / "records.json")
        again = emit_from_saved(load_records(tmp_path / "records.json"), tmp_path / "b")
        assert csv_body(first["csv"]) == csv_body(again["csv"])
        assert first["summary"].read_bytes() == again["summary"].read_bytes()

    def test_fast_emitter_matches_plain_rule(self, tmp_path):
        failing = SweepSpec(base=power_spec(0.5, 1.0, 1.0), mesh=MeshSpec(32),
                            axes={"delta": (0.5,)})
        records = run_sweep(canonical_sweep(M=32)) + run_sweep(failing)
        path = tmp_path / "records.json"
        for recs in (records, []):
            save_records(recs, path)
            saved = load_records(path)
            plain = plain_csv_body(saved)
            assert csv_body(emit_outputs(recs, tmp_path / "fresh")["csv"]) == plain
            assert csv_body(emit_from_saved(saved, tmp_path / "saved")["csv"]) == plain
        body = csv_body(emit_outputs(records, tmp_path / "fresh")["csv"])
        assert any(',"lemma_estimate(p=0.5,m=1)",' in line for line in body)
        assert any(",solve_failed,inf,nan,nan,false,nan,nan,nan" in line for line in body)
        assert body[0] == ",".join(CSV_COLUMNS)

    def test_records_json_layout(self, tmp_path):
        records = run_sweep(canonical_sweep(M=32))
        path = tmp_path / "records.json"
        save_records(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) == len(records) + 2
        for line, rec in zip(lines[1:-1], records):
            payload = json.loads(line.rstrip(","))
            assert payload["cells"]["run_id"] == rec.run_id
            assert all(set(row) == set(ROW_COLUMNS) for row in payload["rows"])
        save_records([], path)
        assert load_records(path) == []

    def test_failed_run_still_emits_row(self, tmp_path):
        sweep = SweepSpec(base=power_spec(0.5, 1.0, 1.0), mesh=MeshSpec(32),
                          axes={"delta": (0.5,)})
        paths = emit_outputs(run_sweep(sweep), tmp_path)
        body = csv_body(paths["csv"])
        assert len(body) == 2
        assert "solve_failed" in body[1]


class TestRefinementStudy:
    def test_smooth_baseline_second_order(self):
        study = mesh_refinement_study(
            power_spec(0.0, 1.0, 1.0), lambda r: (1 - r**2) / 6,
            [64, 128, 256], CFG, rhs=lambda r: np.ones_like(r) + (1 - r**2) / 6)
        assert all(order >= 1.9 for order in study.observed_orders)

    def test_zero_field_zero_error(self):
        study = mesh_refinement_study(power_spec(1.0, 2.0, 1.0),
                                      lambda r: np.zeros_like(r),
                                      [32, 64], CFG, rhs=lambda r: np.zeros_like(r))
        assert all(row.error <= 1e-12 for row in study.rows)

    def test_arithmetic_faces_beat_upwind_order(self):
        spec = power_spec(1.0, 2.0, 1.0)
        star = lambda r: 1 - r**2
        arith = mesh_refinement_study(spec, star, [32, 64, 128],
                                      SolverConfig(face_scheme="arithmetic"))
        upwind = mesh_refinement_study(spec, star, [32, 64, 128],
                                       SolverConfig(face_scheme="upwind"))
        assert all(order >= 1.5 for order in arith.observed_orders)
        # upwinded degeneracy trades accuracy for exact energy inequalities
        assert all(0.7 <= order <= 1.5 for order in upwind.observed_orders)
        assert upwind.rows[-1].error > arith.rows[-1].error


class TestFiniteEnergyStability:
    def test_h1_seminorm_stable_under_refinement(self):
        spec = power_spec(0.5, 2.0, 2.0, ConstantDatum(1.0))
        energies = {}
        for M in (256, 512):
            grid = build_radial_grid(3, 1.0, M)
            res = truncation_continuation(grid, spec, CFG)
            assert res.flags.converged
            energies[M] = math.sqrt(dirichlet_energy(res.u))
        change = abs(energies[512] - energies[256]) / energies[512]
        assert change < 0.10


class TestExponentProbe:
    def test_entropy_regime_tails(self):
        base = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0))
        table = exponent_probe(base, [2.0, 2.5, 2.8], MeshSpec(256), CFG)
        assert table.verdict == "consistent"
        rows = {row.delta: row for row in table.rows}
        assert all(not row.insufficient for row in table.rows)
        assert rows[2.8].tail_grad >= 0.85 * (2.0 / 3.0)
        # tails flatten toward the predicted exponent as the datum worsens
        assert rows[2.8].tail_grad < rows[2.0].tail_grad

    def test_tame_datum_marked_insufficient(self):
        base = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0))
        table = exponent_probe(base, [0.1], MeshSpec(128), CFG)
        assert table.rows[0].insufficient
        assert table.verdict == "insufficient"

    def test_boundary_point_flagged(self):
        base = power_spec(1.0, 2.0, 1.5, RadialPowerDatum(1.0, 1.5))
        table = exponent_probe(base, [1.5], MeshSpec(64), CFG)
        assert table.rows[0].on_boundary  # p = gamma/(m-1) exactly

    def test_requires_radial_power_datum(self):
        with pytest.raises(ValueError, match="radial power"):
            exponent_probe(power_spec(1.0, 1.0, 1.0, ConstantDatum(1.0)),
                           [2.0], MeshSpec(64), CFG)
