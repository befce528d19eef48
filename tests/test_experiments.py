import csv
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from common import CFG, no_absorption_spec, power_spec, singular_spec
from reference import dirichlet_energy

from degelab.analysis import (
    CHECK_TOLERANCE,
    TAIL_TOLERANCE,
    _report,
    check_bg_estimate,
    check_entropy_inequality,
    check_lemma_estimate,
    check_truncation_energy,
    check_weighted_energy,
    distribution_function,
    tail_exponent_fit,
    verify_marcinkiewicz_lemma,
)
import degelab.experiments as experiments
import degelab.solver as solver
from degelab.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main,
                         parse_config)
from degelab.experiments import (
    ALL_CHECKS,
    CSV_COLUMNS,
    ROW_COLUMNS,
    WEIGHTED_ENERGY_LAMBDAS,
    CheckResults,
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
from degelab.grid import build_radial_grid, face_gradient, grid_function
from degelab.problem import ConstantDatum, RadialPowerDatum, datum_eval
from degelab.solver import DiscreteProblem, SolverConfig, Stop, truncation_continuation


def canonical_sweep(M=64):
    # covers both m=1 cases and all three m>1 cases
    return SweepSpec(
        base=power_spec(1.0, 2.0, 1.0, ConstantDatum(1.0)),
        mesh=MeshSpec(M),
        axes={"p": (0.5, 3.0, 4.0), "m": (1.0, 1.5)},
    )


def singular_matrix(*args):
    """A stand-in for solver.tridiag_solve that makes every solve raise."""
    raise np.linalg.LinAlgError("singular matrix")


def csv_body(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def csv_text(path: Path) -> str:
    """records.csv without its timestamp line, newlines and all."""
    return path.read_bytes().decode().split("\n", 1)[1]


def plain_csv_text(saved: list[dict]) -> str:
    """records.csv body by the plain rule: csv.writer over _fmt of every cell."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in saved:
        for row in rec["rows"]:
            cells = {**rec["cells"], **row}
            writer.writerow([_fmt(cells[col]) for col in CSV_COLUMNS])
    return text.getvalue()


def full_payloads(records) -> list[dict]:
    """Each record's payload as if it were its own solve: no references."""
    return [experiments._payload(replace(rec, shares=None)) for rec in records]


def output_files(out: Path) -> dict[str, bytes]:
    """Every file under out, records.csv without its timestamp line."""
    files = {str(path.relative_to(out)): path.read_bytes()
             for path in out.rglob("*") if path.is_file()}
    files["records.csv"] = files["records.csv"].split(b"\n", 1)[1]
    return files


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
        assert rec.checks.skipped.keys() == {"linfty", "marcinkiewicz"}

    def test_singular_run_reports_sup_bound(self):
        rec = run_single(singular_spec(0.5, 1.0, 3.0), MeshSpec(96), CFG)
        assert rec.converged
        assert "linfty" in rec.reports
        rep = rec.reports["linfty"][0]
        assert rep.passed and rep.rhs == pytest.approx(0.75)
        assert rec.checks.skipped.keys() >= {"lemma", "bg"}

    def test_every_enabled_checker_contributes_one_entry(self):
        # reports and skips each keep ALL_CHECKS order, the order of a
        # record's records.csv rows, for every kind of lower-order term
        for spec in (power_spec(0.5, 1.0, 1.5), singular_spec(0.5, 1.0, 3.0),
                     no_absorption_spec(1.0, 1.0)):
            rec = run_single(spec, MeshSpec(64), CFG)
            assert rec.solved
            assert set(rec.reports) | set(rec.checks.skipped) == set(ALL_CHECKS)
            assert not (set(rec.reports) & set(rec.checks.skipped))
            for names in (list(rec.reports), list(rec.checks.skipped)):
                assert names == [name for name in ALL_CHECKS if name in names]

    def test_truncation_active_run_not_all_passed(self):
        # f(r_0) ~ 1.9e9 exceeds n_max = 2^30, so the schedule runs out
        rec = run_single(power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.8)),
                         MeshSpec(1024), SolverConfig(n_max=2**30))
        assert rec.converged and rec.truncation_active
        assert not rec.all_passed

    # Without absorption, constant datum A at M = 256: (gamma, A) ->
    # (converged, truncation_active, n_final).  gamma = 0.5 and 1 stalled at
    # n = 128 when a frozen-coefficient direction backed the exact one; an
    # exact march of the same upwind scheme finds their discrete solutions,
    # max u 87.19 at n = 128 and 3.75e7 at n = 2^26.  gamma = 2 with A = 10
    # keeps clipping u up to the cap; with A = 100 its Newton iteration
    # stalls, with no flag set.
    NO_ABSORPTION = {
        (0.5, 100.0): (True, False, 128),
        (1.0, 100.0): (True, False, 2**26),
        (2.0, 10.0): (True, True, CFG.n_max),
        (2.0, 100.0): (False, False, 256),
    }

    @pytest.mark.parametrize("gamma, amplitude", sorted(NO_ABSORPTION))
    def test_no_absorption_outcomes(self, gamma, amplitude):
        rec = run_single(no_absorption_spec(gamma, amplitude), MeshSpec(256), CFG)
        assert (rec.converged, rec.truncation_active, rec.n_final) == \
            self.NO_ABSORPTION[gamma, amplitude]
        assert not rec.hit_iteration_cap
        if rec.truncation_active or not rec.converged:
            assert not rec.all_passed

    def test_failed_marcinkiewicz_gate_is_not_all_passed(self):
        # the gate skipped (bounded solution) leaves the run all-passed; an
        # applied gate counts like any other report
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(64), CFG)
        assert rec.all_passed and rec.reports and "marcinkiewicz" in rec.checks.skipped
        failed = _report("marcinkiewicz_lemma", 1.0, 0.5, 0.15, scale=1.0)
        passed = _report("marcinkiewicz_lemma", 1.0, 0.9, 0.15, scale=1.0)
        for gate, verdict in ((failed, False), (passed, True)):
            reports = {**rec.reports, "marcinkiewicz": (gate,)}
            checks = replace(rec.checks, reports=reports)
            assert replace(rec, checks=checks).all_passed is verdict
            assert CheckResults(reports=reports).all_passed is verdict

    def test_marcinkiewicz_shares_the_record_tail_fits(self):
        # r^-2 has a fittable tail in u and in grad u, so the check applies
        grid = build_radial_grid(3, 1.0, 512)
        u = grid_function(grid, lambda r: r**-2.0)
        problem = DiscreteProblem(grid, power_spec(1.0, 1.0, 1.0), np.ones(grid.M), 2**30)
        res = run_checks(u, problem)
        mk = res.marcinkiewicz
        assert mk.applicable
        assert mk.u_fit == res.tail_u and mk.grad_fit == res.tail_grad
        df_u = distribution_function(u.values, grid.weights)
        df_g = distribution_function(np.abs(face_gradient(u)), grid.face_weights)
        assert mk == verify_marcinkiewicz_lemma(u, TAIL_TOLERANCE, tails=(
            df_u, df_g, tail_exponent_fit(df_u), tail_exponent_fit(df_g)))
        assert res.reports["marcinkiewicz"] == (mk.verdict,)

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
        assert res.flags.converged and not res.flags.truncation_active
        u, tol = res.u, CHECK_TOLERANCE
        f = grid_function(grid, lambda r: datum_eval(spec.datum, r))
        gamma, alpha, p = spec.coefficient.gamma, spec.coefficient.alpha, spec.lower.p
        peak = u.max_abs()
        df_u = distribution_function(u.values, grid.weights,
                                     np.geomspace(1e-3, max(2.0 * peak, 2e-3), 48))
        grad = np.abs(face_gradient(u))
        df_g = distribution_function(grad, grid.face_weights,
                                     np.geomspace(1e-3, max(2.0 * grad.max(), 2e-3), 48))
        fit_u, fit_g = tail_exponent_fit(df_u), tail_exponent_fit(df_g)
        mk = verify_marcinkiewicz_lemma(u, TAIL_TOLERANCE, tails=(df_u, df_g, fit_u, fit_g))
        assert mk.applicable
        expect = CheckResults(
            reports={
                "lemma": (check_lemma_estimate(u, f, p, spec.datum.m, tol),),
                "bg": tuple(check_bg_estimate(u, f, p, np.unique(
                    np.array([0.0, 0.25, 0.5, 0.75]) * peak), tol)),
                "weighted_energy": tuple(check_weighted_energy(u, f, gamma, [lam], alpha, tol)[0]
                                         for lam in WEIGHTED_ENERGY_LAMBDAS),
                "truncation_energy": tuple(check_truncation_energy(
                    u, f, gamma, alpha, np.geomspace(0.01 * peak, 2.0 * peak, 8), tol)),
                "entropy": tuple(check_entropy_inequality(
                    u, res.problem, np.geomspace(0.01 * peak, 2.0 * peak, 4), tol)),
                "marcinkiewicz": (mk.verdict,),
            },
            skipped={"linfty": "needs a singular absorption term"},
            marcinkiewicz=mk, tail_u=fit_u, tail_grad=fit_g,
            dist_u=(tuple(map(float, df_u.k_levels)), tuple(map(float, df_u.measures))),
            dist_grad=(tuple(map(float, df_g.k_levels)), tuple(map(float, df_g.measures))),
        )
        assert repr(run_checks(u, res.problem)) == repr(expect)

    def test_entropy_inequality_is_an_identity_on_a_converged_solve(self):
        # summed by parts in the faces the solve used, lhs - rhs is the
        # residual paired with T_k(u - phi): at gamma = 1 every (phi, k)
        # report meets its bound with equality up to rounding
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(256), CFG)
        assert rec.converged and not rec.truncation_active
        reps = rec.reports["entropy"]
        assert len(reps) == 12
        assert all(abs(rep.relative_slack) <= 1e-10 for rep in reps)

    def test_truncation_active_run_audited_at_its_level(self):
        # n_max = 16 clips the datum 100: the solve converges on T_16 f, and
        # the lemma of each point, solved or reused, sums w |T_16 f|^m
        sweep = SweepSpec(base=power_spec(0.5, 1.0, 1.0, ConstantDatum(100.0)),
                          mesh=MeshSpec(64), axes={"m": (1.0, 1.5)},
                          cfg=SolverConfig(n_max=16))
        weights = build_radial_grid(3, 1.0, 64).weights
        for rec in run_sweep(sweep):
            assert rec.converged and rec.truncation_active and rec.n_final == 16
            m = rec.problem.datum.m
            assert rec.discrete.n == 16
            assert rec.reports["lemma"][0].rhs == float(np.dot(weights, np.full(64, 16.0) ** m))

    def test_prediction_attached(self):
        rec = run_single(power_spec(1.0, 4.0, 1.5), MeshSpec(32), CFG)
        assert rec.prediction is not None
        assert rec.prediction.gradient_exponent == 2.0
        assert regime_label(rec.prediction, 1.5) == "m>1:finite_energy"

    def test_no_state_between_calls(self):
        # the probe's finest op, run twice around a matrix op, holds the same
        # bits: whatever the audit's cutoff blocks or the Newton step reuse,
        # nothing carries over from one call to the next
        def everything(rec):  # what scripts/record_digest.py hashes
            payload = {key: value for key, value in experiments._payload(rec).items()
                       if key != "duration_s"}
            return repr((payload, rec.reports, rec.checks.skipped, rec.marcinkiewicz))

        probe = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.6))
        first = run_single(probe, MeshSpec(2048), CFG)
        assert first.converged and first.all_passed and "marcinkiewicz" in first.reports
        between = run_single(power_spec(0.5, 2.0, 1.5, RadialPowerDatum(1.0, 1.2)),
                             MeshSpec(256), CFG)
        assert between.converged
        assert everything(run_single(probe, MeshSpec(2048), CFG)) == everything(first)


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
        # the constructor multiplies the axis lengths; it builds no point
        def sweep(p_count, m_count):
            return SweepSpec(base=power_spec(0.5, 1.0, 1.0), mesh=MeshSpec(32),
                             axes={"p": tuple(np.linspace(0.5, 4, p_count)),
                                   "m": tuple(np.linspace(1, 2, m_count))})

        assert experiments.SWEEP_CAP == 4096
        sweep(64, 64)
        with pytest.raises(ValueError, match=r"^sweep size 4097 exceeds cap 4096$"):
            sweep(17, 241)

    # One value per row that no spec can hold, with the text the config
    # prints after "[sweep] ": a fractional M or N is not truncated.
    UNBUILDABLE = {
        "M-below-8": ({"M": (4.0, 64.0)}, "M: cell count must be an integer >= 8, got 4"),
        "M-fraction": ({"M": (64.0, 64.7)}, "M: cell count must be an integer >= 8, got 64.7"),
        "N-fraction": ({"M": (64.0,), "N": (3.0, 3.5)},
                       "N: dimension N must be an integer >= 3, got 3.5"),
        "delta-on-constant": ({"delta": (0.5, 1.0)},
                              "delta: axis 'delta' requires a radial power datum"),
    }

    @pytest.mark.parametrize("case", list(UNBUILDABLE))
    def test_unbuildable_axis_value_rejected(self, case):
        # the constructor builds each axis value, so run_sweep never meets a
        # point it cannot build
        axes, message = self.UNBUILDABLE[case]
        with pytest.raises(ValueError) as err:
            SweepSpec(base=power_spec(0.5, 1.0, 1.0, ConstantDatum(1.0)),
                      mesh=MeshSpec(64), axes=axes)
        assert str(err.value) == message

    # (base, M, axes, distinct discrete problems, converged points): gamma x
    # p x m shaped as the benchmark's sweep, a barrier over gamma x m, whose
    # converged records have no lemma report, and a problem whose solve
    # stalls, over m alone
    GAMMA_P_M = {"gamma": (0.0, 0.5, 1.0), "p": (0.5, 1.0, 2.0, 4.0), "m": (1.0, 1.5, 2.0)}
    SHARED_SOLVES = {
        "gamma_p_m": (power_spec(1.0, 2.0, 1.0, ConstantDatum(1.7)), 256, GAMMA_P_M, 12, 36),
        "barrier_gamma_m": (singular_spec(1.0, 1.0, 3.0), 256,
                            {"gamma": (0.0, 1.0), "m": (1.0, 1.5, 2.0)}, 2, 6),
        "stalled": (no_absorption_spec(2.0, 100.0), 256, {"m": (1.0, 1.5, 2.0)}, 1, 0),
    }

    @staticmethod
    def outcome(rec):
        """Everything a record holds but its timing and the run id it shares,
        as compared text."""
        (payload,) = full_payloads([rec])
        payload = {key: value for key, value in payload.items() if key != "duration_s"}
        return repr((payload, rec.reports, rec.checks.skipped, rec.marcinkiewicz))

    @pytest.mark.parametrize("case", sorted(SHARED_SOLVES))
    def test_points_differing_only_in_m_share_one_solve(self, case, monkeypatch):
        base, cells, axes, problems, converged = self.SHARED_SOLVES[case]
        sweep = SweepSpec(base=base, mesh=MeshSpec(cells), axes=axes)
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return truncation_continuation(*args, **kwargs)

        monkeypatch.setattr(experiments, "truncation_continuation", counted)
        records = run_sweep(sweep)
        monkeypatch.undo()
        assert len(solves) == problems
        assert sum(rec.converged for rec in records) == converged
        assert len(records) == math.prod(map(len, axes.values()))
        assert sum(rec.shares is None for rec in records) == problems
        for rec in records:
            alone = run_single(rec.problem, rec.mesh, CFG, run_id=rec.run_id)
            assert self.outcome(rec) == self.outcome(alone), rec.run_id

    def test_parallelism_key_is_ignored(self, tmp_path):
        # the benchmark's sweep configs still set the key; it warns and
        # changes nothing
        base = ("[problem]\nN = 3\np = 2.0\n[mesh]\nM = 32\n"
                "[sweep]\np = 0.5, 3, 4\nm = 1, 1.5\n")
        bodies, caught = [], []
        for extra in ("", "parallelism = 2\n"):
            conf = tmp_path / f"sweep{len(bodies)}.ini"
            conf.write_text(base + extra)
            out = tmp_path / f"out{len(bodies)}"
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert main(["sweep", str(conf), "-o", str(out)]) == EXIT_OK
            caught.append([(w.category, str(w.message)) for w in seen])
            bodies.append(csv_body(out / "records.csv"))
        assert caught[0] == []
        assert caught[1] == [(FutureWarning, "[sweep] parallelism has no effect: "
                                             "every sweep runs its points in one process")]
        assert bodies[0] == bodies[1]


class TestEmission:
    def test_row_per_check(self, tmp_path):
        rec = run_single(power_spec(1.0, 2.0, 1.0), MeshSpec(64), CFG)
        paths = emit_outputs([rec], tmp_path)
        body = csv_body(paths["csv"])
        # header + 1 lemma, 4 bg, 3 weighted-energy, 8 truncation-energy and
        # 12 entropy rows; linfty and the Marcinkiewicz gate are skipped
        assert body[0].startswith("run_id,gamma,p,m,N,delta,M,n_final,converged,")
        assert [len(rec.reports[name]) for name in rec.reports] == [1, 4, 3, 8, 12]
        assert len(body) == 1 + 28

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
                         MeshSpec(64), CFG)
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

    def test_fast_emitter_matches_plain_rule(self, tmp_path, monkeypatch):
        records = run_sweep(canonical_sweep(M=32))
        monkeypatch.setattr(solver, "tridiag_solve", singular_matrix)
        records.append(run_single(no_absorption_spec(1.0, 1.0), MeshSpec(32), CFG))
        monkeypatch.undo()
        path = tmp_path / "records.json"
        assert any(rec.shares for rec in records)
        for recs in (records, []):
            save_records(recs, path)
            saved = load_records(path)
            plain = plain_csv_text(full_payloads(recs))
            assert csv_text(emit_outputs(recs, tmp_path / "fresh")["csv"]) == plain
            assert csv_text(emit_from_saved(saved, tmp_path / "saved")["csv"]) == plain
        # check names no checker writes, holding every character csv may
        # quote, in the shared cells too
        save_records(records[:1], path)
        (rec,) = load_records(path)
        names = ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn", ',"\n\r', '"', ""]
        synthetic = [{**rec, "rows": [{**rec["rows"][0], "check_name": name}
                                      for name in names]},
                     {**rec, "cells": {**rec["cells"], "run_id": 'run,"1"\n'}}]
        assert csv_text(emit_from_saved(synthetic, tmp_path / "synthetic")["csv"]) == \
            plain_csv_text(synthetic)
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
            rows = payload["rows"] if rec.shares is None else [payload["lemma"]]
            assert all(set(row) == set(ROW_COLUMNS) for row in rows)
        save_records([], path)
        assert load_records(path) == []

    REFERENCE_KEYS = {"cells", "shares", "lemma", "case", "duration_s", "all_passed",
                      "n_checks"}

    def test_reused_points_are_stored_as_references(self, tmp_path):
        # canonical_sweep runs p x m, so every point at m = 1.5 reuses the
        # solve at m = 1 and stores only what differs from it
        records = run_sweep(canonical_sweep(M=32))
        refs, full = tmp_path / "refs.json", tmp_path / "full.json"
        save_records(records, refs)
        save_records([replace(rec, shares=None) for rec in records], full)
        saved = load_records(refs)
        assert [rec.get("shares") for rec in saved] == [
            None, "run_0000", None, "run_0002", None, "run_0004"]
        assert saved[::2] == load_records(full)[::2]
        for rec, first in zip(saved[1::2], saved[::2]):
            assert set(rec) == self.REFERENCE_KEYS
            assert rec["lemma"]["check_name"].endswith(",m=1.5)")
            assert rec["lemma"] != first["rows"][0]
            assert rec["n_checks"] == first["n_checks"]
        assert refs.stat().st_size < 0.7 * full.stat().st_size

    # sweeps over m whose shared solves have a lemma row (power absorption),
    # none (the barrier), none because the solve stalled, or none because it
    # raised (a solve_failed row)
    SHARED_SOLVES = {
        "power": (power_spec(1.0, 2.0, 1.0, ConstantDatum(1.7)),
                  {"p": (0.5, 2.0), "m": (1.0, 1.5, 2.0)}, Stop.CONVERGED, True),
        "barrier": (singular_spec(1.0, 1.0, 3.0), {"m": (1.0, 2.0)}, Stop.CONVERGED, False),
        "stalled": (no_absorption_spec(2.0, 100.0), {"m": (1.0, 2.0)}, Stop.STALLED, False),
        "raised": (power_spec(1.0, 2.0, 1.0), {"m": (1.0, 2.0)}, Stop.FAILED, False),
    }

    @pytest.mark.parametrize("case", list(SHARED_SOLVES))
    def test_references_render_as_full_payloads(self, case, tmp_path, monkeypatch):
        base, axes, stop, has_lemma = self.SHARED_SOLVES[case]
        if case == "raised":
            monkeypatch.setattr(solver, "tridiag_solve", singular_matrix)
        records = run_sweep(SweepSpec(base=base, mesh=MeshSpec(256), axes=axes))
        monkeypatch.undo()
        assert {rec.flags.stop for rec in records} == {stop}
        fresh, saved, full = tmp_path / "fresh", tmp_path / "saved", tmp_path / "full"
        emit_outputs(records, fresh)
        save_records(records, tmp_path / "records.json")
        payloads = load_records(tmp_path / "records.json")
        references = [rec for rec in payloads if "shares" in rec]
        assert len(references) == len(records) - len(records) // len(axes["m"])
        assert all((rec["lemma"] is not None) == has_lemma for rec in references)
        emit_from_saved(payloads, saved)
        emit_from_saved(full_payloads(records), full)
        expect = output_files(full)
        assert len(expect) == 2 + (2 * len(records) if stop == Stop.CONVERGED else 0)
        assert output_files(fresh) == expect
        assert output_files(saved) == expect

    def test_full_payloads_reemit_the_same_files(self, tmp_path):
        # a records.json of full payloads only, as written before reused
        # points became references, is still valid input
        records = run_sweep(canonical_sweep(M=32))
        emit_outputs(records, tmp_path)
        save_records([replace(rec, shares=None) for rec in records], tmp_path / "records.json")
        before = output_files(tmp_path)
        emit_from_saved(load_records(tmp_path / "records.json"), tmp_path)
        assert output_files(tmp_path) == before

    def test_reference_to_no_earlier_solve_raises(self, tmp_path):
        path = tmp_path / "records.json"
        save_records(run_sweep(canonical_sweep(M=32))[:2], path)
        solve, ref = load_records(path)
        for saved in ([ref, solve], [solve, {**ref, "shares": "run_0009"}],
                      [solve, ref, {**ref, "shares": "run_0001"}]):
            with pytest.raises(ValueError, match="which is not an earlier solve"):
                emit_from_saved(saved, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_rewrite_in_place_leaves_no_stale_bytes(self, tmp_path):
        # a 36-point sweep, then a 4-point one with shorter numbers (a zero
        # datum) into the same directory: every file the second writes is
        # shorter, and each must equal the same emission into a fresh one
        large = SweepSpec(base=power_spec(1.0, 2.0, 1.0, ConstantDatum(1.7)),
                          mesh=MeshSpec(32), axes=TestSweep.GAMMA_P_M)
        small = SweepSpec(base=power_spec(1.0, 2.0, 1.0, ConstantDatum(0.0)),
                          mesh=MeshSpec(16), axes={"p": (1.0, 2.0), "m": (1.0, 2.0)})
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        records = run_sweep(large)
        emit_outputs(records, used)
        save_records(records, used / "records.json")
        before = output_files(used)
        records = run_sweep(small)
        for out in (used, fresh):
            emit_outputs(records, out)
            save_records(records, out / "records.json")
        after = output_files(used)
        assert set(after) == {"records.csv", "records.json", "summary.md"} | {
            f"plotdata/run_{i:04d}_{s}.dat" for i in range(4) for s in ("u", "grad")}
        assert all(len(body) < len(before[name]) for name, body in after.items())
        assert after == output_files(fresh)

    def test_each_shared_solve_is_rendered_once(self, tmp_path, monkeypatch):
        # a reference's plot bodies and check cells are its solve's, rendered
        # once; of its checks only its own lemma row is formatted
        path = tmp_path / "records.json"
        save_records(run_sweep(canonical_sweep(M=32)), path)
        saved = load_records(path)
        solves = [rec for rec in saved if "shares" not in rec]
        calls = {"_plot_body": 0, "_row_cells": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(experiments, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(experiments, name, counted)
        plotdir = emit_from_saved(saved, tmp_path / "out")["plotdata"]
        monkeypatch.undo()
        assert len(solves) == 3
        assert calls == {"_plot_body": 2 * len(solves),
                         "_row_cells": sum(len(rec["rows"]) for rec in solves) + 3}
        by_id = {solve["cells"]["run_id"]: solve for solve in solves}
        for rec in saved:
            solve = by_id[rec.get("shares", rec["cells"]["run_id"])]
            for s in ("u", "grad"):
                body = (plotdir / f"{rec['cells']['run_id']}_{s}.dat").read_text()
                assert body == experiments._plot_body(*solve[f"dist_{s}"])

    # A failed point is unconverged, not clipping, and likewise for every way
    # a run ends today, one row each: the config it runs, its stop, its
    # (converged, truncation_active, hit_iteration_cap), n_final, first
    # check_name, summary.md row, failure, and the exit codes of solve,
    # verify --solution on the field solve stored (3 when it stored none) and
    # sweep.  A raised solve is a tridiag_solve that raises.
    SOLVED = "[problem]\ngamma = 1.0\np = 2.0\n[mesh]\nM = 32\n"
    ENDINGS = {
        "converged": (
            SOLVED, Stop.CONVERGED, (True, False, False), 1, "lemma_estimate(p=2,m=1)",
            "| run_0000 | 1 | 2 | 1 | 3 | nan | 32 | true | false | false | 1 | 28 |",
            None, (EXIT_OK, EXIT_OK, EXIT_OK)),
        "capped": (
            SOLVED + "[solver]\npicard_max = 2\n", Stop.CAPPED, (False, False, True), 1,
            "solve_failed",
            "| run_0000 | 1 | 2 | 1 | 3 | nan | 32 | false | false | true | 1 | 0 |",
            None, (EXIT_NOT_CONVERGED, EXIT_CONFIG, EXIT_NOT_CONVERGED)),
        "stalled": (  # TestStalledSolve's case: no absorption, gamma = 2, A = 100
            "[problem]\ngamma = 2.0\namplitude = 100\n[mesh]\nM = 256\n", Stop.STALLED,
            (False, False, False), 256, "solve_failed",
            "| run_0000 | 2 | nan | 1 | 3 | nan | 256 | false | false | false | 256 | 0 |",
            None, (EXIT_NOT_CONVERGED, EXIT_CONFIG, EXIT_NOT_CONVERGED)),
        "truncation_active": (  # f(r_0) ~ 1.9e9 exceeds n_max = 2^30
            "[problem]\ngamma = 1.0\np = 1.0\ndatum = radial_power\ndelta = 2.8\n"
            f"[mesh]\nM = 1024\n[solver]\nn_max = {2**30}\n", Stop.CONVERGED,
            (True, True, False), 2**30, "lemma_estimate(p=1,m=1)",
            "| run_0000 | 1 | 1 | 1 | 3 | 2.8 | 1024 | true | true | false | 1073741824 | 29 |",
            None, (EXIT_NOT_CONVERGED, EXIT_CHECK_FAILED, EXIT_NOT_CONVERGED)),
        "bound_overflows": (  # no absorption: max|u| ~ 7e135 at n = 2^200, and the
            # truncation-energy bound k (1+k)^gamma |f|_1 exceeds every float
            "[problem]\ngamma = 2.2796091049319673\ndatum = radial_power\n"
            "amplitude = 2.9672476893984823\ndelta = 0.47095858995382195\n[mesh]\nM = 64\n",
            Stop.CONVERGED, (True, True, False), 2**200,
            "weighted_energy(lambda=1.25,gamma=2.27961)",
            f"| run_0000 | 2.27961 | nan | 1 | 3 | 0.470959 | 64 | true | true | false | {2**200} "
            "| 23 |",
            None, (EXIT_NOT_CONVERGED, EXIT_CHECK_FAILED, EXIT_NOT_CONVERGED)),
        "solver_raised": (
            SOLVED, Stop.FAILED, (False, False, False), 0, "solve_failed",
            "| run_0000 | 1 | 2 | 1 | 3 | nan | 32 | false | false | false | 0 | 0 |",
            "LinAlgError: singular matrix",
            (EXIT_NOT_CONVERGED, EXIT_CONFIG, EXIT_NOT_CONVERGED)),
    }

    @pytest.mark.parametrize("case", list(ENDINGS))
    def test_failed_point_is_unconverged_not_clipping(self, case, tmp_path, monkeypatch, capsys):
        config, stop, flags, n_final, check_name, summary_row, failure, exits = \
            self.ENDINGS[case]
        if case == "solver_raised":
            monkeypatch.setattr(solver, "tridiag_solve", singular_matrix)
        cfg = parse_config(config)
        rec = run_single(cfg.problem, cfg.mesh, cfg.solver)
        assert (rec.flags.stop, (rec.converged, rec.truncation_active, rec.hit_iteration_cap),
                rec.n_final, rec.failure) == (stop, flags, n_final, failure)
        assert rec.solved == (flags == (True, False, False))
        # a bound past the float range holds for every finite lhs
        assert all(rep.passed for rep in rec.reports.get("truncation_energy", ()))

        lib = tmp_path / "lib"
        paths = emit_outputs([rec], lib)
        save_records([rec], lib / "records.json")
        row = next(csv.DictReader(csv_body(paths["csv"])))
        assert [row[key] for key in ("run_id", "n_final", "converged", "truncation_active",
                                     "hit_iteration_cap", "check_name")] == \
            ["run_0000", str(n_final), *map(_fmt, flags), check_name]
        if check_name == "solve_failed":  # the one row of a run without an audit
            assert len(csv_body(paths["csv"])) == 2
            assert (row["lhs"] == "inf", row["passed"]) == (stop is Stop.FAILED, "false")
        assert paths["summary"].read_text().splitlines()[-1] == summary_row
        (saved,) = load_records(lib / "records.json")
        assert (saved["stop"], saved["failure"]) == (stop.value, failure)
        # a records.json written before payloads carried a stop re-emits the same files
        emit_from_saved([{key: val for key, val in saved.items() if key != "stop"}],
                        tmp_path / "stopless")
        assert output_files(tmp_path / "stopless") == \
            {name: body for name, body in output_files(lib).items() if name != "records.json"}

        conf = tmp_path / "ending.ini"
        conf.write_text(config)
        solve = main(["solve", str(conf), "-o", str(tmp_path / "solve")])
        assert capsys.readouterr().out.splitlines()[-1].endswith(f" stop={stop.value}")
        assert csv_body(tmp_path / "solve" / "records.csv") == csv_body(paths["csv"])
        verify = main(["verify", str(conf),
                       "--solution", str(tmp_path / "solve" / "solution.dat")])
        assert (tmp_path / "solve" / "solution.dat").exists() == (verify != EXIT_CONFIG)
        sweep = main(["sweep", str(conf), "-o", str(tmp_path / "sweep")])
        assert (solve, verify, sweep) == exits

    def test_failed_run_still_emits_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "tridiag_solve", singular_matrix)
        paths = emit_outputs([run_single(power_spec(0.5, 1.0, 1.0), MeshSpec(32), CFG)],
                             tmp_path)
        body = csv_body(paths["csv"])
        assert len(body) == 2
        assert "solve_failed" in body[1]


class TestRefinementStudy:
    def test_smooth_baseline_second_order(self):
        rows = mesh_refinement_study(
            power_spec(0.0, 1.0, 1.0), lambda r: (1 - r**2) / 6,
            [64, 128, 256], CFG, rhs=lambda r: np.ones_like(r) + (1 - r**2) / 6)
        assert all(row.order >= 1.9 for row in rows[1:])

    def test_zero_field_zero_error(self):
        rows = mesh_refinement_study(power_spec(1.0, 2.0, 1.0),
                                     lambda r: np.zeros_like(r),
                                     [32, 64], CFG, rhs=lambda r: np.zeros_like(r))
        assert all(row.error <= 1e-12 for row in rows)

    def test_fractional_cell_count_rejected(self):
        # each study mesh is a MeshSpec, so a fractional count is not truncated
        with pytest.raises(ValueError, match=r"^cell count must be an integer >= 8, got 32.7$"):
            mesh_refinement_study(power_spec(1.0, 2.0, 1.0), lambda r: 1 - r**2,
                                  [32.7, 64.2], CFG)

    def test_upwind_faces_converge_at_first_order(self):
        # upwinded degeneracy trades accuracy for exact energy inequalities
        rows = mesh_refinement_study(power_spec(1.0, 2.0, 1.0), lambda r: 1 - r**2,
                                     [32, 64, 128], CFG)
        assert all(0.7 <= row.order <= 1.5 for row in rows[1:])


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

    def test_probe_solves_without_auditing(self, monkeypatch):
        # each row's tails are those an audited record of the finer mesh
        # holds; with the audit made to raise, the probe builds the same table
        base = power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.0))
        table = exponent_probe(base, [2.0, 2.5, 2.8], MeshSpec(256), CFG)
        for row in table.rows:
            datum = replace(base.datum, family=RadialPowerDatum(1.0, row.delta))
            checks = run_single(replace(base, datum=datum), MeshSpec(256), CFG).checks
            assert (row.tail_u, row.tail_grad) == \
                (checks.tail_u.exponent, checks.tail_grad.exponent)

        def audit(*args, **kwargs):
            raise AssertionError("exponent_probe audited a solve")

        monkeypatch.setattr(experiments, "run_checks", audit)
        monkeypatch.setattr(experiments, "run_single", audit)
        assert repr(exponent_probe(base, [2.0, 2.5, 2.8], MeshSpec(256), CFG)) == repr(table)

    def test_raising_solve_marks_row_insufficient(self, monkeypatch):
        monkeypatch.setattr(solver, "tridiag_solve", singular_matrix)
        table = exponent_probe(power_spec(1.0, 1.0, 1.0, RadialPowerDatum(1.0, 2.5)),
                               [2.5], MeshSpec(64), CFG)
        assert table.rows[0].insufficient and not table.rows[0].consistent
        assert table.verdict == "insufficient"

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
