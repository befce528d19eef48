import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degelab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _KNOWN_KEYS,
    ConfigError,
    dispatch,
    main,
    parse_config,
    _verify_solution_file,
)
import degelab
import degelab.experiments as experiments
from degelab.experiments import CheckSettings
from degelab.grid import build_radial_grid
from degelab.problem import (
    BumpDatum,
    DatumSpec,
    PowerAbsorption,
    SingularAbsorption,
    datum_norm_exact,
)
from degelab.solver import SolverConfig

MINIMAL = """
[problem]
N = 3
gamma = 1.0
alpha = 1.0
p = 2.0
datum = constant
amplitude = 1.0
m = 1.0

[mesh]
M = 96
"""


def write_config(tmp_path, text, out=None):
    out = out or (tmp_path / "out")
    path = tmp_path / "config.ini"
    path.write_text(text + f"\n[output]\ndirectory = {out}\n")
    return path, Path(out)


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.problem.dimension == 3
        assert isinstance(cfg.problem.lower, PowerAbsorption)
        assert cfg.mesh.cells == 96
        assert cfg.checks == ("lemma", "bg", "weighted_energy", "truncation_energy",
                              "linfty", "entropy", "marcinkiewicz")
        assert cfg.settings.lambdas == (1.25, 2.0, 4.0)
        assert cfg.output_dir == "out"

    def test_low_dimension_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 3"):
            parse_config("[problem]\nN = 2\n")

    def test_both_lower_order_kinds_rejected(self):
        with pytest.raises(ConfigError, match="exactly one kind"):
            parse_config("[problem]\np = 2.0\nsigma = 1.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[problem]\nnonsense = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_all_violations_collected(self):
        bad = ("[problem]\nN = 2\np = -1\nm = 0.5\nfoo = 3\n"
               "[solver]\nface_scheme = central\n")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 5
        assert "N" in text and "p" in text and "m" in text and "foo" in text
        assert "face_scheme" in text

    def test_singular_family(self):
        cfg = parse_config("[problem]\nsigma = 1.0\namplitude = 3.0\n")
        assert isinstance(cfg.problem.lower, SingularAbsorption)

    def test_radial_power_membership_guard(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config("[problem]\ndatum = radial_power\n")
        with pytest.raises(ConfigError, match="L\\^"):
            parse_config("[problem]\ndatum = radial_power\ndelta = 2.0\nm = 2.0\n")

    def test_sweep_axes(self):
        cfg = parse_config(MINIMAL + "\n[sweep]\np = 0.5, 1, 2\nm = 1, 1.5\n"
                                     "parallelism = 2\n")
        assert cfg.sweep_axes == {"p": (0.5, 1.0, 2.0), "m": (1.0, 1.5)}
        assert cfg.sweep_parallelism == 2

    def test_checks_selection(self):
        cfg = parse_config(MINIMAL + "\n[checks]\nenable = lemma, bg\ntolerance = 1e-5\n")
        assert cfg.checks == ("lemma", "bg")
        assert cfg.settings.tolerance == 1e-5
        with pytest.raises(ConfigError, match="unknown checker"):
            parse_config(MINIMAL + "\n[checks]\nenable = lemma, nope\n")

    def test_inline_comments(self):
        cfg = parse_config("[problem]\nN = 4  # four dimensions\np = 1.0\n")
        assert cfg.problem.dimension == 4

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.solver == SolverConfig()
        assert cfg.settings == CheckSettings()

    def test_solver_fields_are_the_config_keys(self):
        # a SolverConfig field no config can set is a knob only tests turn
        assert {f.name for f in dataclasses.fields(SolverConfig)} == _KNOWN_KEYS["solver"]


class TestDispatch:
    def test_solve_writes_everything(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        code = dispatch("solve", parse_config(conf.read_text()))
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {"solution.dat", "records.csv", "records.json",
                "summary.md", "plotdata"} <= names

    def test_verify_in_process(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        assert dispatch("verify", parse_config(conf.read_text())) == EXIT_OK

    def test_verify_round_trip_identical_reports(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_OK

        from degelab.experiments import run_single
        rec = run_single(cfg.problem, cfg.mesh, cfg.solver, cfg.checks, cfg.settings)
        residual, bound, checked = _verify_solution_file(cfg, str(out / "solution.dat"))
        assert residual <= bound
        assert checked.all_passed

        def table(reports):
            return {(rep.name, rep.params): (rep.lhs, rep.rhs, rep.passed)
                    for group in reports.values() for rep in group}

        assert table(checked.reports) == table(rec.reports)
        assert checked.skipped == rec.skipped

    def test_solve_prints_every_check_under_its_csv_label(self, tmp_path, capsys):
        # radial delta=2.5 reaches the Marcinkiewicz gate, which prints like
        # every other check
        text = (MINIMAL.replace("p = 2.0", "p = 1.0").replace("M = 96", "M = 512")
                .replace("datum = constant", "datum = radial_power\ndelta = 2.5"))
        conf, out = write_config(tmp_path, text)
        assert dispatch("solve", parse_config(conf.read_text())) == EXIT_OK
        printed = [line.split(" lhs=")[0].split("] ", 1)[1]
                   for line in capsys.readouterr().out.splitlines() if " lhs=" in line]
        rows = list(csv.DictReader(line for line in
                                   (out / "records.csv").read_text().splitlines()
                                   if not line.startswith("#")))
        assert "marcinkiewicz_lemma" in printed
        assert sorted(printed) == sorted(row["check_name"] for row in rows)

    # f(r_0) ~ 1.9e9 exceeds n_max = 2^30: the last level converges but
    # still clips the datum, so the problem was not solved
    CLIPPED = (MINIMAL.replace("p = 2.0", "p = 1.0").replace("M = 96", "M = 1024")
               .replace("datum = constant", "datum = radial_power\ndelta = 2.8"))

    def test_verify_fails_when_truncation_stays_active(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, self.CLIPPED)
        assert dispatch("verify", parse_config(conf.read_text())) == EXIT_CHECK_FAILED
        assert "truncation_active=True" in capsys.readouterr().out

    def test_solve_fails_when_truncation_stays_active(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, self.CLIPPED)
        assert dispatch("solve", parse_config(conf.read_text())) == EXIT_NOT_CONVERGED
        assert "converged=True truncation_active=True" in capsys.readouterr().out
        names = {p.name for p in out.iterdir()}
        assert {"solution.dat", "records.csv", "records.json",
                "summary.md", "plotdata"} <= names

    def test_verify_corrupted_solution_fails(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        dispatch("solve", cfg)
        sol = out / "solution.dat"
        lines = []
        for line in sol.read_text().splitlines():
            if line.startswith("#"):
                lines.append(line)
            else:
                r, v = line.split()
                lines.append(f"{r} {float(v) * 1.5:.17g}")
        sol.write_text("\n".join(lines) + "\n")
        assert dispatch("verify", cfg, solution_path=str(sol)) == EXIT_CHECK_FAILED

    def test_verify_mesh_mismatch_is_config_error(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        dispatch("solve", cfg)
        other = parse_config(MINIMAL.replace("M = 96", "M = 64"))
        code = dispatch("verify", other, solution_path=str(out / "solution.dat"))
        assert code == EXIT_CONFIG

    def test_sweep_and_report(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL + "\n[sweep]\np = 1, 2\n")
        cfg = parse_config(conf.read_text())
        assert dispatch("sweep", cfg) == EXIT_OK
        csv_before = (out / "records.csv").read_text()
        summary_before = (out / "summary.md").read_bytes()
        plots_before = {p.name: p.read_bytes() for p in (out / "plotdata").iterdir()}
        assert dispatch("report", cfg) == EXIT_OK
        body = [l for l in (out / "records.csv").read_text().splitlines()
                if not l.startswith("#")]
        before = [l for l in csv_before.splitlines() if not l.startswith("#")]
        assert body == before
        assert (out / "summary.md").read_bytes() == summary_before
        assert plots_before
        assert {p.name: p.read_bytes() for p in (out / "plotdata").iterdir()} == plots_before

    def test_smaller_sweep_removes_stale_plotdata(self, tmp_path):
        # a 36-point sweep, then a 12-point one into the same directory:
        # only the second sweep's plotdata remains, other files stay
        small = MINIMAL.replace("M = 96", "M = 16")
        conf, out = write_config(tmp_path, small + "\n[sweep]\ngamma = 0, 0.5, 1\n"
                                 "p = 0.5, 1, 2, 4\nm = 1, 1.5, 2\n")
        assert dispatch("sweep", parse_config(conf.read_text())) == EXIT_OK
        assert len(list((out / "plotdata").iterdir())) == 72
        (out / "plotdata" / "notes.txt").write_text("kept\n")
        conf, out = write_config(tmp_path, small + "\n[sweep]\ngamma = 0, 0.5, 1\n"
                                 "p = 0.5, 1, 2, 4\n")
        cfg = parse_config(conf.read_text())
        assert dispatch("sweep", cfg) == EXIT_OK
        expect = {f"run_{i:04d}_{s}.dat" for i in range(12) for s in ("u", "grad")}
        assert {p.name for p in (out / "plotdata").iterdir()} == expect | {"notes.txt"}
        assert dispatch("report", cfg) == EXIT_OK
        assert {p.name for p in (out / "plotdata").iterdir()} == expect | {"notes.txt"}

    def test_solve_and_sweep_build_each_payload_once(self, tmp_path, monkeypatch):
        built = []
        original = experiments._payload
        monkeypatch.setattr(experiments, "_payload",
                            lambda rec: built.append(rec.run_id) or original(rec))
        conf, out = write_config(tmp_path, MINIMAL + "\n[sweep]\np = 1, 2\n")
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_OK
        assert built == ["run_0000"]
        built.clear()
        assert dispatch("sweep", cfg) == EXIT_OK
        assert built == ["run_0000", "run_0001"]
        saved = json.loads((out / "records.json").read_text())
        assert [rec["cells"]["run_id"] for rec in saved] == built

    def test_report_without_records(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        assert dispatch("report", parse_config(conf.read_text())) == EXIT_CONFIG

    def test_report_with_unreadable_records(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, MINIMAL + "\n[sweep]\np = 1, 2\n")
        cfg = parse_config(conf.read_text())
        assert dispatch("sweep", cfg) == EXIT_OK
        stored = out / "records.json"
        saved = json.loads(stored.read_text())

        def outputs():
            paths = [out / "records.csv", out / "summary.md",
                     *sorted((out / "plotdata").iterdir())]
            return {path.name: path.read_bytes() for path in paths}

        def without(rec, key):
            return {k: v for k, v in rec.items() if k != key}

        def old_layout(rec):
            # shared cells copied into every row, run fields at the top level
            cells = rec["cells"]
            return {**without(rec, "cells"),
                    "rows": [{**cells, **row} for row in rec["rows"]],
                    "run_id": cells["run_id"], "M": cells["M"],
                    "n_final": cells["n_final"], "converged": cells["converged"],
                    "axes": {k: cells[k] for k in ("gamma", "p", "m", "N", "delta")}}

        before = outputs()
        assert len(before) == 2 + 2 * len(saved)
        for stale in ([without(saved[0], "all_passed"), saved[1]],
                      [saved[0], without(saved[1], "dist_u")],
                      [{**saved[0], "cells": list(saved[0]["cells"])}, saved[1]],
                      [old_layout(rec) for rec in saved]):
            stored.write_text(json.dumps(stale))
            assert dispatch("report", cfg) == EXIT_CONFIG
            assert "rerun solve or sweep" in capsys.readouterr().err
            assert outputs() == before
        stored.write_text("[{")
        assert dispatch("report", cfg) == EXIT_CONFIG
        assert outputs() == before

    def test_mms_exit_and_table(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, MINIMAL + "\n[mms]\nM_list = 32 64\n")
        assert dispatch("mms", parse_config(conf.read_text())) == EXIT_OK
        assert (out / "mms.csv").exists()
        assert "error" in (out / "mms.csv").read_text()

    def test_mesh_override(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg, mesh_override=64) == EXIT_OK
        sol = (out / "solution.dat").read_text()
        assert "# M 64" in sol

    def test_bad_mesh_override(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        assert dispatch("solve", parse_config(conf.read_text()),
                        mesh_override=4) == EXIT_CONFIG


class TestMain:
    def test_missing_config_file(self):
        assert main(["solve", "/nonexistent/path.ini"]) == EXIT_CONFIG

    def test_removed_picard_tol_rejected(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, MINIMAL + "\n[solver]\npicard_tol = 1e-8\n")
        assert main(["solve", str(conf)]) == EXIT_CONFIG
        assert "unknown key 'picard_tol' in section [solver]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_errors_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nN = 2\n")
        assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dimension must be >= 3" in err

    def test_solve_via_main_with_overrides(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        alt = tmp_path / "alt"
        assert main(["solve", str(conf), "-M", "64", "-o", str(alt)]) == EXIT_OK
        assert (alt / "solution.dat").exists()

    def test_verify_via_main(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        assert main(["solve", str(conf)]) == EXIT_OK
        assert main(["verify", str(conf), "--solution",
                     str(out / "solution.dat")]) == EXIT_OK


class TestImports:
    # Run in a fresh interpreter: this process has long since loaded the
    # scipy subpackages that the CLI defers.
    PROGRAM = """
import sys
import degelab.cli
from degelab.grid import build_radial_grid
from degelab.problem import BumpDatum, DatumSpec, datum_norm_exact
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
print(build_radial_grid(3, 1.0, 64, grading=2.0).faces.tobytes().hex())
print(repr(datum_norm_exact(DatumSpec(BumpDatum(2.0, 0.5, 0.2), 1.5), 1.5, 3, 1.0)))
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""

    def test_cli_import_defers_root_finder_and_quadrature(self):
        src = str(Path(degelab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", self.PROGRAM], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path},
                             timeout=120)
        assert run.returncode == 0, run.stderr
        before, faces, norm, after = run.stdout.splitlines()
        assert before == "[]"
        assert faces == build_radial_grid(3, 1.0, 64, grading=2.0).faces.tobytes().hex()
        assert norm == repr(datum_norm_exact(DatumSpec(BumpDatum(2.0, 0.5, 0.2), 1.5),
                                             1.5, 3, 1.0))
        assert after == "['scipy.integrate', 'scipy.optimize']"
