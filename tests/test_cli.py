import ast
import collections
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from degelab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _KEYS,
    _KNOWN_KEYS,
    Config,
    ConfigError,
    dispatch,
    main,
    parse_config,
    _verify_solution_file,
)
import degelab
import degelab.cli as cli
import degelab.experiments as experiments
from degelab.grid import MeshSpec, build_radial_grid
from degelab.problem import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
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
        assert cfg.output_dir == "out"

    def test_low_dimension_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nN = 2\n")
        assert err.value.violations == ["[problem] dimension N must be an integer >= 3, got 2"]

    def test_both_lower_order_kinds_rejected(self):
        with pytest.raises(ConfigError, match="exactly one kind"):
            parse_config("[problem]\np = 2.0\nsigma = 1.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[problem]\nnonsense = 1\n")

    def test_face_scheme_is_an_unknown_key(self, tmp_path, capsys):
        # the faces are always upwind, so the key that chose them is gone:
        # example.ini with it set, as the key's default, exits 3
        example = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
        conf = tmp_path / "example.ini"
        conf.write_text(example.read_text().replace("\n[output]",
                                                    "face_scheme = upwind\n\n[output]"))
        assert main(["solve", str(conf), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: unknown key 'face_scheme' in section [solver]\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_all_violations_collected(self):
        bad = ("[problem]\nN = 2\np = -1\nm = 0.5\nfoo = 3\n"
               "[solver]\nnewton_tol = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 5
        assert "N" in text and "p" in text and "m" in text and "foo" in text
        assert "newton_tol" in text

    def test_singular_family(self):
        cfg = parse_config("[problem]\nsigma = 1.0\namplitude = 3.0\n")
        assert isinstance(cfg.problem.lower, SingularAbsorption)

    def test_radial_power_membership_guard(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config("[problem]\ndatum = radial_power\n")
        with pytest.raises(ConfigError, match="L\\^"):
            parse_config("[problem]\ndatum = radial_power\ndelta = 2.0\nm = 2.0\n")

    def test_sweep_axes(self):
        with pytest.warns(FutureWarning, match="parallelism has no effect"):
            cfg = parse_config(MINIMAL + "\n[sweep]\np = 0.5, 1, 2\nm = 1, 1.5\n"
                                         "parallelism = 2\n")
        assert cfg.sweep_axes == {"p": (0.5, 1.0, 2.0), "m": (1.0, 1.5)}

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_parallelism_is_config_error(self, tmp_path, value):
        conf = tmp_path / "bad.ini"
        conf.write_text(MINIMAL + f"\n[sweep]\np = 1, 2\nparallelism = {value}\n")
        with pytest.warns(FutureWarning, match="parallelism has no effect"):
            assert main(["sweep", str(conf), "-o", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_inline_comments(self):
        cfg = parse_config("[problem]\nN = 4  # four dimensions\np = 1.0\n")
        assert cfg.problem.dimension == 4

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.solver == SolverConfig()

    def test_solver_fields_are_the_config_keys(self):
        # a SolverConfig field no config can set is a knob only tests turn
        assert {f.name for f in dataclasses.fields(SolverConfig)} == _KNOWN_KEYS["solver"]
        # every scalar field of a spec a config builds is set by exactly one
        # key, and every key sets a field, but the ignored [sweep] parallelism
        specs = (CoefficientSpec, PowerAbsorption, SingularAbsorption, ConstantDatum,
                 RadialPowerDatum, DatumSpec, MeshSpec, SolverConfig)
        targets = collections.Counter(target for *_, target in _KEYS)
        scalars = {f.name for cls in specs for f in dataclasses.fields(cls)
                   if f.type in ("int", "float", "str")}
        assert len(scalars) == 13
        assert {name: targets[name] for name in scalars} == dict.fromkeys(scalars, 1)
        fields = {f.name for cls in (*specs, ProblemSpec, Config)
                  for f in dataclasses.fields(cls)}
        assert set(targets) - fields == {None}
        assert [key for _, key, *_, target in _KEYS if target is None] == ["parallelism"]

    # One row per constructor rule: the config's violation is the message of
    # the constructor that holds the rule, under the section of the key.  The
    # rules that values be finite are met first by the reader's own guard.
    COEF = CoefficientSpec(1.0, 1.0, 0.0)
    RULES = {
        "dimension": ("[problem]\nN = 2", "[problem] dimension N must be an integer >= 3, got 2",
                      lambda: ProblemSpec(2, 1.0, TestParse.COEF)),
        "radius": ("[problem]\nR = 0", "[problem] radius must be finite and positive, got 0.0",
                   lambda: ProblemSpec(3, 0.0, TestParse.COEF)),
        "barrier-datum": ("[problem]\nsigma = 1\namplitude = -1",
                          "[problem] singular absorption requires a nonnegative datum",
                          lambda: ProblemSpec(3, 1.0, TestParse.COEF, SingularAbsorption(1.0),
                                              DatumSpec(ConstantDatum(-1.0)))),
        "alpha": ("[problem]\nalpha = 0", "[problem] alpha must be finite and positive, got 0.0",
                  lambda: CoefficientSpec(0.0, 1.0, 0.0)),
        "beta": ("[problem]\nbeta = -1", "[problem] beta must be finite and positive, got -1.0",
                 lambda: CoefficientSpec(1.0, -1.0, 0.0)),
        "gamma": ("[problem]\ngamma = -1",
                  "[problem] gamma must be finite and nonnegative, got -1.0",
                  lambda: CoefficientSpec(1.0, 1.0, -1.0)),
        "alpha-beta": ("[problem]\nalpha = 2\nbeta = 1",
                       "[problem] alpha=2.0 must not exceed beta=1.0",
                       lambda: CoefficientSpec(2.0, 1.0, 0.0)),
        "p": ("[problem]\np = -1", "[problem] power exponent p must be positive, got -1.0",
              lambda: PowerAbsorption(-1.0)),
        "sigma": ("[problem]\nsigma = 0", "[problem] sigma must be positive, got 0.0",
                  lambda: SingularAbsorption(0.0)),
        "delta": ("[problem]\ndatum = radial_power\ndelta = -1",
                  "[problem] delta must be positive, got -1.0",
                  lambda: RadialPowerDatum(1.0, -1.0)),
        "m": ("[problem]\nm = 0.5", "[problem] Lebesgue class m must be >= 1, got 0.5",
              lambda: DatumSpec(ConstantDatum(1.0), 0.5)),
        "M": ("[mesh]\nM = 4", "[mesh] cell count must be an integer >= 8, got 4",
              lambda: MeshSpec(4)),
        "grading": ("[mesh]\ngrading = 5", "[mesh] grading factor must lie in [1, 4], got 5.0",
                    lambda: MeshSpec(64, 5.0)),
        "picard_max": ("[solver]\npicard_max = 0",
                       "[solver] picard_max must be an integer >= 1, got 0",
                       lambda: SolverConfig(picard_max=0)),
        "newton_tol": ("[solver]\nnewton_tol = 0",
                       "[solver] newton_tol must be finite and positive, got 0.0",
                       lambda: SolverConfig(newton_tol=0.0)),
        "n_max": ("[solver]\nn_max = 0", "[solver] n_max must be an integer >= 1, got 0",
                  lambda: SolverConfig(n_max=0)),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_each_rule_is_reported_under_its_key(self, rule):
        text, violation, build = self.RULES[rule]
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [violation]
        with pytest.raises(ValueError) as err:
            build()
        assert f"{violation.split()[0]} {err.value}" == violation

    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

    @pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
    def test_every_shipped_config_parses(self, path):
        assert isinstance(parse_config(path.read_text()), Config)


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
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_OK
        assert dispatch("verify", cfg, solution_path=str(out / "solution.dat")) == EXIT_OK

    def test_verify_without_solution_is_config_error(self, tmp_path, capsys, monkeypatch):
        # verify only audits a stored field: without one it is a config error
        def no_solve(*args):
            raise AssertionError("verify must not solve")

        monkeypatch.setattr(cli, "run_single", no_solve)
        conf, out = write_config(tmp_path, MINIMAL)
        assert dispatch("verify", parse_config(conf.read_text())) == EXIT_CONFIG
        assert main(["verify", str(conf)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1], err
        assert err[0].startswith("config error: verify audits a stored field and needs "
                                 "--solution") and "degelab solve" in err[0], err
        assert not out.exists()

    def test_verify_round_trip_identical_reports(self, tmp_path):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_OK

        from degelab.experiments import run_single
        rec = run_single(cfg.problem, cfg.mesh, cfg.solver)
        residual, bound, clipped, checked = _verify_solution_file(cfg, str(out / "solution.dat"))
        assert residual <= bound and not clipped
        assert checked.all_passed

        def table(reports):
            return {(rep.name, rep.params): (rep.lhs, rep.rhs, rep.passed)
                    for group in reports.values() for rep in group}

        assert table(checked.reports) == table(rec.reports)
        assert checked.skipped == rec.checks.skipped

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

    def test_solve_and_verify_print_checks_in_csv_order(self, tmp_path, capsys):
        # solve and verify --solution print the checks in ALL_CHECKS order,
        # the order of the records.csv rows, not sorted by name
        example = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
        out = tmp_path / "out"
        assert main(["solve", str(example), "-o", str(out)]) == EXIT_OK
        solved = capsys.readouterr().out
        assert main(["verify", str(example), "--solution", str(out / "solution.dat")]) == EXIT_OK
        verified = capsys.readouterr().out
        rows = csv.DictReader(line for line in (out / "records.csv").read_text().splitlines()
                              if not line.startswith("#"))
        names = [row["check_name"] for row in rows]
        for text in (solved, verified):
            assert [line.split(" lhs=")[0].split("] ", 1)[1]
                    for line in text.splitlines() if " lhs=" in line] == names

    # f(r_0) ~ 1.9e9 exceeds n_max = 2^30: the last level converges but
    # still clips the datum, so the problem was not solved
    CLIPPED = (MINIMAL.replace("p = 2.0", "p = 1.0").replace("M = 96", "M = 1024")
               .replace("datum = constant", "datum = radial_power\ndelta = 2.8")
               + f"\n[solver]\nn_max = {2**30}\n")

    def test_solve_fails_when_truncation_stays_active(self, tmp_path, capsys):
        conf, out = write_config(tmp_path, self.CLIPPED)
        assert dispatch("solve", parse_config(conf.read_text())) == EXIT_NOT_CONVERGED
        assert "converged=True truncation_active=True" in capsys.readouterr().out
        names = {p.name for p in out.iterdir()}
        assert {"solution.dat", "records.csv", "records.json",
                "summary.md", "plotdata"} <= names

    def test_sweep_fails_when_truncation_stays_active(self, tmp_path, capsys):
        # the one point converges but is not solved; sweep exited 0
        conf, out = write_config(tmp_path, self.CLIPPED + "\n[sweep]\nm = 1\n")
        assert dispatch("sweep", parse_config(conf.read_text())) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().out.startswith("1 runs, 1 converged, 0 solved")

    def test_verify_solution_fails_when_truncation_stays_active(self, tmp_path, capsys):
        # residual and every check pass on the stored field, but its level
        # still clips the datum; verify --solution exited 0
        conf, out = write_config(tmp_path, self.CLIPPED)
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_NOT_CONVERGED
        capsys.readouterr()
        assert dispatch("verify", cfg, solution_path=str(out / "solution.dat")) == \
            EXIT_CHECK_FAILED
        assert [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line] == \
            ["  [FAIL] truncation_active=True: the stored level clips the field or the datum"]

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

    # a solution file that cannot be read is a bad input (exit 3), not a
    # failed check (exit 1); None deletes the file
    UNREADABLE = {
        "missing": None,
        "garbage_line": lambda text: text + "garbage\n",
        "bad_n_final": lambda text: re.sub(r"# n_final .*", "# n_final abc", text),
        # not a level of the config's schedule, so no solve wrote it: below
        # its first level, between two of its levels, or above its n_max
        "zero_n_final": lambda text: re.sub(r"# n_final .*", "# n_final 0", text),
        "negative_n_final": lambda text: re.sub(r"# n_final .*", "# n_final -4", text),
        "off_schedule_n_final_3": lambda text: re.sub(r"# n_final .*", "# n_final 3", text),
        "off_schedule_n_final_5": lambda text: re.sub(r"# n_final .*", "# n_final 5", text),
        "above_n_max_n_final": lambda text: re.sub(
            r"# n_final .*", f"# n_final {2 * SolverConfig().n_max}", text),
        "non_finite_value": lambda text: text.rstrip("\n").rsplit(" ", 1)[0] + " nan\n",
    }

    @pytest.mark.parametrize("corruption", sorted(UNREADABLE))
    def test_verify_unreadable_solution_is_config_error(self, tmp_path, capsys, corruption):
        conf, out = write_config(tmp_path, MINIMAL)
        cfg = parse_config(conf.read_text())
        assert dispatch("solve", cfg) == EXIT_OK
        sol = out / "solution.dat"
        edit = self.UNREADABLE[corruption]
        if edit is None:
            sol.unlink()
        else:
            sol.write_text(edit(sol.read_text()))
        capsys.readouterr()
        assert dispatch("verify", cfg, solution_path=str(sol)) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "cannot read solution" in err[0], err

    def test_verify_against_non_finite_datum_is_config_error(self, tmp_path, capsys):
        # A r^-2 with A = 1e308 overflows at the first node of the stored
        # solution's mesh: no discrete problem exists to audit it against
        conf, out = write_config(tmp_path, MINIMAL)
        assert dispatch("solve", parse_config(conf.read_text())) == EXIT_OK
        huge = parse_config(MINIMAL.replace("datum = constant",
                                            "datum = radial_power\ndelta = 2.0")
                            .replace("amplitude = 1.0", "amplitude = 1e308"))
        capsys.readouterr()
        assert dispatch("verify", huge, solution_path=str(out / "solution.dat")) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "must be finite" in err[0], err

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

    def test_report_rejects_a_reference_to_no_earlier_solve(self, tmp_path, capsys):
        # a sweep over m stores each point at m = 2 as a reference to the
        # solve at m = 1; a reference whose solve is not earlier in the file
        # is a damaged file, and report leaves every output as it was
        conf, out = write_config(tmp_path, MINIMAL + "\n[sweep]\np = 1, 2\nm = 1, 2\n")
        cfg = parse_config(conf.read_text())
        assert dispatch("sweep", cfg) == EXIT_OK
        stored = out / "records.json"
        saved = json.loads(stored.read_text())
        assert [rec.get("shares") for rec in saved] == [None, "run_0000", None, "run_0002"]

        def outputs():
            paths = [out / "records.csv", out / "summary.md",
                     *sorted((out / "plotdata").iterdir())]
            return {path.name: path.read_bytes() for path in paths}

        before = outputs()
        for damaged in (saved[::-1], [*saved[:3], {**saved[3], "shares": "run_0009"}],
                        [*saved, {**saved[3], "shares": "run_0003"}]):
            stored.write_text(json.dumps(damaged))
            assert dispatch("report", cfg) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "ValueError" in err and "not an earlier solve" in err
            assert outputs() == before
        stored.write_text(json.dumps(saved))
        assert dispatch("report", cfg) == EXIT_OK
        after = outputs()
        assert after["records.csv"].split(b"\n", 1)[1] == before["records.csv"].split(b"\n", 1)[1]
        assert {**after, "records.csv": None} == {**before, "records.csv": None}

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

    # knobs that no config set are constants now (solver.EPS_P,
    # solver.SINGULAR_MARGIN, analysis.CHECK_TOLERANCE and its
    # neighbours), and every solve runs the whole audit, so [checks] is gone
    REMOVED_KEYS = [
        ("solver", "picard_tol", "1e-8"),
        ("solver", "eps_p", "1e-10"),
        ("solver", "singular_margin", "1e-12"),
        ("checks", "tolerance", "inf"),
        ("checks", "lambdas", "2, nan"),
        ("checks", "k_levels", "8"),
        ("checks", "tail_tolerance", "0.15"),
        ("checks", "enable", "all"),
    ]

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS,
                             ids=[key for _, key, _ in REMOVED_KEYS])
    def test_removed_picard_tol_rejected(self, tmp_path, capsys, section, key, value):
        conf, out = write_config(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        assert main(["solve", str(conf)]) == EXIT_CONFIG
        violation = ("unknown section [checks]" if section == "checks"
                     else f"unknown key {key!r} in section [{section}]")
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,violation", [
        ("datum = bump", "[problem] datum: unknown family 'bump'"),
        ("center = 0.5", "unknown key 'center' in section [problem]"),
        ("width = 0.1", "unknown key 'width' in section [problem]"),
    ], ids=["datum", "center", "width"])
    def test_removed_bump_datum_rejected(self, tmp_path, capsys, text, violation):
        conf, out = write_config(tmp_path, f"[problem]\np = 2.0\n{text}\n")
        assert main(["solve", str(conf)]) == EXIT_CONFIG
        assert f"config error: {violation}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_without_radial_power_rejected(self, tmp_path, capsys):
        # a constant datum ignored delta and the solve exited 0
        conf, out = write_config(tmp_path, "[problem]\np = 2.0\ndelta = 2.0\n")
        assert main(["solve", str(conf)]) == EXIT_CONFIG
        assert "config error: [problem] delta: only datum=radial_power takes delta\n" in \
            capsys.readouterr().err
        assert not out.exists()

    RADIAL = "[problem]\np = 2.0\ndatum = radial_power\ndelta = 1.0\nm = 2.0\n"

    @pytest.mark.parametrize("base,axes,worst", [
        # the point delta = 2, m = 2 ran on N = 3 and exited 0
        ("", "delta = 1.0, 2.0", "r^(-2.0) is not in L^2.0 of the 3-ball"),
        ("", "m = 1, 3", "r^(-1.0) is not in L^3.0 of the 3-ball"),
        ("N = 5\n", "N = 3, 5\ndelta = 1.0, 1.6", "r^(-1.6) is not in L^2.0 of the 3-ball"),
    ], ids=["delta", "m", "N"])
    def test_sweep_axes_keep_the_datum_in_its_class(self, tmp_path, capsys, base, axes, worst):
        conf, out = write_config(tmp_path, f"{self.RADIAL}{base}[sweep]\n{axes}\n")
        assert main(["sweep", str(conf)]) == EXIT_CONFIG
        assert (f"config error: [sweep] datum {worst} (needs delta*m < N at every point)\n"
                in capsys.readouterr().err)
        assert not out.exists()
        # every point in its class parses
        parse_config(f"{self.RADIAL}[sweep]\ndelta = 0.5, 1.4\nm = 1, 2\nN = 3, 4\n")

    @pytest.mark.parametrize("command,text,violation", [
        # numpy gives 1**nan = 1: a nan gamma solved as gamma = 0 and exited 0
        ("solve", "gamma = nan", "[problem] gamma: must be finite, got nan"),
        ("solve", "R = inf", "[problem] R: must be finite, got inf"),
        ("solve", "amplitude = nan", "[problem] amplitude: must be finite, got nan"),
        ("solve", "amplitude = inf", "[problem] amplitude: must be finite, got inf"),
        # an infinite alpha solved to a nan residual that counted as converged
        ("solve", "alpha = inf", "[problem] alpha: must be finite, got inf"),
        ("sweep", "[sweep]\ngamma = 0, inf", "[sweep] gamma: must be finite, got (0.0, inf)"),
        ("mms", "[mms]\namplitude = nan", "[mms] amplitude: must be finite, got nan"),
    ], ids=["gamma", "R", "amplitude-nan", "amplitude-inf", "alpha", "sweep-gamma",
            "mms-amplitude"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, command, text, violation):
        conf, out = write_config(tmp_path, f"[problem]\np = 2.0\n{text}\n")
        assert main([command, str(conf)]) == EXIT_CONFIG
        assert f"config error: {violation}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text,violation", [
        ("mms", "[mms]\nM_list = 4 8",
         "[mms] M_list: cell count must be an integer >= 8, got 4"),
        ("mms", "[mms]\nM_list = 64.7 128",
         "[mms] M_list: cell count must be an integer >= 8, got 64.7"),
        ("sweep", "[sweep]\nM = 64.7, 32",
         "[sweep] M: cell count must be an integer >= 8, got 64.7"),
        ("sweep", "[sweep]\nN = 3.5", "[sweep] N: dimension N must be an integer >= 3, got 3.5"),
        # as [mesh] M and [problem] N are; a point M = 4 was recorded under
        # the base mesh's M
        ("sweep", "[sweep]\nM = 4, 64", "[sweep] M: cell count must be an integer >= 8, got 4"),
        ("sweep", "[sweep]\nN = 2, 3", "[sweep] N: dimension N must be an integer >= 3, got 2"),
    ], ids=["M_list-below-8", "M_list-fraction", "sweep-M", "sweep-N", "sweep-M-below-8",
            "sweep-N-below-3"])
    def test_non_integer_counts_rejected(self, tmp_path, capsys, command, text, violation):
        conf, out = write_config(tmp_path, MINIMAL + f"\n{text}\n")
        assert main([command, str(conf)]) == EXIT_CONFIG
        assert f"config error: {violation}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base,axes,violation", [
        ("p = 2.0\n", "delta = 1.0, 2.0", "axis 'delta' requires a radial power datum"),
        ("sigma = 1.0\n", "p = 1, 2", "axis 'p' requires a power absorption base problem"),
        ("p = 2.0\n", "m = 0.5, 1", "Lebesgue class m must be >= 1, got 0.5"),
        ("p = 2.0\ndatum = radial_power\ndelta = 1.0\n", "delta = -1, 1.0",
         "delta must be positive, got -1.0"),
    ], ids=["delta-on-constant", "p-on-barrier", "m-below-1", "delta-nonpositive"])
    def test_sweep_points_that_cannot_be_built_rejected(self, tmp_path, capsys, base, axes,
                                                        violation):
        # each ran as a sweep of failed points and exited 2; the same
        # values under [problem] already exited 3
        key = axes.split(" ")[0]
        conf, out = write_config(tmp_path, f"[problem]\n{base}[mesh]\nM = 16\n"
                                 f"[sweep]\n{axes}\n")
        assert main(["sweep", str(conf)]) == EXIT_CONFIG
        assert f"config error: [sweep] {key}: {violation}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sweep_rejected(self, tmp_path, capsys):
        # the cap is on the product of the axis lengths, checked before any solve
        values = ", ".join(str(1 + i / 64) for i in range(65))
        conf, out = write_config(tmp_path, MINIMAL + f"\n[sweep]\np = {values}\nm = {values}\n")
        assert main(["sweep", str(conf)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: [sweep] sweep size 4225 exceeds cap {experiments.SWEEP_CAP}\n"
        assert not out.exists()

    def test_config_errors_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nN = 2\n")
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: [problem] dimension N must be an integer >= 3, got 2\n"

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


class TestStalledSolve:
    """A solve whose Newton iteration stalls below the schedule's top level
    (example.ini without absorption, gamma = 2, amplitude = 100, M = 256)
    exits 2 from solve and sweep and writes its flags, not an audit."""

    EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
    CHECKS = ("lemma", "bg", "weighted_energy", "truncation_energy", "linfty", "entropy",
              "marcinkiewicz")

    def config(self, tmp_path):
        """The stalled example; its [sweep] varies only m = 1, 1.5, 2."""
        head, sep, sweep = self.EXAMPLE.read_text().partition("[sweep]")
        for key, value in (("gamma", "2"), ("amplitude", "100"), ("M", "256")):
            head, count = re.subn(rf"^{key} = \S+", f"{key} = {value}", head, flags=re.M)
            assert count == 1, key
        head, count = re.subn(r"^p = ", "# p = ", head, flags=re.M)  # no absorption
        assert count == 1
        sweep, count = re.subn(r"^(gamma|p) = .*\n", "", sweep, flags=re.M)
        assert count == 2
        sweep, count = re.subn(r"^# (m = 1, 1\.5, 2)$", r"\1", sweep, flags=re.M)
        assert count == 1
        path = tmp_path / "stall.ini"
        path.write_text(head + sep + sweep)
        return path

    @staticmethod
    def rows(out):
        with open(out / "records.csv", newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))

    def test_solve_and_sweep_exit_2(self, tmp_path, capsys):
        conf = self.config(tmp_path)
        skips = [f"  [skip] {name}: solver did not converge" for name in self.CHECKS]

        out = tmp_path / "solve"
        assert main(["solve", str(conf), "-o", str(out)]) == EXIT_NOT_CONVERGED
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == skips
        assert re.fullmatch(r"converged=False truncation_active=False n_final=256 "
                            r"residual=\S+ stop=stalled", lines[-1]), lines[-1]
        assert not (out / "solution.dat").exists()
        (row,) = self.rows(out)
        assert {key: row[key] for key in ("n_final", "converged", "truncation_active",
                                          "hit_iteration_cap", "check_name", "passed")} == {
            "n_final": "256", "converged": "false", "truncation_active": "false",
            "hit_iteration_cap": "false", "check_name": "solve_failed", "passed": "false"}
        assert float(row["lhs"]) > 1.0  # the stalled residual

        # the three points share one discrete problem, and so one stalled
        # solve; each record is still flagged
        out = tmp_path / "sweep"
        assert main(["sweep", str(conf), "-o", str(out)]) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().out.startswith("3 runs, 0 converged")
        rows = self.rows(out)
        assert [row["m"] for row in rows] == ["1.0", "1.5", "2.0"]
        own = ("run_id", "m", "predicted_grad")  # what a point's m changes
        for sweep_row in rows:
            assert {key: sweep_row[key] for key in row if key not in own} == \
                {key: row[key] for key in row if key not in own}

    def test_stalled_solve_removes_an_older_solution(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(self.EXAMPLE), "-o", str(out)]) == EXIT_OK
        assert (out / "solution.dat").exists()
        assert main(["solve", str(self.config(tmp_path)), "-o", str(out)]) == \
            EXIT_NOT_CONVERGED
        assert [row["check_name"] for row in self.rows(out)] == ["solve_failed"]
        assert not (out / "solution.dat").exists()
        assert main(["verify", str(self.EXAMPLE),
                     "--solution", str(out / "solution.dat")]) == EXIT_CONFIG


class TestImports:
    # Run in a fresh interpreter: this process has long since loaded the
    # scipy subpackages that the CLI defers.
    PROGRAM = """
import sys
import degelab.cli
import degelab.solver
from degelab.grid import build_radial_grid
from degelab.problem import (CoefficientSpec, ConstantDatum, DatumSpec, PowerAbsorption,
                             ProblemSpec, RadialPowerDatum, datum_norm_exact)
spec = ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, 1.0), PowerAbsorption(1.0),
                   DatumSpec(ConstantDatum(5.0), 1.0))
def solve():
    grid = build_radial_grid(3, 1.0, 64)
    res = degelab.solver.truncation_continuation(grid, spec, degelab.solver.SolverConfig())
    return res.u.values.tobytes().hex()
print(solve())
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]))
print(build_radial_grid(3, 1.0, 64, grading=2.0).faces.tobytes().hex())
print(repr(datum_norm_exact(DatumSpec(RadialPowerDatum(2.0, 0.5), 1.5), 1.5, 3, 1.0)))
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
print(sys.modules["scipy.linalg.lapack"].dgtsv is degelab.solver.dgtsv)
print(solve())
"""

    def test_cli_import_defers_root_finder_and_quadrature(self):
        src = str(Path(degelab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", self.PROGRAM], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path},
                             timeout=120)
        assert run.returncode == 0, run.stderr
        (solved, before, linalg, faces, norm, after, same_dgtsv,
         resolved) = run.stdout.splitlines()
        assert before == "[]"
        # the solver loads LAPACK's extension by file, not scipy.linalg
        assert linalg == "['scipy.linalg._flapack']"
        assert faces == build_radial_grid(3, 1.0, 64, grading=2.0).faces.tobytes().hex()
        assert norm == repr(datum_norm_exact(DatumSpec(RadialPowerDatum(2.0, 0.5), 1.5),
                                             1.5, 3, 1.0))
        # the graded mesh loaded the root finder; no exact norm needs quadrature
        assert after == "['scipy.optimize']"
        # scipy.linalg, loaded later by the root finder, reuses that module
        assert same_dgtsv == "True"
        assert resolved == solved

    def test_package_imports_itself_only_relatively(self):
        # two source trees of the package can then be loaded side by side
        # under other names (to time one against the other in one
        # interpreter); an absolute import would load the other tree's module
        package = Path(degelab.__file__).resolve().parent
        absolute = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                absolute += [f"{path.name}:{node.lineno} {name}" for name in names
                             if name.partition(".")[0] == "degelab"]
        assert len(list(package.glob("*.py"))) >= 7
        assert absolute == []
        # the audit reads the discrete problem it is handed, not solver internals
        analysis = ast.parse((package / "analysis.py").read_text())
        assert not [node for node in ast.walk(analysis) if isinstance(node, ast.ImportFrom)
                    and "solver" in [node.module, *(alias.name for alias in node.names)]]

    def test_readme_quickstart_runs(self, capsys):
        # the README's library quickstart is the package namespace's one
        # documented use; run it as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md quickstart", "exec"), {})
        passed, slack = capsys.readouterr().out.split()
        assert passed == "True" and float(slack) > 0
