#!/usr/bin/env python3
"""Behaviour fingerprint of the solver and the audit over a fixed case list.

    python3 scripts/golden.py --write   # (re)write tests/golden/fingerprint.json
    python3 scripts/golden.py --check   # recompute and compare; exit 1 on a difference

Each case is one ``experiments.run_single`` with the whole audit:

- every gamma x p x m combination of the acceptance matrix at M = 256,
  once with the constant datum A = 2 and once with the radial datum
  r^(-delta), delta*m = 1.6;
- the entropy probe gamma = p = m = 1, delta = 2.6 at M = 512, 1024, 2048;
- one case per way a solve ends outside that matrix (``ENDINGS``): the
  barrier, no absorption solved and stalled, truncation active at the last
  level, and degeneracy gamma > 1 with power absorption.

Per case the fingerprint holds the stop reason and truncation flag,
``n_final``, the Newton step count, each report's label, lhs, rhs and
verdict, the tail exponents (nan where a tail is insufficient) and the
skip reasons.  Two fingerprints agree when the flags, levels, steps,
labels, skips and verdicts are equal and every value agrees to
``REL_TOL`` relative.  A report within ``REL_TOL`` of its own pass/fail
edge, in either fingerprint, is listed under ``edge`` and compared by
value only.

Last come the product cases (``PRODUCTS``): a command of ``degelab.cli``
on a shipped config, run in process into a temporary directory.  Each
holds the exit status and the tables the command wrote: the cells of
``records.csv`` (without its timestamp line), the table rows of
``summary.md`` and the cells of ``mms.csv``.  Two agree when the status
is equal and, cell by cell, strings are equal and numbers agree to
``REL_TOL`` relative; a ``slack`` cell, itself a relative difference,
agrees to ``REL_TOL`` absolute.

The case list is this file's own, so no benchmark change moves it.  A
change that means to alter behaviour rewrites the file in the same
commit, and the file's diff lists what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from degelab import cli  # noqa: E402
from degelab.experiments import MeshSpec, run_single  # noqa: E402
from degelab.problem import (  # noqa: E402
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    SingularAbsorption,
)
from degelab.solver import SolverConfig  # noqa: E402

GOLDEN_PATH = ROOT / "tests" / "golden" / "fingerprint.json"
REL_TOL = 1e-9

GAMMAS = (0.0, 0.5, 1.0)
PS = (0.5, 1.0, 2.0, 4.0)
MS = (1.0, 1.5, 2.0)
MATRIX_CELLS = 256
CONSTANT_AMPLITUDE = 2.0
RADIAL_DELTA_M = 1.6
PROBE_DELTA = 2.6
PROBE_CELLS = (512, 1024, 2048)

# (name, gamma, lower-order term, datum family, cell count); the comment
# says how each ends under the default SolverConfig
ENDINGS = (
    # converged in 4 steps
    ("barrier sigma=1 gamma=1 A=2 M=256", 1.0, SingularAbsorption(1.0),
     ConstantDatum(2.0), 256),
    # converged
    ("no absorption gamma=0.5 A=1 M=256", 0.5, NoAbsorption(), ConstantDatum(1.0), 256),
    # stalled after 76 steps
    ("no absorption gamma=2 A=100 M=256", 2.0, NoAbsorption(), ConstantDatum(100.0), 256),
    # truncation active at n_max = 2^200 after 229 steps
    ("no absorption gamma=2.27961 A=2.96725 delta=0.470959 M=64", 2.2796091049319673,
     NoAbsorption(), RadialPowerDatum(2.9672476893984823, 0.47095858995382195), 64),
    # degeneracy gamma > 1 with absorption: converged at n = 128 and 16384
    ("gamma=3 p=0.5 A=10 M=64", 3.0, PowerAbsorption(0.5), ConstantDatum(10.0), 64),
    ("gamma=2 p=0.5 A=100 M=256", 2.0, PowerAbsorption(0.5), ConstantDatum(100.0), 256),
)

# (command, config) of each product case
PRODUCTS = (
    ("solve", "configs/example.ini"),
    ("sweep", "configs/example.ini"),
    ("sweep", "configs/regime_sweep.ini"),
    ("mms", "configs/mms_upwind.ini"),
)


def cases() -> list[tuple[str, ProblemSpec, int]]:
    """(name, problem, cell count) of every case, in fingerprint order."""
    def problem(gamma, p, m, family):
        return ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma), PowerAbsorption(p),
                           DatumSpec(family, m))

    out = []
    for gamma, p, m in itertools.product(GAMMAS, PS, MS):
        delta = RADIAL_DELTA_M / m
        for label, family in ((f"A={CONSTANT_AMPLITUDE:g}", ConstantDatum(CONSTANT_AMPLITUDE)),
                              (f"delta={delta:.6g}", RadialPowerDatum(1.0, delta))):
            out.append((f"gamma={gamma:g} p={p:g} m={m:g} {label} M={MATRIX_CELLS}",
                        problem(gamma, p, m, family), MATRIX_CELLS))
    for cells in PROBE_CELLS:
        out.append((f"gamma=1 p=1 m=1 delta={PROBE_DELTA:g} M={cells}",
                    problem(1.0, 1.0, 1.0, RadialPowerDatum(1.0, PROBE_DELTA)), cells))
    for name, gamma, lower, family, cells in ENDINGS:
        out.append((name, ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma), lower,
                                      DatumSpec(family, 1.0)), cells))
    return out


def _near_edge(rep) -> bool:
    """Whether the report's slack lies within REL_TOL of its tolerance."""
    return abs(rep.relative_slack + rep.tolerance) <= REL_TOL


def _exponent(fit) -> float:
    return fit.exponent if fit is not None and fit.sufficient else math.nan


def _tables(out: Path) -> dict[str, list[list[str]]]:
    """The cells of every table a command wrote under ``out``."""
    tables = {}
    for name in ("records.csv", "mms.csv"):
        path = out / name
        if path.exists():
            lines = [line for line in path.read_text().splitlines()
                     if not line.startswith("#")]
            tables[name] = list(csv.reader(lines))
    path = out / "summary.md"
    if path.exists():
        tables["summary.md"] = [[cell.strip() for cell in line.strip("|").split("|")]
                                for line in path.read_text().splitlines()
                                if line.startswith("| ") and not line.startswith("| ---")]
    return tables


def product(command: str, config: str) -> dict:
    """One product case: ``degelab COMMAND CONFIG`` into a temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([command, str(ROOT / config), "-o", out])
        return {"case": f"{command} {config}", "exit": status, "tables": _tables(Path(out))}


def fingerprint() -> list[dict]:
    """One entry per case of :func:`cases`, then one per product case."""
    cfg = SolverConfig()
    out = []
    for name, spec, cells in cases():
        rec = run_single(spec, MeshSpec(cells), cfg)
        reports = [rep for group in rec.reports.values() for rep in group]
        out.append({
            "case": name,
            "stop": rec.flags.stop.value,
            "truncation_active": rec.truncation_active,
            "n_final": rec.n_final,
            "steps": rec.picard_iters,
            "reports": [[rep.label, rep.lhs, rep.rhs, rep.passed] for rep in reports],
            "edge": [rep.label for rep in reports if _near_edge(rep)],
            "tail_u": _exponent(rec.checks.tail_u),
            "tail_grad": _exponent(rec.checks.tail_grad),
            "skipped": rec.checks.skipped,
        })
    return out + [product(command, config) for command, config in PRODUCTS]


def _close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL,
                                                             abs_tol=abs_tol)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_tables(case: str, expected: dict, actual: dict) -> list[str]:
    """Every difference between two product cases' tables, one line each."""
    if expected.keys() != actual.keys():
        return [f"{case}: tables {sorted(expected)} -> {sorted(actual)}"]
    diffs = []
    for name, rows in expected.items():
        rows2 = actual[name]
        if len(rows) != len(rows2):
            diffs.append(f"{case}: {name} has {len(rows)} -> {len(rows2)} rows")
            continue
        slack = rows[0].index("slack") if rows and "slack" in rows[0] else None
        for i, (row, row2) in enumerate(zip(rows, rows2)):
            if len(row) != len(row2):
                diffs.append(f"{case}: {name} row {i} has {len(row)} -> {len(row2)} cells")
                continue
            for j, (cell, cell2) in enumerate(zip(row, row2)):
                x, y = _number(cell), _number(cell2)
                if cell != cell2 and (x is None or y is None or
                                      not _close(x, y, REL_TOL if j == slack else 0.0)):
                    diffs.append(f"{case}: {name} row {i} cell {j} {cell!r} -> {cell2!r}")
    return diffs


def compare(expected: list[dict], actual: list[dict]) -> list[str]:
    """Every difference between two fingerprints, one line each."""
    if [e["case"] for e in expected] != [a["case"] for a in actual]:
        return ["the case lists differ"]
    diffs = []
    for exp, act in zip(expected, actual):
        case = exp["case"]
        if "tables" in exp:
            if exp["exit"] != act["exit"]:
                diffs.append(f"{case}: exit {exp['exit']!r} -> {act['exit']!r}")
            diffs += _compare_tables(case, exp["tables"], act["tables"])
            continue
        for key in ("stop", "truncation_active", "n_final", "steps", "skipped"):
            if exp[key] != act[key]:
                diffs.append(f"{case}: {key} {exp[key]!r} -> {act[key]!r}")
        for key in ("tail_u", "tail_grad"):
            if not _close(exp[key], act[key]):
                diffs.append(f"{case}: {key} {exp[key]!r} -> {act[key]!r}")
        if [r[0] for r in exp["reports"]] != [r[0] for r in act["reports"]]:
            diffs.append(f"{case}: report labels differ")
            continue
        edge = set(exp["edge"]) | set(act["edge"])
        for (label, lhs, rhs, passed), (_, lhs2, rhs2, passed2) in zip(exp["reports"],
                                                                     act["reports"]):
            if not (_close(lhs, lhs2) and _close(rhs, rhs2)):
                diffs.append(f"{case}: {label} (lhs, rhs) ({lhs!r}, {rhs!r}) -> "
                             f"({lhs2!r}, {rhs2!r})")
            if passed != passed2 and label not in edge:
                diffs.append(f"{case}: {label} passed {passed} -> {passed2}")
    return diffs


def _dumps(entry: dict) -> str:
    """A run case on one line; a product case with one table row per line."""
    if "tables" not in entry:
        return json.dumps(entry, separators=(",", ":"))
    tables = ",".join(
        json.dumps(name) + ":[\n" + ",\n".join(json.dumps(row, separators=(",", ":"))
                                               for row in rows) + "\n]"
        for name, rows in entry["tables"].items())
    return (f'{{"case":{json.dumps(entry["case"])},"exit":{json.dumps(entry["exit"])},'
            f'"tables":{{{tables}}}}}')


def write(entries: list[dict], path: Path = GOLDEN_PATH) -> None:
    """One run case per line, and one product table row per line, so the
    file diffs case by case."""
    path.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(_dumps(entry) for entry in entries)
    path.write_text(f"[\n{body}\n]\n")


def load(path: Path = GOLDEN_PATH) -> list[dict]:
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"write {GOLDEN_PATH.name}")
    mode.add_argument("--check", action="store_true", help="compare against the file")
    args = ap.parse_args(argv)
    if args.write:
        write(fingerprint())
        return 0
    diffs = compare(load(), fingerprint())
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences from {GOLDEN_PATH.relative_to(ROOT)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
