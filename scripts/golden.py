#!/usr/bin/env python3
"""Behaviour fingerprint of the solver and the audit over a fixed case list.

    python3 scripts/golden.py --write   # (re)write tests/golden/fingerprint.json
    python3 scripts/golden.py --check   # recompute and compare; exit 1 on a difference

Each case is one ``experiments.run_single`` with the whole audit:

- every gamma x p x m combination of the acceptance matrix at M = 256,
  once with the constant datum A = 2 and once with the radial datum
  r^(-delta), delta*m = 1.6;
- the entropy probe gamma = p = m = 1, delta = 2.6 at M = 512, 1024, 2048.

Per case the fingerprint holds the stop reason and truncation flag,
``n_final``, the Newton step count, each report's label, lhs, rhs and
verdict, the tail exponents (nan where a tail is insufficient) and the
skip reasons.  Two fingerprints agree when the flags, levels, steps,
labels, skips and verdicts are equal and every value agrees to
``REL_TOL`` relative.  A report within ``REL_TOL`` of its own pass/fail
edge, in either fingerprint, is listed under ``edge`` and compared by
value only.  The case list is this file's own, so no benchmark change
moves it.  A change that means to alter behaviour rewrites the file in
the same commit, and the file's diff lists what moved.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from degelab.experiments import MeshSpec, run_single  # noqa: E402
from degelab.problem import (  # noqa: E402
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
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
    return out


def _near_edge(rep) -> bool:
    """Whether the report's slack lies within REL_TOL of its tolerance."""
    return abs(rep.relative_slack + rep.tolerance) <= REL_TOL


def _exponent(fit) -> float:
    return fit.exponent if fit is not None and fit.sufficient else math.nan


def fingerprint() -> list[dict]:
    """One entry per case of :func:`cases`."""
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
    return out


def _close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL)


def compare(expected: list[dict], actual: list[dict]) -> list[str]:
    """Every difference between two fingerprints, one line each."""
    if [e["case"] for e in expected] != [a["case"] for a in actual]:
        return ["the case lists differ"]
    diffs = []
    for exp, act in zip(expected, actual):
        case = exp["case"]
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


def write(entries: list[dict], path: Path = GOLDEN_PATH) -> None:
    """One case per line, so the file diffs case by case."""
    path.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in entries)
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
