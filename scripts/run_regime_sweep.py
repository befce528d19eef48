#!/usr/bin/env python3
"""Sweep (p, m) across every regularity regime and emit the check reports.

The default axes hit both cases with integrable data only (m = 1) and all
three cases with better data (m > 1): entropy, distributional, and finite
energy. One CSV row per inequality per run lands in the output directory.
"""

import argparse

from degelab import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    PowerAbsorption,
    ProblemSpec,
)
from degelab.experiments import (
    MeshSpec,
    SweepSpec,
    emit_outputs,
    regime_label,
    run_sweep,
    save_records,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--cells", type=int, default=256)
    ap.add_argument("--out", default="out/regime_sweep")
    args = ap.parse_args()

    base = ProblemSpec(
        dimension=3, radius=1.0,
        coefficient=CoefficientSpec(1.0, 1.0, args.gamma),
        lower=PowerAbsorption(2.0),
        datum=DatumSpec(ConstantDatum(1.0), 1.0),
    )
    sweep = SweepSpec(
        base=base, mesh=MeshSpec(args.cells),
        axes={"p": (0.5, 1.0, 2.0, 3.0, 4.0), "m": (1.0, 1.5, 2.0)},
    )
    records = run_sweep(sweep)
    emit_outputs(records, args.out)
    save_records(records, f"{args.out}/records.json")

    print(f"{'run':>9} {'p':>5} {'m':>4}  {'case':<22} {'checks':>6} {'passed':>6}")
    for rec in records:
        n_checks = sum(len(g) for g in rec.reports.values())
        n_pass = sum(r.passed for g in rec.reports.values() for r in g)
        label = regime_label(rec.prediction, rec.problem.datum.m)
        print(f"{rec.run_id:>9} {rec.problem.lower.p:>5.2f} "
              f"{rec.problem.datum.m:>4.1f}  {label:<22} {n_checks:>6} {n_pass:>6}")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()
