#!/usr/bin/env python3
"""Print one sha256 per benchmark op, over everything the op's record holds.

    python3 scripts/record_digest.py --workload {matrix,probe} --seed N [--rounds R]

Runs the first R rounds of the seeded ``matrix`` or ``probe`` workload of
perfbench/workloads.py (each op one ``experiments.run_single`` with every
check) and prints, per op, a digest of the ``repr`` of the record's
payload without ``duration_s``, of its reports (the Marcinkiewicz gate's
verdict among them), its skips and its Marcinkiewicz report (the gate's
diagnostics).  Two source trees give the same output exactly when
every op's outputs are bit-identical, so comparing them is one ``diff``
of two runs of this script, one from each checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from degelab import experiments  # noqa: E402


def record_digest(rec) -> str:
    payload = {key: value for key, value in experiments._payload(rec).items()
               if key != "duration_s"}
    text = repr((payload, rec.reports, rec.skipped, rec.marcinkiewicz))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("matrix", "probe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    workload = {"matrix": workloads.Matrix, "probe": workloads.Probe}[args.workload](args.seed)
    op = 0
    for r in range(args.rounds):
        for item in workload.round(r):
            result = workload.run(item)
            digests = [record_digest(rec) for rec in result.records]
            print(f"{args.workload} seed {args.seed} op {op:04d} "
                  f"{' '.join(digests) or result.error}")
            op += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
