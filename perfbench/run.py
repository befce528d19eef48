"""degelab benchmark: audited-solve throughput on three seeded workloads.

    python3 perfbench/run.py --workload {matrix,probe,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; degelab is imported from ./src.

Workloads (closed loops, one caller, one process; ``sweep`` forks at most
``nproc`` pool workers inside degelab).  Ops come in seeded rounds; a run
is a fixed number of whole rounds, ``--seconds`` over the workload's
nominal round time (at least its minimum), so the same seed and
``--seconds`` always replay the same ops and the same failures:
  matrix  op = one ``experiments.run_single`` with all checks on a seeded
          draw over gamma x p x m with a constant or radial-power datum,
          M = 256.  Many short solves; the only workload where the
          checkers (``analysis``) are a visible share.
  probe   op = one ``run_single`` at gamma = p = m = 1 with a radial-power
          datum, delta in [2.4, 2.8] near the L^1 edge, M cycling through
          512, 1024, 2048.  Dominated by the Picard/Newton nest.
  sweep   op = ``cli.main(["sweep", cfg, "-o", out])`` then ``report``, on
          a 36-point gamma x p x m config generated from
          configs/example.ini with a seeded constant amplitude, M = 256,
          parallelism 2.  Exercises pool orchestration and emission.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
setup_s (median over fresh interpreters of the time from process start to
degelab imported and inputs built), ops_per_s (ops over the summed
wall time of their rounds), op_s.p50 and op_s.tail.  op_s.tail is the
nearest-rank op time at a fixed percentile per workload: the highest of
p75, p90, p95, p99 that has ten or more samples above it at this run
length (p99 for matrix, p75 for probe and sweep, at ``--seconds 24``).
It is fixed rather than re-chosen per run so that it keeps its meaning
for any ``--seconds``.  ``failed`` counts ops that raised, exited
non-zero or returned an unconverged record; like ``attempted`` it is a
function of the seed and ``--seconds`` alone.  The printed
failed_ratio applies the audit rule: an op is also flagged when
a record is truncation-active, capped or not all-passed.  Flagged ops are
counted, never filtered or re-drawn; failed_ratio is printed but not
gated, because whether an op is flagged depends on where the seed's draws
fall against sharp thresholds, which makes it differ from seed to seed.

With ``--trace 1`` a fixed op set (the first rounds of the seed) is run
once untraced and twice traced (the first traced pass alternates op by op
with the untraced one), and the last line carries the per-layer metrics,
per op.  The two traced passes must agree on every count.  Spans
are written to perfbench/out/.

Both modes check outputs: converged residuals within the solver's own
tolerance, and (sweep) a records.csv body unchanged by ``report``.

Smoke test (one op per workload, both modes):
``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# degelab comes from the checkout's own source tree, never from elsewhere.
if not (ROOT / "src" / "degelab" / "__init__.py").is_file():
    raise SystemExit(f"no degelab source tree at {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
SETUP_REPEATS = 5
TRACE_SETUP_REPEATS = 3
TRACE_ROUNDS = {"matrix": 2, "probe": 1, "sweep": 4}
HARD_STOP_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
                    "op_s.tail": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "probe", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, workdir: Path, **kwargs):
    if name == "sweep":
        return workloads.Sweep(seed, workdir, ROOT / "configs" / "example.ini", **kwargs)
    return {"matrix": workloads.Matrix, "probe": workloads.Probe}[name](seed)


def measure_setup(name: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time from spawn to "ready" of fresh interpreters, and their
    ``import degelab.cli`` times."""
    setup, imports = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            import_line = child.stdout.readline()
            ready = child.stdout.readline()
            t1 = perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if code != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} before it was ready")
        setup.append(t1 - t0)
        imports.append(float(import_line.split()[1]))
    return setup, imports


def run_ops(workload, items):
    times, results = [], []
    for item in items:
        t0 = perf_counter()
        res = workload.run(item)
        times.append(perf_counter() - t0)
        results.append(res)
    return times, results


def planned_rounds(workload, seconds: float) -> int:
    """Rounds in a run: ``seconds`` of rounds at the workload's nominal
    round time, and at least ``workload.min_rounds``.

    The count depends on ``seconds`` only, never on a clock, so a seed
    replays the same ops, and the same failures, on every run.
    """
    return max(workload.min_rounds, round(seconds / workload.round_s))


def closed_loop(workload, seconds: float, max_ops: int | None = None):
    """The planned whole rounds (or the first ``max_ops`` ops of them).

    A run that takes longer than HARD_STOP_S stops after the round in
    progress and says so; that happens only on a machine several times
    slower than the one the round times were measured on.

    Returns op times, op results and (ops, seconds) per round.
    """
    times, results, rounds = [], [], []
    planned = planned_rounds(workload, seconds)
    t_start = perf_counter()
    for r in range(planned):
        items = workload.round(r)
        if max_ops is not None:
            items = items[:max_ops - len(times)]
        t0 = perf_counter()
        t, res = run_ops(workload, items)
        rounds.append((len(items), perf_counter() - t0))
        times += t
        results += res
        if max_ops is not None and len(times) >= max_ops:
            break
        if perf_counter() - t_start > HARD_STOP_S and r + 1 < planned:
            say("STOPPED EARLY", f"after {r + 1} of {planned} rounds, "
                f"{perf_counter() - t_start:.1f} s")
            break
    return times, results, rounds


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank op time at ``percentile`` and the samples above it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def output_checks(workload, results) -> list[str]:
    """Residual contract of every converged record the ops returned."""
    records = [rec for res in results for rec in res.records]
    problems = workloads.residual_violations(records, workload.cfg.newton_tol)
    say("check residual <= newton_tol*(1+|T_n f|_inf)",
        f"{sum(rec.converged for rec in records)} converged records, "
        f"{len(problems)} violations")
    return problems


def provenance(workload, seed: int) -> dict:
    return {"seed": seed, "workload": workload.name, "op": workload.op,
            "generator": workload.params(), "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "load": "one process, closed loop, one caller; sweep adds at most "
                    "nproc pool workers"}


def say(label: str, value) -> None:
    print(f"{label}: {value}", flush=True)


def end_to_end(args, workdir: Path, max_ops=None, setup_repeats=SETUP_REPEATS) -> dict:
    setup, _ = measure_setup(args.workload, args.seed, setup_repeats)
    workload = make_workload(args.workload, args.seed, workdir)
    say("provenance", json.dumps(provenance(workload, args.seed)))

    problems = []
    if args.workload == "sweep":
        trip = workload.round_trip()  # also the warm-up op
        problems += output_checks(workload, [workloads.OpResult(records=trip["records"])])
        if not trip["csv_identical"]:
            problems.append("records.csv body changed when report re-emitted it")
        say("check records.csv body identical after report", trip["csv_identical"])
        say("check summary.md identical after report (not counted)",
            trip["summary_identical"])
    else:
        run_ops(workload, workload.round(0)[:1])  # warm-up

    times, results, rounds = closed_loop(workload, args.seconds, max_ops)
    elapsed = sum(seconds for _, seconds in rounds)
    problems += output_checks(workload, results)
    n = len(times)
    failed = sum(res.failed for res in results)
    flagged = sum(res.flagged for res in results)
    tail_s, beyond = tail(times, workload.tail_percentile)
    round0 = len(workload.round(0))
    first = [item for i, res in enumerate(results[:round0])
             for item in workloads.verdicts(i, res.records)]
    say("ops", f"{n} in {elapsed:.3f} s, {failed} failed outright")
    say("op_s.tail percentile", f"p{workload.tail_percentile:g} of n={n}, "
        f"{beyond} samples above it")
    say("verdict digest of round 0", f"{workloads.verdict_digest(first)} "
        f"({len(first)} verdicts, {min(n, round0)} ops)")
    for problem in problems:
        say("CHECK FAILED", problem)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / elapsed,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
    }
    counts = {"setup_s": len(setup), "ops_per_s": n, "op_s.p50": n, "op_s.tail": n}
    for name, value in metrics.items():
        say(name, f"{value!r} {END_TO_END_UNITS[name]} (n={counts[name]})")
    say("failed_ratio", f"{flagged / n!r} ratio ({flagged} of {n} ops flagged by the "
        "audit rule; not a gated metric)")
    return {"correct": not problems, "attempted": n, "failed": failed,
            "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()}}


def traced_pass(workload, items):
    with tracing.Tracer() as tracer:
        times, results = [], []
        for i, item in enumerate(items):
            tracer.op = i
            t, res = run_ops(workload, [item])
            times += t
            results += res
    return tracer, times, results


def paired_pass(workload, items):
    """Each op untraced, then traced, so that the machine's slow drift
    cancels out of trace.overhead."""
    tracer = tracing.Tracer()
    untraced_t, traced_t, untraced, traced = [], [], [], []
    for i, item in enumerate(items):
        t, res = run_ops(workload, [item])
        untraced_t += t
        untraced += res
        tracer.op = i
        with tracer:
            t, res = run_ops(workload, [item])
        traced_t += t
        traced += res
    return tracer, untraced_t, traced_t, untraced, traced


def repeat_problems(label, first, second) -> list[str]:
    """Counts and verdicts of two traced passes over the same ops must match."""
    out = []
    (tr1, res1), (tr2, res2) = first, second
    c1, c2 = tracing.counts(tr1, res1), tracing.counts(tr2, res2)
    for key in sorted(set(c1) | set(c2)):
        if c1.get(key) != c2.get(key):
            out.append(f"{label}: count {key} differs between traced passes: "
                       f"{c1.get(key)} vs {c2.get(key)}")
    d1, d2 = (workloads.verdict_digest([v for i, r in enumerate(res) for v in
                                        workloads.verdicts(i, r.records)])
              for res in (res1, res2))
    if d1 != d2:
        out.append(f"{label}: verdict digest differs between traced passes")
    say(f"check {label} counts repeat across two traced passes",
        f"{len(c1)} counts and digest {d1} compared, {len(out)} differ")
    return out


def per_layer(args, workdir: Path, max_ops=None,
              setup_repeats=TRACE_SETUP_REPEATS) -> dict:
    _, imports = measure_setup(args.workload, args.seed, setup_repeats)
    workload = make_workload(args.workload, args.seed, workdir)
    say("provenance", json.dumps(provenance(workload, args.seed)))
    rounds = range(TRACE_ROUNDS[args.workload])
    items = [item for r in rounds for item in workload.round(r)][:max_ops]

    run_ops(workload, items[:1])  # warm-up
    tr1, untraced_t, traced_t, untraced, res1 = paired_pass(workload, items)
    tr2, _, res2 = traced_pass(workload, items)
    problems = output_checks(workload, untraced + res1 + res2)
    problems += repeat_problems(args.workload, (tr1, res1), (tr2, res2))
    metrics = tracing.layer_metrics(tr1, res1)
    tr1.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    if args.workload == "sweep":
        # Pool workers' spans never reach this process, so the per-point
        # split comes from the same generated sweep run serially.
        serial = make_workload("sweep", args.seed, workdir, parallelism=1)
        serial_items = [item for r in rounds for item in serial.round(r)][:max_ops]
        str1, _, serial_traced_t, serial_untraced, sres1 = paired_pass(serial, serial_items)
        str2, _, sres2 = traced_pass(serial, serial_items)
        problems += output_checks(serial, serial_untraced + sres1 + sres2)
        problems += repeat_problems("sweep at parallelism 1", (str1, sres1), (str2, sres2))
        serial_metrics = tracing.layer_metrics(str1, sres1)
        metrics.update({k: v for k, v in serial_metrics.items()
                        if k.startswith(tracing.POINT_LAYERS)})
        str1.write(OUT / f"spans-sweep-p1-seed{args.seed}.jsonl")
        parallel_s = sum(res.sweep_s for res in untraced)
        busy = sum(rec.duration_s for res in untraced for rec in res.records)
        metrics["experiments.sweep_busy_ratio"] = busy / (workload.parallelism * parallel_s)
        metrics["experiments.parallel_speedup"] = (
            sum(res.sweep_s for res in serial_untraced) / parallel_s)

    say("capped levels against records flagged hit_iteration_cap",
        f"{tr1.counters['capped_levels']} levels hit picard_max; "
        f"{sum(rec.hit_iteration_cap for res in res1 for rec in res.records)} "
        f"of {sum(len(res.records) for res in res1)} records say so")
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead"] = sum(traced_t) / sum(untraced_t) - 1.0
    say("traced ops", f"{len(items)}, untraced {sum(untraced_t):.3f} s, "
        f"traced {sum(traced_t):.3f} s")
    say("self-time share by layer", json.dumps(tracing.layer_shares(tr1, sum(traced_t))))
    if args.workload == "sweep":
        say("self-time share by layer at parallelism 1",
            json.dumps(tracing.layer_shares(str1, sum(serial_traced_t))))
    for problem in problems:
        say("CHECK FAILED", problem)
    for name, value in metrics.items():
        say(name, f"{value!r} {tracing.UNITS[name]}")
    return {"correct": not problems, "attempted": len(res1),
            "failed": sum(res.failed for res in res1),
            "metrics": {name: {"value": value, "unit": tracing.UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = per_layer(args, workdir)
        else:
            result = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
