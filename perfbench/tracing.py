"""In-memory span tracing of degelab's public functions, from the outside.

The tracer replaces a function in the module namespace that calls it
(``degelab.solver.tridiag_solve`` is looked up in ``degelab.solver`` by
``newton_semilinear``), records one span per call and restores the
originals on exit.  Nothing in ``src/`` knows about it.

A span is (id, name, start, end, parent id, op id).  Spans nest strictly
because one thread makes every call, so a span's self time is its duration
minus the summed durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import degelab.analysis as analysis
import degelab.cli as cli
import degelab.experiments as experiments
import degelab.solver as solver
from degelab.grid import GridFunction

import workloads

# Bytes a tridiagonal solve touches, computed from array sizes (8-byte
# floats): sub, diag, sup and rhs read, the 3xM banded copy written and
# read, the solution written.  Cache behaviour is not measured.
TRIDIAG_BYTES_PER_ROW = 8 * (4 + 2 * 3 + 1)


class Tracer:
    """Wraps functions for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- instrumentation ------------------------------------------------
    def wrap(self, name, fn, observe=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                spans.append((sid, name, t0, t1, dur - frame[2],
                              parent[0] if parent else -1,
                              parent[1] if parent else "", self.op))
            if observe is not None:
                observe(self.counters, args, out)
            return out

        return traced

    def patch(self, module, attr, name, observe=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, observe))

    def __enter__(self):
        for module, attr, name, observe in _TARGETS:
            self.patch(module, attr, name, observe)
        original_init = GridFunction.__post_init__
        self._saved.append((GridFunction, "__post_init__", original_init))
        GridFunction.__post_init__ = self.wrap("grid.GridFunction", original_init)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # -- aggregation ----------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = {}
        for _, name, t0, t1, self_s, _, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += self_s
        return out

    def child_calls(self, child: str, parent: str) -> int:
        return sum(1 for span in self.spans if span[1] == child and span[6] == parent)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, _, parent, _, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def _file_bytes(paths: dict) -> int:
    total = sum(Path(paths[key]).stat().st_size for key in ("csv", "summary"))
    return total + sum(f.stat().st_size for f in Path(paths["plotdata"]).iterdir())


def _observe_emit(counters, args, paths):
    counters["bytes_written"] += _file_bytes(paths)


def _observe_save(counters, args, result):
    counters["bytes_written"] += Path(args[1]).stat().st_size


def _observe_picard(counters, args, result):
    counters["levels"] += 1
    counters["picard_sweeps"] += result.picard_iters
    counters["capped_levels"] += int(result.flags.hit_iteration_cap)


def _observe_newton(counters, args, result):
    counters["newton_steps"] += result[1]


def _observe_tridiag(counters, args, result):
    counters["tridiag_bytes"] += TRIDIAG_BYTES_PER_ROW * args[0].grid.M


# (module, attribute, span name, observer): each function is patched in the
# namespace of its callers; the span name says which layer it belongs to.
_TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "run_sweep", "experiments.run_sweep", None),
    (cli, "emit_outputs", "experiments.emit_outputs", _observe_emit),
    (cli, "save_records", "experiments.save_records", _observe_save),
    (cli, "emit_from_saved", "experiments.emit_from_saved", _observe_emit),
    (experiments, "run_single", "experiments.run_single", None),
    (experiments, "build_radial_grid", "grid.build_radial_grid", None),
    (experiments, "face_gradient", "grid.face_gradient", None),
    (experiments, "truncation_continuation", "solver.truncation_continuation", None),
    (experiments, "check_lemma_estimate", "analysis.check_lemma_estimate", None),
    (experiments, "check_bg_estimate", "analysis.check_bg_estimate", None),
    (experiments, "check_weighted_energy", "analysis.check_weighted_energy", None),
    (experiments, "check_truncation_energy", "analysis.check_truncation_energy", None),
    (experiments, "check_entropy_inequality", "analysis.check_entropy_inequality", None),
    (experiments, "verify_marcinkiewicz_lemma", "analysis.verify_marcinkiewicz_lemma",
     None),
    (experiments, "distribution_function", "analysis.distribution_function", None),
    (experiments, "tail_exponent_fit", "analysis.tail_exponent_fit", None),
    (analysis, "distribution_function", "analysis.distribution_function", None),
    (analysis, "tail_exponent_fit", "analysis.tail_exponent_fit", None),
    (analysis, "face_gradient", "grid.face_gradient", None),
    (analysis, "lower_order_eval", "problem.lower_order_eval", None),
    (solver, "picard_solve", "solver.picard_solve", _observe_picard),
    (solver, "newton_semilinear", "solver.newton_semilinear", _observe_newton),
    (solver, "assemble_frozen", "solver.assemble_frozen", None),
    (solver, "apply_operator", "solver.apply_operator", None),
    (solver, "tridiag_solve", "solver.tridiag_solve", _observe_tridiag),
    (solver, "coefficient_eval", "problem.coefficient_eval", None),
    (solver, "lower_order_eval", "problem.lower_order_eval", None),
]


# Per-layer metric -> unit.  Every value is per op of the traced pass,
# except the ratios and cli.import_s.
UNITS = {
    "solver.truncation_continuation.s": "s/op",
    "solver.levels": "count/op",
    "solver.capped_levels": "count/op",
    "solver.picard_sweeps": "count/op",
    "solver.newton_steps": "count/op",
    "solver.picard_solve.self_s": "s/op",
    "solver.newton_semilinear.self_s": "s/op",
    "solver.assemble_frozen.calls": "calls/op",
    "solver.assemble_frozen.s": "s/op",
    "solver.tridiag_solve.calls": "calls/op",
    "solver.tridiag_solve.s": "s/op",
    "solver.tridiag_solve.computed_bytes": "B/op",
    "solver.apply_operator.calls": "calls/op",
    "solver.apply_operator.s": "s/op",
    "solver.linesearch_trials": "count/op",
    "solver.step_accept_ratio": "ratio",
    "grid.GridFunction.calls": "calls/op",
    "grid.build_radial_grid.calls": "calls/op",
    "grid.build_radial_grid.s": "s/op",
    "grid.face_gradient.calls": "calls/op",
    "grid.face_gradient.s": "s/op",
    "problem.coefficient_eval.calls": "calls/op",
    "problem.coefficient_eval.s": "s/op",
    "problem.lower_order_eval.calls": "calls/op",
    "problem.lower_order_eval.s": "s/op",
    "analysis.check_lemma_estimate.s": "s/op",
    "analysis.check_bg_estimate.s": "s/op",
    "analysis.check_weighted_energy.s": "s/op",
    "analysis.check_truncation_energy.s": "s/op",
    "analysis.check_entropy_inequality.s": "s/op",
    "analysis.verify_marcinkiewicz_lemma.s": "s/op",
    "analysis.distribution_function.s": "s/op",
    "analysis.tail_exponent_fit.s": "s/op",
    "analysis.reports": "count/op",
    "analysis.reports_failed": "count/op",
    "experiments.run_single.self_s": "s/op",
    "experiments.run_sweep.s": "s/op",
    "experiments.sweep_busy_ratio": "ratio",
    "experiments.parallel_speedup": "ratio",
    "experiments.emit_outputs.s": "s/op",
    "experiments.save_records.s": "s/op",
    "experiments.emit_from_saved.s": "s/op",
    "experiments.bytes_written": "B/op",
    "cli.import_s": "s",
    "cli.parse_config.s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead": "ratio",
}

# Layers whose spans a parallel sweep hides in its pool workers.
POINT_LAYERS = ("solver.", "grid.", "problem.", "analysis.", "experiments.run_single")


def _linesearch_trials(tracer: Tracer, totals) -> int:
    """Residual evaluations inside Newton beyond the first one per call."""
    newton = totals.get("solver.newton_semilinear", {}).get("calls", 0)
    return tracer.child_calls("solver.apply_operator", "solver.newton_semilinear") - newton


def layer_metrics(tracer: Tracer, results) -> dict[str, float]:
    """Per-op layer metrics of one traced pass over ``results``' ops.

    experiments.sweep_busy_ratio, experiments.parallel_speedup,
    cli.import_s and trace.overhead need other passes; they start at 0.
    """
    n = len(results)
    totals = tracer.totals()
    counters = tracer.counters
    out = {name: 0.0 for name in UNITS}
    for name in UNITS:
        for suffix in (".calls", ".self_s", ".s"):
            span = name[:-len(suffix)]
            if name.endswith(suffix) and span in totals:
                out[name] = totals[span][suffix[1:]] / n
                break
    out["solver.levels"] = counters["levels"] / n
    out["solver.capped_levels"] = counters["capped_levels"] / n
    out["solver.picard_sweeps"] = counters["picard_sweeps"] / n
    out["solver.newton_steps"] = counters["newton_steps"] / n
    out["solver.tridiag_solve.computed_bytes"] = counters["tridiag_bytes"] / n
    trials = _linesearch_trials(tracer, totals)
    out["solver.linesearch_trials"] = trials / n
    out["solver.step_accept_ratio"] = counters["newton_steps"] / trials if trials else 0.0
    out["experiments.bytes_written"] = counters["bytes_written"] / n
    reports, failed = workloads.report_counts([rec for res in results for rec in res.records])
    out["analysis.reports"] = reports / n
    out["analysis.reports_failed"] = failed / n
    return out


def layer_shares(tracer: Tracer, op_seconds: float) -> dict[str, float]:
    """Share of traced op time spent in each layer's own code (self time);
    "untraced" is op time outside every span, benchmark code included."""
    shares: Counter = Counter()
    for name, row in tracer.totals().items():
        shares[name.split(".")[0]] += row["self_s"] / op_seconds
    shares["untraced"] = 1.0 - sum(shares.values())
    return {layer: round(share, 4) for layer, share in sorted(shares.items())}


def counts(tracer: Tracer, results) -> dict[str, int]:
    """Every count of a traced pass that must repeat exactly for the same ops.

    Bytes written are left out: records.json holds measured durations.
    """
    totals = tracer.totals()
    out = {f"{name}.calls": row["calls"] for name, row in totals.items()}
    out.update({key: value for key, value in tracer.counters.items()
                if key != "bytes_written"})
    out["linesearch_trials"] = _linesearch_trials(tracer, totals)
    out["reports"], out["reports_failed"] = workloads.report_counts(
        [rec for res in results for rec in res.records])
    return out
