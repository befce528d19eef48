"""Seeded inputs, the op of each workload, the failure rule and output checks.

Every workload is a closed loop with one caller in one process.  Its ops
come in rounds: ``round(r)`` is a pure function of (seed, r), so the same
seed replays the same ops.  ``round_s`` is a round's nominal wall time,
measured on a 2-core Intel Xeon VM in its slowest state seen; a run plans
``--seconds / round_s`` rounds from it.  Continuous parameters are drawn
as seeded low-discrepancy sequences (a seed-drawn offset plus r times an
irrational step, mod 1), which keeps the mix of cheap, costly and failing
ops nearly the same on every seed; nothing is filtered or re-drawn.

degelab receives only the generated problems and config files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import degelab.cli as cli
import degelab.experiments as experiments
from degelab.grid import build_radial_grid
from degelab.problem import (
    CoefficientSpec,
    ConstantDatum,
    DatumSpec,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    datum_eval,
)
from degelab.solver import SolverConfig

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Acceptance-matrix axes.  Radial-power data keep delta*m in [0.8, 2.4],
# inside the L^m range delta*m < N = 3.
MATRIX_GAMMAS = (0.0, 0.5, 1.0)
MATRIX_PS = (0.5, 1.0, 2.0, 4.0)
MATRIX_MS = (1.0, 1.5, 2.0)
MATRIX_CELLS = 256
MATRIX_AMPLITUDE = (0.5, 5.0)
MATRIX_DELTA_M = (0.8, 2.4)

# Entropy probe near the L^1 edge delta = 3 (gamma = p = m = 1).
PROBE_DELTA = (2.4, 2.8)
PROBE_CELLS = (512, 1024, 2048)

# Regime sweep generated from configs/example.ini.
SWEEP_AXES = {"gamma": "0, 0.5, 1", "p": "0.5, 1, 2, 4", "m": "1, 1.5, 2"}
SWEEP_AMPLITUDE = (0.5, 5.0)
SWEEP_PARALLELISM = min(2, os.cpu_count() or 1)


def _frac(x: float) -> float:
    return x - math.floor(x)


def _power_problem(gamma, p, m, family) -> ProblemSpec:
    return ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, gamma),
                       PowerAbsorption(p), DatumSpec(family, m))


@dataclass
class OpResult:
    """What one op produced: its records, exit codes and any exception."""

    records: list = field(default_factory=list)
    exit_codes: tuple[int, ...] = ()
    error: str | None = None
    sweep_s: float = math.nan  # wall time of run_sweep inside the op

    @property
    def failed(self) -> bool:
        """The op produced no solved result: it raised, a CLI command exited
        non-zero, or a record did not converge."""
        return (self.error is not None or any(self.exit_codes)
                or any(not rec.converged for rec in self.records))

    @property
    def flagged(self) -> bool:
        """The audit failure rule: failed, or a record is truncation-active,
        hit an iteration cap or did not pass every check."""
        return self.failed or any(
            rec.truncation_active or rec.hit_iteration_cap or not rec.all_passed
            for rec in self.records)


class Matrix:
    """One ``experiments.run_single`` per op over the acceptance-matrix axes."""

    name = "matrix"
    op = "one experiments.run_single call with all checks"
    min_rounds = 1
    tail_percentile = 99.0
    round_s = 0.83

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.combos = list(itertools.product(MATRIX_GAMMAS, MATRIX_PS, MATRIX_MS))
        self.offsets = [rng.random() for _ in self.combos]
        self.cfg = SolverConfig()
        self.mesh = experiments.MeshSpec(MATRIX_CELLS)

    def params(self) -> dict:
        return {"gamma": MATRIX_GAMMAS, "p": MATRIX_PS, "m": MATRIX_MS,
                "M": MATRIX_CELLS, "datum": "constant or radial_power, 1:1",
                "constant_amplitude": MATRIX_AMPLITUDE,
                "radial_power_delta_times_m": MATRIX_DELTA_M,
                "ops_per_round": len(self.combos)}

    def round(self, r: int) -> list[ProblemSpec]:
        """One draw per combo.  A single sequence per combo picks both the
        family (lower half: constant) and its parameter, so every combo's
        costly corner (radial data near the top of the delta*m range) comes
        up in the same share of rounds on every seed."""
        specs = []
        for (gamma, p, m), offset in zip(self.combos, self.offsets):
            w = 2.0 * _frac(offset + r * GOLDEN)
            if w < 1.0:
                lo, hi = MATRIX_AMPLITUDE
                family = ConstantDatum(lo + (hi - lo) * w)
            else:
                lo, hi = MATRIX_DELTA_M
                family = RadialPowerDatum(1.0, (lo + (hi - lo) * (w - 1.0)) / m)
            specs.append(_power_problem(gamma, p, m, family))
        return specs

    def run(self, spec: ProblemSpec) -> OpResult:
        return _run_single(spec, self.mesh, self.cfg)


class Probe:
    """One ``experiments.run_single`` per op on the delta -> 3 entropy probe."""

    name = "probe"
    op = Matrix.op
    # A third of the ops (M = 2048) take ~10x the others.  With 42 ops or
    # more the p75 op has ten or more above it and lies in that class.
    min_rounds = 14
    tail_percentile = 75.0
    round_s = 3.6

    def __init__(self, seed: int):
        self.offset = random.Random(seed).random()
        self.cfg = SolverConfig()

    def params(self) -> dict:
        return {"gamma": 1.0, "p": 1.0, "m": 1.0, "datum": "radial_power",
                "delta": PROBE_DELTA, "M_cycle": PROBE_CELLS,
                "ops_per_round": len(PROBE_CELLS)}

    def round(self, r: int) -> list[tuple[ProblemSpec, int]]:
        lo, hi = PROBE_DELTA
        ops = []
        for j, cells in enumerate(PROBE_CELLS):
            k = r * len(PROBE_CELLS) + j
            delta = lo + (hi - lo) * _frac(self.offset + k * GOLDEN)
            ops.append((_power_problem(1.0, 1.0, 1.0, RadialPowerDatum(1.0, delta)), cells))
        return ops

    def run(self, item) -> OpResult:
        spec, cells = item
        return _run_single(spec, experiments.MeshSpec(cells), self.cfg)


def _run_single(spec, mesh, cfg) -> OpResult:
    try:
        rec = experiments.run_single(spec, mesh, cfg)
    except Exception as err:  # a raising op is a failed op, not a crash
        return OpResult(error=f"{type(err).__name__}: {err}")
    return OpResult(records=[rec])


class SweepCapture:
    """Keeps the records and wall time of the last ``run_sweep`` the CLI made.

    The CLI writes records to disk only in serialized form; the residual
    check needs the in-memory records, so ``cli.run_sweep`` is replaced by
    this pass-through around each op (two clock reads per op).  It wraps
    whatever ``cli.run_sweep`` is on entry, so it nests inside tracing.
    """

    def __init__(self):
        self.original = None
        self.records: list = []
        self.seconds = math.nan

    def __call__(self, sweep):
        t0 = perf_counter()
        self.records = self.original(sweep)
        self.seconds = perf_counter() - t0
        return self.records

    def __enter__(self):
        self.original = cli.run_sweep
        cli.run_sweep = self
        return self

    def __exit__(self, *exc):
        cli.run_sweep = self.original
        return False


def sweep_config_text(template: str, amplitude: float, parallelism: int) -> str:
    """example.ini with the datum amplitude, sweep axes and parallelism set."""
    head, sep, sweep = template.partition("[sweep]")
    if not sep:
        raise ValueError("config template has no [sweep] section")
    head = _set_key(head, "amplitude", repr(amplitude))
    for axis, values in SWEEP_AXES.items():
        sweep = _set_key(sweep, axis, values)
    return head + sep + _set_key(sweep, "parallelism", str(parallelism))


def _set_key(text: str, key: str, value: str) -> str:
    """Set the first ``key = ...`` line, commented out or not, to value."""
    text, count = re.subn(rf"^#? ?{key} = [^#\n]*", f"{key} = {value} ", text,
                          count=1, flags=re.M)
    if count != 1:
        raise ValueError(f"config template has no {key!r} line")
    return text


class Sweep:
    """``degelab sweep`` then ``degelab report`` through ``cli.main`` per op."""

    name = "sweep"
    op = "cli.main sweep then cli.main report on one generated 36-point config"
    min_rounds = 1
    tail_percentile = 75.0
    round_s = 0.48

    def __init__(self, seed: int, workdir: Path, template: Path,
                 parallelism: int = SWEEP_PARALLELISM):
        self.offset = random.Random(seed).random()
        self.template = template.read_text()
        self.workdir = workdir
        self.parallelism = parallelism
        self.out = workdir / f"out_p{parallelism}"
        config = cli.parse_config(self.round(0)[0][0].read_text())
        if math.prod(map(len, config.sweep_axes.values())) != 36:
            raise ValueError("generated config does not define a 36-point sweep")
        self.cfg = config.solver
        self.cells = config.mesh.cells
        self.capture = SweepCapture()

    def params(self) -> dict:
        return {"axes": SWEEP_AXES, "datum": "constant", "amplitude": SWEEP_AMPLITUDE,
                "M": self.cells, "parallelism": self.parallelism, "ops_per_round": 1}

    def round(self, r: int) -> list[tuple[Path, Path]]:
        """One op per round; its config file is written on first use."""
        path = self.workdir / f"sweep_{r}_p{self.parallelism}.ini"
        if not path.exists():
            lo, hi = SWEEP_AMPLITUDE
            amplitude = lo + (hi - lo) * _frac(self.offset + r * GOLDEN)
            path.write_text(sweep_config_text(self.template, amplitude, self.parallelism))
        return [(path, self.out)]

    def run(self, item) -> OpResult:
        cfg, out = item
        try:
            with self.capture, contextlib.redirect_stdout(io.StringIO()):
                codes = (cli.main(["sweep", str(cfg), "-o", str(out)]),
                         cli.main(["report", str(cfg), "-o", str(out)]))
        except Exception as err:
            return OpResult(error=f"{type(err).__name__}: {err}")
        return OpResult(records=list(self.capture.records), exit_codes=codes,
                        sweep_s=self.capture.seconds)

    def round_trip(self) -> dict:
        """One sweep op with outputs snapshotted between sweep and report."""
        cfg, out = self.round(0)[0]
        with self.capture, contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["sweep", str(cfg), "-o", str(out)])]
            csv_before = csv_body(out / "records.csv")
            summary_before = (out / "summary.md").read_bytes()
            records = list(self.capture.records)
            codes.append(cli.main(["report", str(cfg), "-o", str(out)]))
        return {"exit_codes": codes, "records": records,
                "csv_identical": csv_body(out / "records.csv") == csv_before,
                "summary_identical": (out / "summary.md").read_bytes() == summary_before}


# -- output checks ------------------------------------------------------


def residual_violations(records, newton_tol: float) -> list[str]:
    """Converged records whose residual breaks newton_tol*(1+|T_n f|_inf)."""
    grids: dict = {}
    bad = []
    for rec in records:
        if not rec.converged:
            continue
        spec, mesh = rec.problem, rec.mesh
        key = (spec.dimension, spec.radius, mesh.cells, mesh.grading)
        if key not in grids:
            grids[key] = build_radial_grid(*key)
        f = np.asarray(datum_eval(spec.datum, grids[key].nodes), dtype=float)
        bound = newton_tol * (1.0 + float(np.max(np.abs(np.clip(f, -rec.n_final,
                                                                 rec.n_final)))))
        if not rec.residual_inf <= bound:
            bad.append(f"{rec.run_id}: residual {rec.residual_inf:.3e} > {bound:.3e}")
    return bad


def verdicts(op_index: int, records) -> list[tuple[int, str, bool]]:
    """(op, check label, passed) for every check every record ran."""
    out = []
    for rec in records:
        for group in rec.reports.values():
            for rep in group:
                params = ",".join(f"{k}={v:.6g}" for k, v in rep.params)
                out.append((op_index, f"{rec.run_id}:{rep.name}({params})", rep.passed))
        mk = rec.marcinkiewicz
        if mk is not None and mk.applicable:
            out.append((op_index, f"{rec.run_id}:marcinkiewicz_lemma", mk.passed))
    return out


def verdict_digest(items) -> str:
    text = "\n".join(f"{op}|{label}|{int(passed)}" for op, label, passed in sorted(items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_counts(records) -> tuple[int, int]:
    """(checks run, checks failed) over records, Marcinkiewicz included."""
    items = verdicts(0, records)
    return len(items), sum(1 for _, _, passed in items if not passed)


def csv_body(path: Path) -> bytes:
    """records.csv without its '# generated <timestamp>' first line."""
    return path.read_bytes().split(b"\n", 1)[1]

