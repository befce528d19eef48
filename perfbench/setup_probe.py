"""Set-up timing child: import degelab, build one workload's inputs, exit.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints ``import <seconds>`` once ``degelab.cli`` is imported and ``ready``
once the inputs are built; run.py times the second line from the spawn.
"""

import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import degelab.cli  # noqa: E402,F401

print(f"import {perf_counter() - t0!r}", flush=True)

import run  # noqa: E402

run.OUT.mkdir(exist_ok=True)
workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=run.OUT))
try:
    run.make_workload(sys.argv[1], int(sys.argv[2]), workdir)
    print("ready", flush=True)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
