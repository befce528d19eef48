import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_is_named(tmp_path):
    # Under the project's warning filters a failing @given test must end as
    # an ordinary failure (exit 1, named), not as INTERNALERROR (exit 3),
    # which hides the failing test and stops the rest of the run.
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_failing.py::test_always_fails" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
