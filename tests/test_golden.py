"""The committed behaviour fingerprint (scripts/golden.py) still holds."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_matches_the_committed_file(golden):
    assert golden.compare(golden.load(), golden.fingerprint()) == []


def test_compare_reports_moved_values_and_verdicts(golden):
    expected = golden.load()
    case = expected[0]
    label, lhs, rhs, passed = case["reports"][0]
    moved = {**case, "steps": case["steps"] + 1,
             "reports": [[label, lhs * (1 + 1e-8), rhs, not passed], *case["reports"][1:]]}
    assert golden.compare(expected, [moved, *expected[1:]]) == [
        f"{case['case']}: steps {case['steps']} -> {case['steps'] + 1}",
        f"{case['case']}: {label} (lhs, rhs) ({lhs!r}, {rhs!r}) -> "
        f"({lhs * (1 + 1e-8)!r}, {rhs!r})",
        f"{case['case']}: {label} passed {passed} -> {not passed}",
    ]
    # within the tolerance, and a verdict flipped on the edge, are no difference
    near = {**case, "edge": [label],
            "reports": [[label, lhs * (1 + 1e-10), rhs, not passed], *case["reports"][1:]]}
    assert golden.compare(expected, [near, *expected[1:]]) == []
