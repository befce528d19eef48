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




def test_compare_reports_moved_product_cells(golden):
    expected = golden.load()
    case = next(entry for entry in expected if entry["case"] == "solve configs/example.ini")
    rows = case["tables"]["records.csv"]
    check, lhs, slack, passed = (rows[0].index(col)
                                 for col in ("check_name", "lhs", "slack", "passed"))
    # an entropy row: its slack is rounding, far below REL_TOL
    i = next(i for i, row in enumerate(rows[1:], 1) if row[check].startswith("entropy"))
    row = rows[i]
    assert abs(float(row[slack])) < 1e-12

    def moved(status, cells):
        """``expected`` with the case's exit status and row i's cells replaced."""
        new_rows = [*rows[:i], [cells.get(j, cell) for j, cell in enumerate(row)], *rows[i + 1:]]
        tables = {**case["tables"], "records.csv": new_rows}
        return [entry if entry is not case else {**case, "exit": status, "tables": tables}
                for entry in expected]

    flipped = "false" if row[passed] == "true" else "true"
    lhs_moved = repr(float(row[lhs]) * (1 + 1e-8))
    assert golden.compare(expected, moved(2, {lhs: lhs_moved, passed: flipped})) == [
        f"{case['case']}: exit 0 -> 2",
        f"{case['case']}: records.csv row {i} cell {lhs} {row[lhs]!r} -> {lhs_moved!r}",
        f"{case['case']}: records.csv row {i} cell {passed} {row[passed]!r} -> {flipped!r}",
    ]
    # a number within REL_TOL, and a slack within REL_TOL absolute, are no difference
    assert golden.compare(expected, moved(0, {
        lhs: repr(float(row[lhs]) * (1 + 1e-10)),
        slack: repr(float(row[slack]) + 1e-10)})) == []
