"""tools/compare_reports.py on small appendix-verify reports and random-scan CSVs."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from orbit_atlas import verify_cases
from orbit_atlas.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _compare(tmp_path, a, b, suffix=".json"):
    paths = []
    for name, doc in (("a", a), ("b", b)):
        paths.append(tmp_path / (name + suffix))
        paths[-1].write_text(doc if suffix == ".csv" else json.dumps(doc, indent=2))
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def report():
    return verify_cases([3, 7], samples=3, seed=2)


def test_identical_reports_have_zero_deltas(tmp_path, report):
    code, out = _compare(tmp_path, report, copy.deepcopy(report))
    assert code == 0
    assert "structural" not in out
    assert "max |delta| cases.7.points[].residuals.xi: 0\n" in out


def test_float_change_is_reported_not_structural(tmp_path, report):
    changed = copy.deepcopy(report)
    changed["cases"]["3"]["points"][1]["residuals"]["gram_eig"] += 2.5e-16
    code, out = _compare(tmp_path, report, changed)
    assert code == 0
    assert "max |delta| cases.3.points[].residuals.gram_eig: 2.5e-16\n" in out


@pytest.mark.parametrize("edit,message", [
    (lambda r: r["cases"]["7"].pop("typo_candidates"), "cases.7.typo_candidates: only in A"),
    (lambda r: r["cases"]["3"]["points"].pop(), "cases.3.points: length 3 vs 2"),
    (lambda r: r["cases"]["3"]["points"][0].update(corank_match=False),
     "cases.3.points[].corank_match: true vs false"),
    (lambda r: r["cases"]["7"]["points"][0]["residuals"].update(concurrence=0.0),
     "cases.7.points[].residuals.concurrence: null vs 0.0"),
], ids=["key", "length", "bool", "null"])
def test_structural_difference_exits_1(tmp_path, report, edit, message):
    changed = copy.deepcopy(report)
    edit(changed)
    code, out = _compare(tmp_path, report, changed)
    assert code == 1
    assert f"structural {message}\n" in out


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "scan.csv"
    assert main(["random-scan", "--k", "2", "--m", "3", "--count", "4", "--seed", "5", "--out", str(out)]) == 0
    return out.read_text()


def _edit_cell(text, row, column, edit):
    lines = [line.split(",") for line in text.splitlines()]
    j = lines[0].index(column)
    lines[row][j] = edit(lines[row][j])
    return "".join(",".join(line) + "\n" for line in lines)


def test_identical_csvs_have_zero_deltas(tmp_path, scan):
    code, out = _compare(tmp_path, scan, scan, ".csv")
    assert code == 0
    assert "structural" not in out
    assert "max |delta| gram_min: 0\n" in out and "max |delta| gram_max: 0\n" in out


def test_csv_float_change_is_reported_not_structural(tmp_path, scan):
    changed = _edit_cell(scan, 2, "gram_max", lambda cell: repr(float(cell) + 0.5))
    code, out = _compare(tmp_path, scan, changed, ".csv")
    assert code == 0
    assert "structural" not in out
    assert "max |delta| gram_max: 0.5\n" in out


def test_csv_local_dim_change_is_structural(tmp_path, scan):
    changed = _edit_cell(scan, 3, "local_dim", lambda cell: str(int(cell) - 1))
    code, out = _compare(tmp_path, scan, changed, ".csv")
    assert code == 1
    assert "structural row 3 local_dim: 11 vs 10\n" in out
    assert "local_dim" not in out.replace("structural row 3 local_dim", "")
