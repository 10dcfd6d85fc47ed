"""Compare two ``appendix-verify`` JSON reports, or two CSV files.

    python tools/compare_reports.py A.json B.json
    python tools/compare_reports.py A.csv B.csv

Walks both reports together.  Structural differences are printed one per
line: a key present on one side only, a list of another length, or a
non-float value (string, bool, int, null) that differs, including a float
on one side facing a null or a bool on the other.  Floats that differ are
not structural; their largest |A - B| is printed per field, with the list
indices of the path collapsed, so each residual quantity of each case
gets one line (for example ``cases.7.points[].residuals.xi``).

Two ``.csv`` files (``random-scan``, ``werner-scan``) are compared row by
row.  A header or row count that differs is structural.  A column whose
cells are all integer literals on both sides (``index``, ``local_dim``) is
compared exactly and a mismatch is structural; other numeric cells give
the largest |A - B| per column; any other cell must match exactly.

Exit status: 0 when the structures match, 1 on any structural
difference, 2 when a file cannot be read or only one of them is a CSV.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys

_INT = re.compile(r"[+-]?\d+")


def compare(a, b, path: str = "", deltas: dict | None = None, structural: list | None = None):
    """Return (deltas, structural): the max |a - b| per float field and the
    list of structural differences between two decoded JSON documents."""
    deltas = {} if deltas is None else deltas
    structural = [] if structural is None else structural
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() ^ b.keys()):
            structural.append(f"{path}.{key}: only in {'A' if key in a else 'B'}")
        for key in a.keys() & b.keys():
            compare(a[key], b[key], f"{path}.{key}" if path else key, deltas, structural)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append(f"{path}: length {len(a)} vs {len(b)}")
        for x, y in zip(a, b):
            compare(x, y, f"{path}[]", deltas, structural)
    elif type(a) is float and type(b) is float:
        deltas[path] = max(deltas.get(path, 0.0), abs(a - b))
    elif type(a) is not type(b) or a != b:
        structural.append(f"{path}: {json.dumps(a)} vs {json.dumps(b)}")
    return deltas, structural


def _float(cell: str) -> float | None:
    """The cell's value when it is a non-NaN number, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return None if math.isnan(value) else value


def compare_csv(a: list[list[str]], b: list[list[str]]):
    """Return (deltas, structural) for two CSV files read as lists of rows,
    the header first: the max |a - b| per numeric column and the list of
    structural differences."""
    deltas: dict = {}
    if a[:1] != b[:1]:
        return deltas, [f"header {a[:1]} vs {b[:1]}"]
    if len(a) != len(b):
        return deltas, [f"rows: {len(a) - 1} vs {len(b) - 1}"]
    structural = []
    header, rows = a[0] if a else [], list(zip(a[1:], b[1:]))
    for j, name in enumerate(header):
        cells = [(ra[j] if j < len(ra) else "", rb[j] if j < len(rb) else "") for ra, rb in rows]
        integral = all(_INT.fullmatch(x) and _INT.fullmatch(y) for x, y in cells)
        for i, (x, y) in enumerate(cells, start=1):
            fx, fy = (None, None) if integral else (_float(x), _float(y))
            if fx is not None and fy is not None:
                deltas[name] = max(deltas.get(name, 0.0), abs(fx - fy))
            elif x != y:
                structural.append(f"row {i} {name}: {x} vs {y}")
    return deltas, structural


def _read(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh)) if path.endswith(".csv") else json.load(fh)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json | A.csv B.csv", file=sys.stderr)
        return 2
    is_csv = argv[0].endswith(".csv")
    if argv[1].endswith(".csv") != is_csv:
        print("compare_reports: give two .json or two .csv files", file=sys.stderr)
        return 2
    try:
        docs = [_read(p) for p in argv]
    except (OSError, ValueError, csv.Error) as exc:
        print(f"compare_reports: {exc}", file=sys.stderr)
        return 2
    deltas, structural = compare_csv(*docs) if is_csv else compare(*docs)
    for line in structural:
        print(f"structural {line}")
    for field in sorted(deltas):
        print(f"max |delta| {field}: {deltas[field]:.3g}")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
