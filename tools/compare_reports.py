"""Compare two ``appendix-verify`` JSON reports.

    python tools/compare_reports.py A.json B.json

Walks both reports together.  Structural differences are printed one per
line: a key present on one side only, a list of another length, or a
non-float value (string, bool, int, null) that differs, including a float
on one side facing a null or a bool on the other.  Floats that differ are
not structural; their largest |A - B| is printed per field, with the list
indices of the path collapsed, so each residual quantity of each case
gets one line (for example ``cases.7.points[].residuals.xi``).

Exit status: 0 when the structures match, 1 on any structural
difference, 2 when a file cannot be read as JSON.
"""

from __future__ import annotations

import json
import sys


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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        docs = [json.loads(open(p, encoding="utf-8").read()) for p in argv]
    except (OSError, ValueError) as exc:
        print(f"compare_reports: {exc}", file=sys.stderr)
        return 2
    deltas, structural = compare(*docs)
    for line in structural:
        print(f"structural {line}")
    for field in sorted(deltas):
        print(f"max |delta| {field}: {deltas[field]:.3g}")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
