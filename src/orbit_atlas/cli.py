"""Command-line surface.

Subcommands: analyze (single-state JSON report), werner-scan (CSV sweep of
the generalized Werner family), appendix-verify (closed-form catalog vs
direct numerics), random-scan (ensemble CSV of orbit dimensions and PPT
verdicts), dims (dimension bookkeeping), ball-check (maximal-ball and
absolute-separability diagnostics).

Exit codes: 0 success, 2 input error (unreadable/malformed/non-positive
input, unwritable output, bad arguments), 3 verification mismatch.  CSV
output uses ',' delimiters, '.' decimals, LF line endings, and 17
significant digits so doubles round-trip exactly; identical seeds and
flags give byte-identical files.  ORBIT_ATLAS_SEED supplies the default
seed where one applies.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict
from itertools import chain
from operator import itemgetter
import sys
from pathlib import Path

import numpy as np

from .entanglement import (
    _check_unit_spectrum,
    absolutely_separable,
    concurrences,
    cstar,
    entanglement_of_formation,
    entanglement_report,
    in_maximal_ball,
    ppt_check,
    pt_spectra,
    purities,
    unit_spectrum,
)
from .gram import RANK_TOL, gram_direct
from .canonical import canonicalize_mixed_2x2, pure_stratum
from .states import (
    BlochForm,
    DensityMatrix,
    _check_tol,
    _jsonable,
    compose_bloch,
    bloch_from_json,
    decompose_bloch,
    pure_density,
    random_state,
    state_from_json,
    validate_density,
    werner_matrices,
)
from .strata import dims_report, weyl_cell
from .submaximal import CASES, verify_cases

__all__ = ["main"]

# States per werner-scan block: large enough to amortise the per-call cost
# of the stacked LAPACK kernels, small enough that the block's temporaries
# stay well below the interpreter's own resident memory.
WERNER_BLOCK = 256

_RANK_TOL_HELP = "Gram rank tolerance, relative to the largest Gram eigenvalue"
_LEAF = "\0"  # a leaf in a report template; json writes it as "\u0000"


class _CliError(Exception):
    """Input-contract violation; caught in main and mapped to exit 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, nonnegative float."""
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}: {exc}") from exc


def _default_seed() -> int:
    raw = os.environ.get("ORBIT_ATLAS_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliError(f"ORBIT_ATLAS_SEED must be an integer, got {raw!r}") from exc


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(f"{path}: expected a JSON object at top level")
    return doc


def _load_state(path: str) -> tuple[DensityMatrix, str]:
    """Read and validate a state file; 'matrix' and Bloch ('g') payloads are
    accepted.  Returns the state and its payload format."""
    doc = _read_json(path)
    try:
        if "matrix" in doc:
            w, fmt = state_from_json(doc), "matrix"
        elif "g" in doc:
            w, fmt = compose_bloch(bloch_from_json(doc)), "bloch"
        else:
            raise ValueError("payload has neither a 'matrix' nor a 'g' key")
        validate_density(w)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    return w, fmt


def _open_out(path: str):
    try:
        return open(path, "w", encoding="ascii", newline="")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _canonical_payload(w: DensityMatrix, f: BlochForm) -> dict | None:
    if (w.k, w.m) != (2, 2):
        return None
    purity = float(purities(w.matrix))
    if purity > 1.0 - 1e-8:
        amp = np.linalg.eigh(w.matrix)[1][:, -1]
        stratum = pure_stratum(amp / np.linalg.norm(amp))
        return {
            "type": "pure",
            "theta": stratum.theta,
            "stratum": stratum.label,
            "orbit_dim": stratum.orbit_dim,
        }
    form = canonicalize_mixed_2x2(f)
    return {
        "type": "mixed",
        "mu": form.mu,
        "a": form.a,
        "b": form.b,
        "det_sign": int(form.det_sign),
    }


def _cmd_analyze(args) -> int:
    w, fmt = _load_state(args.input)
    f = decompose_bloch(w)
    gram = gram_direct(w, args.tol)
    cell = weyl_cell(w.spectrum)
    ent = entanglement_report(w)
    report = {
        "k": w.k,
        "m": w.m,
        "input": {"path": args.input, "format": fmt},
        "bloch": asdict(f),
        "gram": {"spectrum": gram.spectrum, "local_dim": gram.rank},
        "weyl": asdict(cell),
        "entanglement": asdict(ent),
        "canonical": _canonical_payload(w, f),
        "effective_dim": cell.global_dim - gram.rank,
    }
    print(json.dumps(_jsonable(report), indent=2))
    return 0


def _cmd_werner_scan(args) -> int:
    if args.x_steps < 2 or args.theta_steps < 2:
        raise _CliError("step counts must be at least 2")
    xs = np.linspace(0.0, 1.0, args.x_steps)
    thetas = np.linspace(0.0, np.pi / 2.0, args.theta_steps)
    x_grid = np.repeat(xs, thetas.size)
    theta_grid = np.tile(thetas, xs.size)
    with _open_out(args.out) as fh:
        fh.write("x,theta,concurrence,eof,min_pt_eigenvalue,in_ball\n")
        for start in range(0, x_grid.size, WERNER_BLOCK):
            x = x_grid[start : start + WERNER_BLOCK]
            theta = theta_grid[start : start + WERNER_BLOCK]
            mats = werner_matrices(x, theta)
            conc = concurrences(mats)
            min_pt = pt_spectra(mats, 2, 2)[:, 0]
            ball = in_maximal_ball(purities(mats), 4)
            rows = zip(x.tolist(), theta.tolist(), conc.tolist(), min_pt.tolist(), ball.tolist())
            fh.write("".join(
                f"{_fmt(xv)},{_fmt(tv)},{_fmt(c)},{_fmt(entanglement_of_formation(c))},"
                f"{_fmt(pt)},{'1' if inside else '0'}\n"
                for xv, tv, c, pt, inside in rows
            ))
    return 0


def _parse_cases(spec: str) -> list[int]:
    out: set[int] = set()
    bad = False
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            ids = range(int(lo), int(hi if sep else lo) + 1)
        except ValueError as exc:
            raise _CliError(f"bad case selector {part!r}") from exc
        # the ends bound the range (CASES is 1..9), so an out-of-range one is never expanded
        if ids and not (ids[0] in CASES and ids[-1] in CASES):
            bad = True
        else:
            out.update(ids)
    if bad or not out:
        raise _CliError(f"cases must be a nonempty subset of 1..9, got {spec!r}")
    return sorted(out)


def _layout(value):
    """value with every leaf replaced by _LEAF."""
    if isinstance(value, dict):
        return {key: _layout(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_layout(v) for v in value]
    return _LEAF


def _columns(values: list, layout) -> list:
    """The leaves of values that share layout, one list per leaf, in the order json writes them."""
    if isinstance(layout, dict):
        keys = layout.items()
    elif isinstance(layout, list):
        keys = enumerate(layout)
    else:
        return [values]
    return [col for key, sub in keys for col in _columns(list(map(itemgetter(key), values)), sub)]


def _points_json(points: list, indent: str) -> str:
    """json.dumps(points, indent=2) for a list whose items all have the first
    item's layout, indented to sit on a line that starts with indent."""
    if not points:
        return "[]"
    inner = indent + "  "
    layout = _layout(points[0])
    template = (json.dumps(layout, indent=2).replace("%", "%%")
                .replace(json.dumps(_LEAF), "%s").replace("\n", "\n" + inner))
    leaves = list(chain.from_iterable(zip(*_columns(points, layout))))
    # a newline never occurs inside a token json writes, so it splits them exactly
    tokens = json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n") if leaves else []
    body = (",\n" + inner).join([template] * len(points)) % tuple(tokens)
    return f"[\n{inner}{body}\n{indent}]"


def _report_json(report: dict) -> str:
    """json.dumps(report, indent=2), byte for byte, for a verify_cases report.

    The report without its points goes through json.dumps; each case's points
    are rendered from one template, the first point's text with its leaves cut
    out, filled with the leaf tokens of one C-encoded json.dumps.
    """
    cases = report["cases"]
    skeleton = {**report, "cases": {cid: {**case, "points": []} for cid, case in cases.items()}}
    # json escapes every quote inside a string, so this key occurs once per case
    pieces = json.dumps(skeleton, indent=2).split('"points": []')
    out = [pieces[0]]
    for case, piece in zip(cases.values(), pieces[1:], strict=True):
        indent = out[-1][out[-1].rfind("\n") + 1:]
        out += ['"points": ', _points_json(case["points"], indent), piece]
    return "".join(out)


def _cmd_appendix_verify(args) -> int:
    if args.samples < 1:
        raise _CliError("samples must be at least 1")
    case_ids = _parse_cases(args.cases)
    seed = args.seed if args.seed is not None else _default_seed()
    report = verify_cases(case_ids, samples=args.samples, seed=seed, tol=args.tol)
    payload = _report_json(report) + "\n"
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for cid in case_ids:
        case = report["cases"][str(cid)]
        status = "ok" if case["all_match"] else f"MISMATCH ({', '.join(case['typo_candidates']) or 'flags'})"
        print(f"case {cid}: {status}", file=sys.stderr)
    return 0 if report["all_match"] else 3


def _cmd_random_scan(args) -> int:
    if args.k < 2 or args.m < 2:
        raise _CliError("subsystem dimensions must be at least 2")
    if args.count < 1:
        raise _CliError("count must be at least 1")
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    d_max = args.k**2 + args.m**2 - 2
    hits = 0
    with _open_out(args.out) as fh:
        fh.write("index,local_dim,gram_min,gram_max,ppt_verdict\n")
        for i in range(args.count):
            w = random_state(args.ensemble, args.k, args.m, rng)
            if args.ensemble == "pure":
                w = pure_density(w)
            gram = gram_direct(w, args.tol)
            hits += gram.rank == d_max
            lo, hi = _fmt(gram.spectrum[0]), _fmt(gram.spectrum[-1])
            fh.write(f"{i},{gram.rank},{lo},{hi},{ppt_check(w).verdict}\n")
    frac = hits / args.count
    print(f"local_dim={d_max} attained by {hits}/{args.count} samples (fraction {frac:.6f})", file=sys.stderr)
    return 0


def _cmd_dims(args) -> int:
    if args.k < 2 or args.m < 2:
        raise _CliError("subsystem dimensions must be at least 2")
    rep = dims_report(args.k, args.m)
    print(json.dumps({"k": args.k, "m": args.m, **asdict(rep)}, indent=2))
    return 0


def _cmd_ball_check(args) -> int:
    if (args.input is None) == (args.spectrum is None):
        raise _CliError("give exactly one of INPUT or --spectrum")
    if args.input is not None:
        w, _ = _load_state(args.input)
        n, purity, spec = w.dim, float(purities(w.matrix)), unit_spectrum(w)
    else:
        try:
            spec = np.sort(np.array([float(s) for s in args.spectrum.split(",")]))[::-1]
        except ValueError as exc:
            raise _CliError(f"bad --spectrum: {exc}") from exc
        n = spec.size
        if n < 2:
            raise _CliError("--spectrum needs at least 2 eigenvalues")
        try:
            _check_unit_spectrum(spec)
        except ValueError as exc:
            raise _CliError(f"bad --spectrum: {exc}") from exc
        purity = float(spec @ spec)
    out = {
        "n": int(n),
        "purity": purity,
        "in_ball": bool(in_maximal_ball(purity, n)),
        "cstar": float(cstar(spec)) if n == 4 else None,
        "absolutely_separable": absolutely_separable(spec, args.tol) if n == 4 else None,
    }
    print(json.dumps(out, indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit-atlas",
        description="Local-orbit geometry and entanglement diagnostics of bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full JSON report for one state file")
    p.add_argument("input", help="JSON state file ('matrix' or Bloch 'g' payload)")
    p.add_argument("--tol", type=_tolerance, default=RANK_TOL, help=_RANK_TOL_HELP)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("werner-scan", help="CSV sweep of the generalized Werner family")
    p.add_argument("--x-steps", type=int, default=101, help="grid points for x in [0, 1]")
    p.add_argument("--theta-steps", type=int, default=91, help="grid points for theta in [0, pi/2]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_werner_scan)

    p = sub.add_parser("appendix-verify", help="closed-form catalog vs direct numerics")
    p.add_argument("--cases", default="1-9", help="case subset, e.g. '1,3,5-7' (default 1-9)")
    p.add_argument("--samples", type=int, default=100, help="parameter points per case")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default ORBIT_ATLAS_SEED or 0)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="residual tolerance")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_appendix_verify)

    p = sub.add_parser("random-scan", help="CSV of orbit dimensions over a random ensemble")
    p.add_argument("--k", type=int, required=True, help="first subsystem dimension")
    p.add_argument("--m", type=int, required=True, help="second subsystem dimension")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default ORBIT_ATLAS_SEED or 0)")
    p.add_argument("--ensemble", choices=("mixed", "pure"), default="mixed")
    p.add_argument("--tol", type=_tolerance, default=RANK_TOL, help=_RANK_TOL_HELP)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_random_scan)

    p = sub.add_parser("dims", help="dimension bookkeeping for a K x M system")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("ball-check", help="maximal-ball and absolute-separability diagnostics")
    p.add_argument("input", nargs="?", default=None, help="JSON state file")
    p.add_argument("--spectrum", default=None, help="comma-separated eigenvalues instead of a file")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="c* threshold for absolute separability")
    p.set_defaults(func=_cmd_ball_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
