"""The four benchmark workloads and their output checks.

Each workload is closed loop: one caller in one process sends the next
operation when the previous one has returned.  A workload object is cheap
to build; ``warm_up`` runs a tiny instance that fills the first-call
caches (this is what ``setup_s`` times in a fresh process); ``prepare``
generates the inputs and reference values outside any timed region and
returns one pass of operations; ``check`` returns how many of an
operation's states failed their output check.

The package must be importable before this module is imported; run.py
puts the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import orbit_atlas as oa
from orbit_atlas import cli

WERNER_HEADER = "x,theta,concurrence,eof,min_pt_eigenvalue,in_ball"
RANDOM_HEADER = "index,local_dim,gram_min,gram_max,ppt_verdict"
CLOSED_FORM_TOL = 1e-12
# The catalog quantities whose printed formulas disagree with direct
# numerics (README); evaluated verbatim, they must fail exactly here.
DOCUMENTED_TYPOS = {4: {"xi"}, 6: {"xi"}, 7: {"gram_eig", "xi"}}
ORACLE_ROWS = 2  # rows per size cross-checked against orbit_dim_oracle


@dataclass(frozen=True)
class Op:
    """One timed operation: a call that processes ``states`` states."""

    states: int
    run: Callable[[], object]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in process; return its exit code and its stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read_csv(path: Path, header: str) -> list[list[str]] | None:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


class WernerScan:
    """``werner-scan`` on the default 101 x 91 grid of two-qubit states."""

    name = "werner-scan"

    def __init__(self, seed: int, workdir: Path, x_steps: int = 101, theta_steps: int = 91):
        self.seed = seed  # the grid is fixed; the seed is recorded only
        self.workdir = workdir
        self.x_steps, self.theta_steps = x_steps, theta_steps
        self.out = workdir / "werner.csv"

    def _argv(self, x_steps: int, theta_steps: int, out: Path) -> list[str]:
        return ["werner-scan", "--x-steps", str(x_steps), "--theta-steps", str(theta_steps), "--out", str(out)]

    def warm_up(self) -> None:
        run_cli(self._argv(2, 2, self.workdir / "warm-werner.csv"))

    def prepare(self) -> list[Op]:
        argv = self._argv(self.x_steps, self.theta_steps, self.out)
        return [Op(self.x_steps * self.theta_steps, lambda: run_cli(argv))]

    def check(self, op: Op, result) -> int:
        code, _ = result
        rows = _read_csv(self.out, WERNER_HEADER)
        if code != 0 or rows is None:
            return op.states
        try:
            data = np.array(rows, dtype=float)
        except ValueError:
            return op.states
        if data.ndim != 2 or data.shape[1] != 6:
            return op.states
        n = min(len(data), op.states)
        x, theta = np.meshgrid(
            np.linspace(0.0, 1.0, self.x_steps),
            np.linspace(0.0, np.pi / 2.0, self.theta_steps),
            indexing="ij",
        )
        x, theta, data = x.ravel()[:n], theta.ravel()[:n], data[:n]
        conc = np.maximum(0.0, x * np.sin(theta) - (1.0 - x) / 2.0)
        root = np.sqrt(1.0 - np.minimum(conc, 1.0) ** 2)
        p = (1.0 + root) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            eof = np.where((p <= 0.0) | (p >= 1.0), 0.0, -p * np.log2(p) - (1 - p) * np.log2(1 - p))
        expected = np.column_stack(
            [x, theta, conc, eof, (1.0 - x) / 4.0 - x * np.sin(theta) / 2.0, x <= 1.0 / 3.0]
        )
        bad = np.any(~(np.abs(data - expected) <= CLOSED_FORM_TOL), axis=1)
        return int(bad.sum()) + (op.states - n) + max(len(rows) - op.states, 0)


class CatalogVerify:
    """``appendix-verify --cases 1-9 --samples 100``: 900 catalog points."""

    name = "catalog-verify"

    def __init__(self, seed: int, workdir: Path, samples: int = 100):
        self.seed = seed
        self.workdir = workdir
        self.samples = samples
        self.out = workdir / "catalog.json"

    def _argv(self, samples: int, out: Path) -> list[str]:
        return ["appendix-verify", "--cases", "1-9", "--samples", str(samples),
                "--seed", str(self.seed), "--out", str(out)]

    def warm_up(self) -> None:
        run_cli(self._argv(1, self.workdir / "warm-catalog.json"))

    def prepare(self) -> list[Op]:
        argv = self._argv(self.samples, self.out)
        return [Op(9 * self.samples, lambda: run_cli(argv))]

    def check(self, op: Op, result) -> int:
        code, _ = result
        try:
            report = json.loads(self.out.read_text(encoding="ascii"))
            cases = report["cases"]
            tol = float(report["tol"])
        except (ValueError, KeyError, TypeError):
            return op.states
        if code != 3 or report.get("all_match") is not False:
            return op.states
        failed = 0
        for cid in range(1, 10):
            case = cases.get(str(cid), {})
            points = case.get("points", [])
            expected = DOCUMENTED_TYPOS.get(cid, set())
            if set(case.get("typo_candidates", ())) != expected or len(points) != self.samples:
                failed += self.samples
                continue
            for point in points:
                ok = point["corank_match"] and point["separability_match"]
                for q, value in point["residuals"].items():
                    if q in expected:
                        continue
                    if value is None:
                        ok = ok and q == "concurrence"
                    else:
                        ok = ok and value <= tol
                failed += not ok
        return failed


class RandomScanLarge:
    """``random-scan`` on mixed states at 4x4 and at 5x5 with fixed counts."""

    name = "random-scan-large"

    def __init__(self, seed: int, workdir: Path, sizes=((4, 60), (5, 30))):
        self.seed = seed
        self.workdir = workdir
        self.sizes = tuple(sizes)  # (k = m, count)
        self.reference: dict[tuple[int, int], int] = {}

    def _argv(self, k: int, count: int, out: Path) -> list[str]:
        return ["random-scan", "--k", str(k), "--m", str(k), "--count", str(count),
                "--seed", str(self.seed), "--out", str(out)]

    def warm_up(self) -> None:
        for k, _ in self.sizes:
            run_cli(self._argv(k, 1, self.workdir / f"warm-random-{k}.csv"))

    def prepare(self) -> list[Op]:
        # regenerate the CLI's states from the same seed and keep the SVD
        # oracle's orbit dimension for a seeded sample of rows
        pick = np.random.default_rng([self.seed, 1])
        for k, count in self.sizes:
            rows = set(pick.choice(count, size=min(ORACLE_ROWS, count), replace=False).tolist())
            rng = np.random.default_rng(self.seed)
            for i in range(max(rows) + 1):
                w = oa.random_state("mixed", k, k, rng)
                if i in rows:
                    self.reference[(k, i)] = oa.orbit_dim_oracle(w)
        argvs = [self._argv(k, count, self.workdir / f"random-{k}.csv") for k, count in self.sizes]
        total = sum(count for _, count in self.sizes)
        return [Op(total, lambda: [run_cli(argv) for argv in argvs])]

    def check(self, op: Op, result) -> int:
        failed = 0
        for (k, count), (code, err) in zip(self.sizes, result):
            rows = _read_csv(self.workdir / f"random-{k}.csv", RANDOM_HEADER)
            if code != 0 or rows is None or f"attained by {count}/{count} " not in err:
                failed += count
                continue
            d_max = 2 * k * k - 2
            verdicts = {"entangled", "separable"} if k * k <= 6 else {"entangled", "ppt_undecided"}
            for i in range(count):
                row = rows[i] if i < len(rows) else None
                ok = (
                    row is not None
                    and len(row) == 5
                    and row[0] == str(i)
                    and row[1] == str(d_max)
                    and row[4] in verdicts
                    and self.reference.get((k, i), d_max) == d_max  # the oracle agrees
                )
                failed += not ok
            failed += max(len(rows) - count, 0)
        return failed


# (k, m, mixed, pure) per cycle.  The counts put the median inside the
# 3x4 states and the tail (the 11th-largest sample of a run) among the
# 5x5 states, so neither sits on the edge between two sizes.
STATE_MIX = ((2, 2, 3, 1), (2, 3, 3, 1), (3, 3, 3, 1), (3, 4, 3, 1), (4, 4, 4, 1), (4, 5, 5, 1), (5, 5, 1, 0))


def state_report(w):
    """The README library tour for one state."""
    f = oa.decompose_bloch(w)
    direct = oa.gram_direct(w)
    closed = oa.gram_closed_form(f)
    oracle = oa.orbit_dim_oracle(w)
    oa.weyl_cell(np.linalg.eigvalsh(w.matrix))
    oa.entanglement_report(w)
    if (w.k, w.m) == (2, 2):
        oa.canonicalize_mixed_2x2(f)
    return f, direct, closed, oracle


class StateReport:
    """The library tour per state over a fixed mix of 2x2 to 5x5 states."""

    name = "state-report"

    def __init__(self, seed: int, workdir: Path, mix=STATE_MIX):
        self.seed = seed
        self.mix = tuple(mix)

    def warm_up(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        for k, m, _, _ in self.mix:
            state_report(oa.random_state("mixed", k, m, rng))

    def prepare(self) -> list[Op]:
        rng = np.random.default_rng(self.seed)
        states = []
        for k, m, mixed, pure in self.mix:
            states += [oa.random_state("mixed", k, m, rng) for _ in range(mixed)]
            states += [oa.pure_density(oa.random_state("pure", k, m, rng)) for _ in range(pure)]
        return [Op(1, lambda w=w: (w, state_report(w))) for w in states]

    def check(self, op: Op, result) -> int:
        w, (f, direct, closed, oracle) = result
        scale = float(np.max(np.abs(direct.matrix)))
        roundtrip = oa.compose_bloch(f).matrix
        ok = (
            direct.rank == closed.rank == oracle
            and np.max(np.abs(closed.matrix - direct.matrix)) <= 1e-10 * scale
            and np.max(np.abs(roundtrip - w.matrix)) <= 1e-12
        )
        return int(not ok)


WORKLOADS = {cls.name: cls for cls in (WernerScan, CatalogVerify, RandomScanLarge, StateReport)}
