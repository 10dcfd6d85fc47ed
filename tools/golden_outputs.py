"""Write a fixed set of CLI outputs, so two checkouts can be compared byte for byte.

    python tools/golden_outputs.py OUTDIR [--src SRC]
    diff -r A B

Runs ``python -m orbit_atlas`` with SRC (default: the ``src/`` next to this
file) first on the import path, in OUTDIR as the working directory, over:

- the state fixtures, written to ``states/`` by numpy alone (pure, mixed,
  Werner, maximally mixed, a Bloch payload, 2x3 and 3x3), with ``analyze``
  and ``ball-check`` on each;
- ``appendix-verify`` at seeds 0, 1 and 7, and on cases 7-9 with 1 sample and
  cases 2 and 6 with 3 samples;
- ``dims`` and ``werner-scan`` (default grid);
- ``random-scan`` at 2x2, 2x3, 3x3, 4x4 and 5x5, mixed and pure, seeds 3 and 11.

Each command leaves ``NAME.out`` (stdout) and ``NAME.err`` (stderr), plus
any file it writes, and ``exit_codes.txt`` lists every NAME with its exit
status.  Input paths are relative, so the trees of two checkouts differ
only where their outputs do.  Exit status: 0 when every command ran, 2 on
bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = (3, 11)
SIZES = ((2, 2), (2, 3), (3, 3), (4, 4), (5, 5))
RANDOM_COUNT = 12


def _matrix_payload(k: int, m: int, mat: np.ndarray) -> dict:
    return {"k": k, "m": m, "matrix": [[[z.real, z.imag] for z in row.tolist()] for row in mat]}


def _pure(k: int, m: int, amp) -> dict:
    amp = np.asarray(amp, dtype=complex)
    amp = amp / np.linalg.norm(amp)
    return _matrix_payload(k, m, np.outer(amp, amp.conj()))


def _mixed(k: int, m: int, rng: np.random.Generator) -> dict:
    n = k * m
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return _matrix_payload(k, m, mat / np.trace(mat).real)


def _werner(x: float) -> dict:
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return _matrix_payload(2, 2, x * np.outer(psi, psi) + (1.0 - x) * np.eye(4) / 4.0)


def fixtures() -> dict[str, dict]:
    """The state files by name, built from numpy only, so every checkout gets the same bytes."""
    rng = np.random.default_rng(20)
    return {
        "bell": _pure(2, 2, [1, 0, 0, 1]),
        "product": _pure(2, 2, [1, 0, 0, 0]),
        "pure_theta": _pure(2, 2, [np.cos(0.35), 0, 0, np.sin(0.35)]),
        "werner_half": _werner(0.5),
        "werner_fifth": _werner(0.2),
        "maximally_mixed": _matrix_payload(2, 2, np.eye(4) / 4.0),
        "mixed_2x2": _mixed(2, 2, rng),
        "bloch_2x2": {"k": 2, "m": 2, "a": [0.05, 0.0, 0.02], "b": [0.03, 0.01, 0.0],
                      "g": [[0.05, 0.0, 0.0], [0.0, -0.03, 0.0], [0.0, 0.0, 0.02]]},
        "mixed_2x3": _mixed(2, 3, rng),
        "mixed_3x3": _mixed(3, 3, rng),
        "pure_2x3": _pure(2, 3, rng.standard_normal(6) + 1j * rng.standard_normal(6)),
    }


def commands() -> list[tuple[str, list[str]]]:
    """(NAME, CLI arguments) for every command of the set, in run order."""
    cmds = []
    for name in fixtures():
        cmds.append((f"analyze-{name}", ["analyze", f"states/{name}.json"]))
        cmds.append((f"ball-check-{name}", ["ball-check", f"states/{name}.json"]))
    for seed in (0, 1, 7):
        cmds.append((f"appendix-verify-seed{seed}", ["appendix-verify", "--seed", str(seed)]))
    # single-point cases, and vector parameters with null concurrences
    for cases, samples in (("7-9", 1), ("2,6", 3)):
        cmds.append((f"appendix-verify-cases{cases}-samples{samples}",
                     ["appendix-verify", "--cases", cases, "--samples", str(samples)]))
    cmds.append(("dims-3-4", ["dims", "3", "4"]))
    cmds.append(("werner-scan", ["werner-scan", "--out", "werner-scan.csv"]))
    for seed in SEEDS:
        for ensemble in ("mixed", "pure"):
            for k, m in SIZES:
                name = f"random-scan-{ensemble}-{k}x{m}-seed{seed}"
                cmds.append((name, ["random-scan", "--k", str(k), "--m", str(m), "--count", str(RANDOM_COUNT),
                                    "--seed", str(seed), "--ensemble", ensemble, "--out", f"{name}.csv"]))
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the outputs (created; existing files are overwritten)")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="source tree whose orbit_atlas runs (default: this checkout's src/)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "orbit_atlas" / "__init__.py").is_file():
        parser.error(f"no orbit_atlas sources under {src}")
    out = Path(args.outdir)
    (out / "states").mkdir(parents=True, exist_ok=True)
    for name, payload in fixtures().items():
        (out / "states" / f"{name}.json").write_text(json.dumps(payload) + "\n")
    env = {key: v for key, v in os.environ.items() if key != "ORBIT_ATLAS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    codes = []
    for name, cli_args in commands():
        done = subprocess.run([sys.executable, "-m", "orbit_atlas", *cli_args], cwd=out, env=env,
                              capture_output=True, text=True)
        (out / f"{name}.out").write_text(done.stdout)
        (out / f"{name}.err").write_text(done.stderr)
        codes.append(f"{name} {done.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
