"""Benchmark of orbit-atlas: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload state-report --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with tracing off;
with ``--trace 1`` it reports the per-layer metrics of a traced run.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
same metrics for reading, the environment block and the sample counts.
The exit code is 0 when every output check passed and 1 otherwise.  See
bench/README.md for the workloads, the metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 5  # fresh processes timed per run, after one discarded priming run
BASELINE_SECONDS = 1  # measured time of the single-threaded child run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("algebra", "states", "gram", "canonical", "entanglement", "strata", "submaximal", "cli", "linalg")
FUNCTIONS = (
    "algebra.su_generators",
    "algebra.structure_constants",
    "algebra.partial_transpose",
    "states.decompose_bloch",
    "states.compose_bloch",
    "gram.tangent_vectors",
    "gram.gram_direct",
    "gram.gram_closed_form",
    "gram.orbit_dim_oracle",
    "canonical.canonicalize_mixed_2x2",
    "strata.weyl_cell",
    "entanglement.xi_spectrum",
    "entanglement.ppt_check",
    "entanglement.maximal_ball_check",
    "submaximal.sample_params",
    "submaximal.case_predictions",
    "submaximal.verify_case",
)
WARMUP_COUNTED = ("algebra.su_generators", "algebra.structure_constants")
SINGLE_THREAD = ("gram.orbit_dim_oracle", "gram.gram_direct")


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def load_package():
    """Import orbit_atlas from this checkout's sources, never from elsewhere."""
    if not (SRC / "orbit_atlas" / "__init__.py").is_file():
        raise SystemExit(f"error: no orbit_atlas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbit_atlas
    import orbit_atlas.cli  # noqa: F401  (the CLI is part of set-up)

    if SRC not in Path(orbit_atlas.__file__).resolve().parents:
        raise SystemExit(f"error: orbit_atlas was imported from {orbit_atlas.__file__}, not {SRC}")
    return orbit_atlas


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def environment(package, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "orbit_atlas": package.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_pass(workload, ops, package, tracer=None) -> tuple[float, list[float], int]:
    """Run every operation once, in order; return the pass wall time, the
    per-operation times and the number of states that failed.  Outputs
    are checked after the pass, outside the timed and traced region."""
    results, op_s = [], []
    if tracer is not None:
        tracer.install(package)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        with tracer.op(i) if tracer is not None else nullcontext():
            try:
                results.append(op.run())
            except Exception:
                traceback.print_exc()
                results.append(None)
        op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    failed = 0
    for op, result in zip(ops, results):
        try:
            failed += op.states if result is None else workload.check(op, result)
        except Exception:
            traceback.print_exc()
            failed += op.states
    return wall, op_s, failed


def setup_times(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and warm up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--child", "setup"]
    times = []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples beyond it, and its
    percentile; the median's when there are too few samples."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure_end_to_end(workload, package, seconds: float) -> tuple[dict, dict]:
    setup = setup_times(workload.name, workload.seed)
    workload.warm_up()
    ops = workload.prepare()
    pass_states = sum(op.states for op in ops)
    passes, latency, failed = [], [], 0
    while not passes or sum(passes) < seconds:
        wall, op_s, bad = run_pass(workload, ops, package)
        passes.append(wall)
        latency += [1e3 * t / op.states for op, t in zip(ops, op_s)]
        failed += bad
    tail_ms, tail_pct = tail(latency)
    metrics = {
        "setup_s": statistics.median(setup),
        "states_per_s": statistics.median(pass_states / t for t in passes),
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "pass_s": passes,
        "latency_samples": len(latency),
        "latency_tail_percentile": tail_pct,
        "setup_runs_s": setup,
    }
    return {"attempted": pass_states * len(passes), "failed": failed, "metrics": metrics}, detail


def single_thread_baseline(name: str, seed: int) -> dict:
    """The traced run repeated in a child process with one BLAS/OMP thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(BASELINE_SECONDS), "--trace", "1", "--child", "baseline"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"single-threaded baseline exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_layers(workload, package, seconds: float, baseline: bool) -> tuple[dict, dict]:
    warm = Tracer()
    warm.install(package)
    with warm.op("warmup"):
        workload.warm_up()
    warm.uninstall()
    warm_calls, _ = warm.totals()

    ops = workload.prepare()
    pass_states = sum(op.states for op in ops)
    untraced, traced, failed = [], [], 0
    calls: Counter = Counter()
    self_s: Counter = Counter()
    first = None
    while not traced or sum(untraced) + sum(traced) < seconds:
        wall, _, bad = run_pass(workload, ops, package)
        untraced.append(wall)
        tracer = Tracer()
        wall, _, bad_traced = run_pass(workload, ops, package, tracer)
        traced.append(wall)
        failed += bad + bad_traced
        pass_calls, pass_self = tracer.totals()
        calls.update(pass_calls)
        self_s.update(pass_self)
        if first is None:
            first = tracer
    n = len(traced)
    OUT.mkdir(exist_ok=True)
    first.dump(OUT / f"spans-{workload.name}.jsonl")

    def count(total: int):
        return total // n if total % n == 0 else total / n

    metrics: dict = {}
    for layer in LAYERS:
        keys = [k for k in calls if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = count(sum(calls[k] for k in keys))
        metrics[f"{layer}.self_s"] = sum(self_s[k] for k in keys) / n
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = count(calls[fn])
        metrics[f"{fn}.self_s"] = self_s[fn] / n
    for fn in WARMUP_COUNTED:
        metrics[f"warmup.{fn}.calls"] = warm_calls[fn]
    attempted = pass_states * 2 * n
    if baseline:
        child = single_thread_baseline(workload.name, workload.seed)
        for fn in SINGLE_THREAD:
            metrics[f"{fn}.self_s_1t"] = child["metrics"][f"{fn}.self_s"]["value"]
        attempted += child["attempted"]
        failed += child["failed"]
    metrics["bench.self_s"] = self_s["bench"] / n
    metrics["untraced_pass_s"] = statistics.fmean(untraced)
    metrics["traced_pass_s"] = statistics.fmean(traced)
    metrics["tracing_overhead_s"] = metrics["traced_pass_s"] - metrics["untraced_pass_s"]
    detail = {"passes": n, "untraced_pass_s": untraced, "traced_pass_s": traced}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, detail


def parse_args(argv, names: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "baseline"), default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    package = load_package()
    from workloads import WORKLOADS  # imports the package, so only after load_package

    args = parse_args(argv, list(WORKLOADS))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.child == "setup":
            workload.warm_up()
            return 0
        if args.trace:
            result, detail = measure_layers(workload, package, args.seconds, args.child is None)
        else:
            result, detail = measure_end_to_end(workload, package, args.seconds)
    return report(result, detail, environment(package, args.seed), args)


def report(result: dict, detail: dict, env: dict, args) -> int:
    result = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    print("detail " + json.dumps({k: v for k, v in detail.items() if not isinstance(v, list)}))
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{name:<45} {metric['value']:<14.6g} {metric['unit']}")
    if args.child is None:
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, "detail": detail, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
