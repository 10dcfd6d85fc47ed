"""Tests of the benchmark itself, at tiny workload sizes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

PACKAGE = run.load_package()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "werner-scan": dict(x_steps=5, theta_steps=4),
    "catalog-verify": dict(samples=2),
    "random-scan-large": dict(sizes=((2, 3), (3, 2))),
    "state-report": dict(mix=((2, 2, 1, 1), (2, 3, 1, 1))),
}


def tiny(name: str, workdir: Path, seed: int = 3):
    return workloads.WORKLOADS[name](seed, workdir, **TINY[name])


def run_main(name: str, trace: int, capsys) -> tuple[int, dict, str]:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), "\n".join(lines[:-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_metric_names_and_units_match_spec(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, name, partial(workloads.WORKLOADS[name], **TINY[name]))
    code, result, _ = run_main(name, trace, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}


def _alter_one_csv_value(workload) -> None:
    lines = workload.out.read_text().splitlines()
    fields = lines[7].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[7] = ",".join(fields)
    workload.out.write_text("\n".join(lines) + "\n")


def _add_typo_candidate(workload) -> None:
    report = json.loads(workload.out.read_text())
    report["cases"]["1"]["typo_candidates"].append("w_eig")
    workload.out.write_text(json.dumps(report))


CORRUPTIONS = {"werner-scan": (_alter_one_csv_value, 1), "catalog-verify": (_add_typo_candidate, 2)}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_check_counts_corrupted_output(name, tmp_path):
    corrupt, failed = CORRUPTIONS[name]
    workload = tiny(name, tmp_path)
    [op] = workload.prepare()
    result = op.run()
    assert workload.check(op, result) == 0
    corrupt(workload)
    assert workload.check(op, result) == failed


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_output_raises_error_rate(name, monkeypatch, capsys):
    corrupt, failed = CORRUPTIONS[name]
    cls = workloads.WORKLOADS[name]

    def corrupting(seed, workdir):
        workload = cls(seed, workdir, **TINY[name])
        [op] = workload.prepare()

        def run_and_corrupt():
            result = op.run()
            corrupt(workload)
            return result

        workload.prepare = lambda: [workloads.Op(op.states, run_and_corrupt)]
        return workload

    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, name, corrupting)
    code, result, text = run_main(name, 0, capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == failed  # one pass with --seconds 0
    assert f"error_rate {failed / result['attempted']:.6g} " in text


@pytest.mark.parametrize("name", list(TINY))
def test_layer_self_times_account_for_traced_wall(name, tmp_path):
    first, _ = run.measure_layers(tiny(name, tmp_path), PACKAGE, 0, baseline=False)
    second, _ = run.measure_layers(tiny(name, tmp_path), PACKAGE, 0, baseline=False)
    m = first["metrics"]
    accounted = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["bench.self_s"]
    assert accounted == pytest.approx(m["traced_pass_s"], rel=0.02)
    assert abs(accounted - m["untraced_pass_s"]) <= abs(m["tracing_overhead_s"]) + 0.02 * m["traced_pass_s"]
    calls = {k: v for k, v in m.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert first["failed"] == 0


def test_werner_scan_calls_are_exact(tmp_path):
    result, _ = run.measure_layers(tiny("werner-scan", tmp_path), PACKAGE, 0, baseline=False)
    m = result["metrics"]
    states = 5 * 4
    assert m["entanglement.xi_spectrum.calls"] == states
    assert m["entanglement.ppt_check.calls"] == states
    assert m["cli.calls"] == 1
    assert m["gram.calls"] == 0 and m["submaximal.calls"] == 0


def test_tracer_restores_every_function():
    namespaces = [PACKAGE, PACKAGE.gram, PACKAGE.cli, np.linalg]
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = Tracer()
    tracer.install(PACKAGE)
    assert PACKAGE.gram_direct is not before[0]["gram_direct"]
    assert PACKAGE.gram.su_generators is not before[1]["su_generators"]  # imported name
    tracer.uninstall()
    assert [dict(vars(ns)) for ns in namespaces] == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "state-report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
