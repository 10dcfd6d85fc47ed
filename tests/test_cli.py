import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from orbit_atlas import (
    concurrence_mixed,
    entanglement_of_formation,
    maximal_ball_check,
    ppt_check,
    pure_density,
    random_state,
    schmidt_vector,
    state_to_json,
    werner_state,
)
from orbit_atlas import submaximal, verify_cases
from orbit_atlas.cli import WERNER_BLOCK, _CliError, _parse_cases, _report_json, main


@pytest.fixture()
def bell_file(tmp_path):
    p = tmp_path / "bell.json"
    p.write_text(state_to_json(pure_density(schmidt_vector(np.pi / 2))))
    return p


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_bell(bell_file, capsys):
    code, out, _ = _run(capsys, ["analyze", str(bell_file)])
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2 and doc["m"] == 2
    assert doc["gram"]["local_dim"] == 3
    assert abs(doc["entanglement"]["concurrence"] - 1.0) <= 1e-9
    assert abs(doc["entanglement"]["eof"] - 1.0) <= 1e-9
    assert doc["entanglement"]["ppt_verdict"] == "entangled"
    assert doc["weyl"]["label"] == "K_13"
    assert doc["canonical"]["type"] == "pure"
    assert abs(doc["canonical"]["theta"] - np.pi / 2) <= 1e-9
    assert doc["effective_dim"] == 3
    # lossless JSON round trip
    assert json.loads(json.dumps(doc)) == doc


def _key_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")


_COMMON_PATHS = [
    "k", "m", "input", "input.path", "input.format",
    "bloch", "bloch.k", "bloch.m", "bloch.a", "bloch.b", "bloch.g",
    "gram", "gram.spectrum", "gram.local_dim",
    "weyl", "weyl.spectrum", "weyl.pattern", "weyl.label", "weyl.global_dim",
    "entanglement", "entanglement.concurrence", "entanglement.eof", "entanglement.ppt_spectrum",
    "entanglement.ppt_verdict", "entanglement.in_maximal_ball", "entanglement.cstar",
    "entanglement.absolutely_separable",
    "canonical",
]


def test_analyze_key_paths_are_pinned(bell_file, tmp_path, capsys):
    # the report serialises the Bloch, Weyl and entanglement dataclasses whole,
    # so a new field in any of them shows up here as a schema change
    code, out, _ = _run(capsys, ["analyze", str(bell_file)])
    assert code == 0
    canonical = ["canonical.type", "canonical.theta", "canonical.stratum", "canonical.orbit_dim"]
    assert list(_key_paths(json.loads(out))) == _COMMON_PATHS + canonical + ["effective_dim"]
    mixed = tmp_path / "mixed_2x3.json"
    mixed.write_text(state_to_json(random_state("mixed", 2, 3, seed=5)))
    code, out, _ = _run(capsys, ["analyze", str(mixed)])
    assert code == 0
    doc = json.loads(out)
    assert list(_key_paths(doc)) == _COMMON_PATHS + ["effective_dim"]
    assert doc["canonical"] is None and doc["entanglement"]["concurrence"] is None
    assert len(doc["bloch"]["g"]) == 3 and len(doc["bloch"]["g"][0]) == 8


def test_analyze_maximally_mixed(tmp_path, capsys):
    p = tmp_path / "mm.json"
    p.write_text(json.dumps({
        "k": 2, "m": 2,
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }))
    code, out, _ = _run(capsys, ["analyze", str(p)])
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"]["local_dim"] == 0
    assert doc["weyl"]["label"] == "K_4"
    assert doc["entanglement"]["ppt_verdict"] == "separable"
    assert doc["entanglement"]["in_maximal_ball"] is True
    assert doc["canonical"]["type"] == "mixed"
    np.testing.assert_allclose(doc["canonical"]["mu"], [0, 0, 0], atol=1e-12)


def test_analyze_bloch_input(tmp_path, capsys):
    p = tmp_path / "bloch.json"
    p.write_text(json.dumps({
        "k": 2, "m": 2, "a": [0.1, 0, 0], "b": [0.05, 0, 0],
        "g": [[0.1, 0, 0], [0, 0, 0], [0, 0, 0]],
    }))
    code, out, _ = _run(capsys, ["analyze", str(p)])
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["format"] == "bloch"
    assert doc["gram"]["local_dim"] == 4
    assert doc["canonical"]["type"] == "mixed"


def test_analyze_error_paths(tmp_path, capsys):
    code, _, err = _run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 2 and "malformed JSON" in err
    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"k": 2, "m": 2}))
    assert _run(capsys, ["analyze", str(neither)])[0] == 2
    nonpsd = tmp_path / "nonpsd.json"
    diag = [0.6, 0.5, 0.0, -0.1]
    nonpsd.write_text(json.dumps({
        "k": 2, "m": 2,
        "matrix": [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }))
    code, _, err = _run(capsys, ["analyze", str(nonpsd)])
    assert code == 2 and "positive semidefinite" in err


def test_dims_command(capsys):
    code, out, _ = _run(capsys, ["dims", "2", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "k": 2, "m": 3, "max_local_dim": 11,
        "generic_global_dim": 30, "effective_dim": 19,
    }
    assert _run(capsys, ["dims", "1", "3"])[0] == 2


def test_ball_check_spectrum(capsys):
    code, out, _ = _run(capsys, ["ball-check", "--spectrum", "0.47,0.30,0.13,0.10"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["purity"] - 0.3378) <= 1e-12
    assert doc["in_ball"] is False
    assert doc["cstar"] == 0.0
    assert doc["absolutely_separable"] == "yes_conjectural"


def test_ball_check_state_file(bell_file, capsys):
    code, out, _ = _run(capsys, ["ball-check", str(bell_file)])
    assert code == 0
    doc = json.loads(out)
    assert doc["in_ball"] is False
    assert abs(doc["cstar"] - 1.0) <= 1e-9
    assert doc["absolutely_separable"] == "no"


def test_ball_check_input_contract(bell_file, capsys):
    assert _run(capsys, ["ball-check"])[0] == 2
    assert _run(capsys, ["ball-check", str(bell_file), "--spectrum", "1,0,0,0"])[0] == 2
    assert _run(capsys, ["ball-check", "--spectrum", "0.6,0.3"])[0] == 2  # sums to 0.9
    assert _run(capsys, ["ball-check", "--spectrum", "abc"])[0] == 2


@pytest.mark.parametrize("spectrum", ["nan,0.5,0.25,0.25", "inf,0.5,0.25,0.25", "0.5,nan,0.5"])
def test_ball_check_rejects_non_finite_spectrum(spectrum, capsys):
    code, out, err = _run(capsys, ["ball-check", "--spectrum", spectrum])
    assert code == 2 and out == "" and "finite" in err


def test_analyze_rejects_non_finite_matrix(tmp_path, capsys):
    p = tmp_path / "nan.json"
    diag = [float("nan"), 0.5, 0.25, 0.25]
    p.write_text(json.dumps({
        "k": 2, "m": 2,
        "matrix": [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }))
    code, out, err = _run(capsys, ["analyze", str(p)])
    assert code == 2 and out == "" and "non-finite" in err


def test_analyze_rejects_non_finite_bloch_coefficient(tmp_path, capsys):
    p = tmp_path / "nan-bloch.json"
    p.write_text(json.dumps({
        "k": 2, "m": 2, "a": [float("nan"), 0, 0], "b": [0.05, 0, 0],
        "g": [[0.1, 0, 0], [0, 0, 0], [0, 0, 0]],
    }))
    code, out, err = _run(capsys, ["analyze", str(p)])
    assert code == 2 and out == "" and "non-finite" in err and "Traceback" not in err


def _solver_calls(capsys, monkeypatch, argv):
    """Run argv twice, the second time counting eigvalsh and eigh calls;
    both runs must print the same output."""
    _, want, _ = _run(capsys, argv)
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counting(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out == want
    return calls


def test_analyze_solves_the_state_spectrum_once(bell_file, capsys, monkeypatch):
    # eigvalsh: the state spectrum (DensityMatrix.spectrum, read by
    # validate_density, weyl_cell and entanglement_report), the Gram and the
    # partial-transpose spectra; eigh: xi_spectra and the pure canonical form
    calls = _solver_calls(capsys, monkeypatch, ["analyze", str(bell_file)])
    assert calls == {"eigvalsh": 3, "eigh": 2}


def test_ball_check_solves_the_state_spectrum_once(bell_file, capsys, monkeypatch):
    # the unit spectrum reads DensityMatrix.spectrum, solved by validate_density
    calls = _solver_calls(capsys, monkeypatch, ["ball-check", str(bell_file)])
    assert calls == {"eigvalsh": 1, "eigh": 0}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "abc"])
@pytest.mark.parametrize("argv", [
    ["analyze", "state.json"],
    ["appendix-verify", "--cases", "1", "--samples", "1"],
    ["random-scan", "--k", "2", "--m", "2", "--count", "2", "--out", "scan.csv"],
    ["ball-check", "--spectrum", "0.25,0.25,0.25,0.25"],
], ids=["analyze", "appendix-verify", "random-scan", "ball-check"])
def test_tol_must_be_finite_and_nonnegative(argv, tol, tmp_path, capsys):
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_werner_scan_grid(tmp_path, capsys):
    out = tmp_path / "werner.csv"
    code, _, _ = _run(capsys, ["werner-scan", "--x-steps", "5", "--theta-steps", "4",
                               "--out", str(out)])
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "x,theta,concurrence,eof,min_pt_eigenvalue,in_ball"
    assert len(lines) == 22 and lines[-1] == ""
    last = lines[-2].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[1]) - np.pi / 2) <= 1e-15
    assert abs(float(last[2]) - 1.0) <= 1e-12
    assert abs(float(last[4]) + 0.5) <= 1e-12
    assert last[5] == "0"
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "0"] and first[5] == "1"


def test_werner_scan_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, ["werner-scan", "--x-steps", "4", "--theta-steps", "3", "--out", str(a)])[0] == 0
    assert _run(capsys, ["werner-scan", "--x-steps", "4", "--theta-steps", "3", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_werner_scan_blocks_match_per_state_reference(tmp_path, capsys):
    # 23 x 13 = 299 states: one full block and a partial last one
    nx, nt = 23, 13
    assert WERNER_BLOCK < nx * nt < 2 * WERNER_BLOCK
    out = tmp_path / "werner.csv"
    assert _run(capsys, ["werner-scan", "--x-steps", str(nx), "--theta-steps", str(nt),
                         "--out", str(out)])[0] == 0
    ref = ["x,theta,concurrence,eof,min_pt_eigenvalue,in_ball\n"]
    for x in np.linspace(0.0, 1.0, nx):
        for theta in np.linspace(0.0, np.pi / 2.0, nt):
            w = werner_state(float(x), float(theta))
            c = concurrence_mixed(w)
            cells = [x, theta, c, entanglement_of_formation(c), ppt_check(w).spectrum[0]]
            flag = "1" if maximal_ball_check(w) else "0"
            ref.append(",".join(format(float(v), ".17g") for v in cells) + f",{flag}\n")
    assert out.read_bytes() == "".join(ref).encode("ascii")


def test_werner_scan_errors(tmp_path, capsys):
    assert _run(capsys, ["werner-scan", "--x-steps", "1", "--theta-steps", "4",
                         "--out", str(tmp_path / "x.csv")])[0] == 2
    assert _run(capsys, ["werner-scan", "--out", str(tmp_path / "no-dir" / "x.csv")])[0] == 2


def test_random_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = _run(capsys, ["random-scan", "--k", "2", "--m", "2", "--count", "8",
                                 "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,local_dim,gram_min,gram_max,ppt_verdict"
    assert len(lines) == 9
    assert all(line.split(",")[1] == "6" for line in lines[1:])
    assert "fraction 1.000000" in err
    rerun = tmp_path / "scan2.csv"
    _run(capsys, ["random-scan", "--k", "2", "--m", "2", "--count", "8",
                  "--seed", "4", "--out", str(rerun)])
    assert out.read_bytes() == rerun.read_bytes()
    assert _run(capsys, ["random-scan", "--k", "2", "--m", "2", "--count", "0",
                         "--out", str(out)])[0] == 2


def test_appendix_verify_exit_codes(tmp_path, capsys):
    code, out, err = _run(capsys, ["appendix-verify", "--cases", "1", "--samples", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True and set(doc["cases"]) == {"1"}
    assert "case 1: ok" in err

    code, out, err = _run(capsys, ["appendix-verify", "--cases", "4", "--samples", "3"])
    assert code == 3
    assert json.loads(out)["cases"]["4"]["typo_candidates"] == ["xi"]
    assert "MISMATCH" in err

    report = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["appendix-verify", "--cases", "1-3,5", "--samples", "3",
                                 "--out", str(report)])
    assert code == 0 and out == ""
    assert json.loads(report.read_text())["all_match"] is True

    assert _run(capsys, ["appendix-verify", "--cases", "0"])[0] == 2
    assert _run(capsys, ["appendix-verify", "--cases", "x"])[0] == 2
    assert _run(capsys, ["appendix-verify", "--samples", "0"])[0] == 2


def test_case_ranges_are_bounded_before_they_are_expanded(capsys):
    tracemalloc.start()
    try:
        with pytest.raises(_CliError):
            _parse_cases("1-200000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    code, out, err = _run(capsys, ["appendix-verify", "--cases", "1-1000000000"])
    assert code == 2 and out == ""
    assert "subset of 1..9" in err
    assert _parse_cases("5-3,2") == [2]


def test_appendix_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ORBIT_ATLAS_SEED", "5")
    _, out_env, _ = _run(capsys, ["appendix-verify", "--cases", "5", "--samples", "4"])
    monkeypatch.delenv("ORBIT_ATLAS_SEED")
    _, out_flag, _ = _run(capsys, ["appendix-verify", "--cases", "5", "--samples", "4",
                                   "--seed", "5"])
    assert json.loads(out_env) == json.loads(out_flag)


def test_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("ORBIT_ATLAS_SEED", "pi")
    assert _run(capsys, ["appendix-verify", "--cases", "1", "--samples", "1"])[0] == 2


def test_usage_error_exits_via_argparse():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["analyze"])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "orbit_atlas", "dims", "2", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_local_dim"] == 6


# appendix-verify writes its report from per-case templates; json.dumps(indent=2) is the oracle


def _first_difference(got: str, want: str):
    """None for equal texts, else the first differing line's number and both lines
    (pytest's own diff of two long texts takes minutes)."""
    if got == want:
        return None
    a, b = got.splitlines(), want.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i + 1, a[i:i + 1], b[i:i + 1]


@pytest.mark.parametrize("seed", range(5))
def test_report_is_written_as_json_dumps_indent_2(seed, capsys):
    _, out, _ = _run(capsys, ["appendix-verify", "--seed", str(seed)])
    assert _first_difference(out, json.dumps(verify_cases(samples=100, seed=seed), indent=2) + "\n") is None


@pytest.mark.parametrize("samples", (1, 5))
@pytest.mark.parametrize("cases", ("1-9", "4", "7-9"))
def test_report_subsets_are_written_as_json_dumps_indent_2(cases, samples, tmp_path, capsys):
    out = tmp_path / "report.json"
    _run(capsys, ["appendix-verify", "--cases", cases, "--samples", str(samples), "--seed", "3",
                  "--out", str(out)])
    want = verify_cases(_parse_cases(cases), samples=samples, seed=3)
    assert _first_difference(out.read_text(), json.dumps(want, indent=2) + "\n") is None


def test_report_with_non_finite_residuals_is_written_as_json_dumps_indent_2(monkeypatch, capsys):
    spec = submaximal.CASES[3]

    def nan_w_eigs(*args):
        return replace(spec.predict(*args), w_eigs=np.full(4, np.nan, dtype=complex))

    monkeypatch.setitem(submaximal.CASES, 3, replace(spec, predict=nan_w_eigs))
    code, out, err = _run(capsys, ["appendix-verify", "--cases", "2-4", "--samples", "5"])
    report = verify_cases([2, 3, 4], samples=5, seed=0)
    assert _first_difference(out, json.dumps(report, indent=2) + "\n") is None
    assert code == 3 and "case 3: MISMATCH (w_eig)" in err
    # a float NaN or infinity left in a report is written as json.dumps writes it
    points = report["cases"]["3"]["points"]
    points[0]["residuals"]["w_eig"], points[1]["residuals"]["xi"] = float("nan"), float("-inf")
    points[2]["params"]["mu"] = float("inf")
    assert _first_difference(_report_json(report), json.dumps(report, indent=2)) is None
