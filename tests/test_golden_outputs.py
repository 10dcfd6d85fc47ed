"""tools/golden_outputs.py: its fixtures are valid states and a run leaves the named files."""

import importlib.util
import json
from pathlib import Path

from orbit_atlas import bloch_from_json, compose_bloch, state_from_json, validate_density

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_outputs.py"
_spec = importlib.util.spec_from_file_location("golden_outputs", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_fixtures_are_valid_states_and_names_are_unique():
    for payload in golden.fixtures().values():
        w = state_from_json(payload) if "matrix" in payload else compose_bloch(bloch_from_json(payload))
        validate_density(w)
    names = [name for name, _ in golden.commands()]
    assert len(names) == len(set(names))


def test_run_writes_outputs_and_exit_codes(tmp_path, monkeypatch):
    picked = ["analyze-bell", "ball-check-mixed_2x3", "dims-3-4", "random-scan-pure-2x3-seed3"]
    cmds = [c for c in golden.commands() if c[0] in picked]
    monkeypatch.setattr(golden, "commands", lambda: cmds)
    assert golden.main([str(tmp_path)]) == 0
    assert (tmp_path / "exit_codes.txt").read_text() == "".join(f"{name} 0\n" for name in picked)
    report = json.loads((tmp_path / "analyze-bell.out").read_text())
    assert report["input"]["path"] == "states/bell.json" and report["gram"]["local_dim"] == 3
    csv = (tmp_path / "random-scan-pure-2x3-seed3.csv").read_text().splitlines()
    assert csv[0] == "index,local_dim,gram_min,gram_max,ppt_verdict"
    assert len(csv) == golden.RANDOM_COUNT + 1
    assert (tmp_path / "random-scan-pure-2x3-seed3.err").read_text().startswith("local_dim=")
