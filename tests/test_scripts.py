"""Smoke runs of the study scripts at small sizes."""
import csv
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_haze_sweep(tmp_path, monkeypatch):
    out = tmp_path / "haze_sweep.csv"
    monkeypatch.setattr(sys, "argv", ["haze_sweep.py", "--n", "24", "--points", "3",
                                      "--out", str(out)])
    _load("haze_sweep").main()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "h_over_hm,r_ratio,linear_estimate,classical_m1,quantum_m1"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 3
    assert float(rows[0]["h_over_hm"]) == 0.0
    assert float(rows[0]["r_ratio"]) == 1.0
