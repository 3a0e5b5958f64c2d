"""Smoke runs of the study scripts at small sizes."""
import csv
import importlib.util
import math
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


def test_rise_and_fall_small_bath(tmp_path, monkeypatch):
    out = tmp_path / "r_of_t.csv"
    monkeypatch.setattr(sys, "argv", ["rise_and_fall.py", "--n", "6", str(out)])
    _load("rise_and_fall").main()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,r_delta,h_system_nats"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 17
    ts = [float(r["t"]) for r in rows]
    assert ts == sorted(ts) and ts[0] == 0.25 and ts[-1] == 500.0
    # R = n / sharpF cannot exceed the bath size of 6
    assert all(0.0 < float(r["r_delta"]) <= 6.0 for r in rows)
    assert all(0.0 < float(r["h_system_nats"]) <= math.log(2.0) + 1e-12 for r in rows)


def test_rise_and_fall_draws(tmp_path, monkeypatch):
    scan = tmp_path / "r_of_t.csv"
    monkeypatch.setattr(sys, "argv", ["rise_and_fall.py", "--n", "6", str(scan)])
    module = _load("rise_and_fall")
    module.main()
    out = tmp_path / "r_peaks.csv"
    monkeypatch.setattr(sys, "argv", ["rise_and_fall.py", "--n", "6", "--draws", "2", str(out)])
    module.main()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed,t_peak,r_peak,r_first,r_last"
    rows = list(csv.DictReader(lines))
    assert [int(r["seed"]) for r in rows] == [module.SEED, module.SEED + 1]
    for r in rows:
        assert float(r["r_peak"]) >= max(float(r["r_first"]), float(r["r_last"]))
        assert 0.25 <= float(r["t_peak"]) <= 500.0
    # the first draw is the default scan
    default = list(csv.DictReader(scan.read_text(encoding="utf-8").splitlines()))
    assert float(rows[0]["r_peak"]) == max(float(r["r_delta"]) for r in default)
    assert float(rows[0]["r_first"]) == float(default[0]["r_delta"])
    assert float(rows[0]["r_last"]) == float(default[-1]["r_delta"])


def test_oscillator_overlay_small_bath(tmp_path, monkeypatch):
    out = tmp_path / "overlay.csv"
    monkeypatch.setattr(sys, "argv", ["oscillator_overlay.py", "--bands", "16",
                                      "--samples", "4", "--out", str(out)])
    _load("oscillator_overlay").main()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "f,measured_nats,universal_nats"
    rows = list(csv.reader(lines[1:]))
    # every size strictly between 0 and the 16 bands
    assert len(rows) == 15
    assert all(len(r) == 3 and all(math.isfinite(float(v)) for v in r) for r in rows)
