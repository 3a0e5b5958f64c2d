import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import darwinlab
from darwinlab import numeric
from darwinlab.cli import main
from darwinlab.darwin import git_blob_sha
from darwinlab.photon import CONSTANTS

LN2 = math.log(2.0)


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run(tmp_path, "pip", "--model", "cnot", "--n", "8", "--seed", "0") == 0

    def test_seed_is_mandatory(self, tmp_path):
        assert run(tmp_path, "pip", "--model", "cnot") == 1

    def test_negative_seed(self, tmp_path):
        assert run(tmp_path, "pip", "--seed", "-3") == 1

    def test_unknown_flag(self, capsys):
        assert main(["pip", "--frobnicate", "1", "--seed", "0"]) == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path):
        assert run(tmp_path, "pip", "--model", "quux", "--seed", "0") == 1

    def test_cap_exceeded_is_code_2(self, tmp_path):
        # 25 bath qubits + the system blows the dense-simulation cap
        assert run(tmp_path, "pip", "--model", "interacting", "--n", "25",
                   "--seed", "0") == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_subcommand(self):
        assert main([]) == 1


class TestConfigMerge:
    def test_file_supplies_values(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nmodel = cnot\nn = 12\nseed = 7\nsamples = 8\n")
        assert run(tmp_path, "pip", "--config", str(ini)) == 0
        cfg = json.loads((tmp_path / "pip.json").read_text())["config"]
        assert cfg["n"] == 12
        assert cfg["seed"] == 7
        assert cfg["samples"] == 8

    def test_flags_beat_the_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nmodel = cnot\nn = 12\nseed = 7\n")
        assert run(tmp_path, "pip", "--config", str(ini), "--n", "6") == 0
        cfg = json.loads((tmp_path / "pip.json").read_text())["config"]
        assert cfg["n"] == 6
        assert cfg["seed"] == 7

    def test_dashed_keys_accepted(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[sweep]\nmodel = central-spin\nn = 5\nt = 4\n"
                       "fragment-size = 1\nmu-points = 3\nseed = 0\n")
        assert run(tmp_path, "sweep", "--config", str(ini)) == 0
        cfg = json.loads((tmp_path / "sweep.json").read_text())["config"]
        assert cfg["fragment_size"] == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nbogus = 1\nseed = 0\n")
        assert run(tmp_path, "pip", "--config", str(ini)) == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nn = twelve\nseed = 0\n")
        assert run(tmp_path, "pip", "--config", str(ini)) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert run(tmp_path, "pip", "--config", str(tmp_path / "nope.ini"),
                   "--seed", "0") == 1

    def test_other_sections_ignored(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[qbm]\nbands = 8\n\n[pip]\nmodel = cnot\nn = 6\nseed = 1\n")
        assert run(tmp_path, "pip", "--config", str(ini)) == 0


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["pip", "--model", "central-spin", "--n", "10",
                         "--t", "4", "--seed", "5", "--out", str(out)]) == 0
        assert (a / "pip.csv").read_bytes() == (b / "pip.csv").read_bytes()
        assert (a / "pip.json").read_bytes() == (b / "pip.json").read_bytes()

    def test_seed_changes_the_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["pip", "--model", "central-spin", "--n", "10", "--seed", "5",
              "--out", str(a)])
        main(["pip", "--model", "central-spin", "--n", "10", "--seed", "6",
              "--out", str(b)])
        assert (a / "pip.csv").read_bytes() != (b / "pip.csv").read_bytes()

    def test_csv_format(self, tmp_path):
        run(tmp_path, "pip", "--model", "cnot", "--n", "6", "--seed", "0")
        raw = (tmp_path / "pip.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        text = raw.decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "f,sharpF,meanI_nats,stddev,samples"
        assert len(lines) == 8
        # full-precision floats, decimal point, no locale surprises
        f, sharp, mean, std, count = lines[3].split(",")
        assert int(sharp) == 2
        assert float(mean) == pytest.approx(LN2, abs=1e-12)

    def test_manifest_shape(self, tmp_path):
        run(tmp_path, "pip", "--model", "cnot", "--n", "6", "--seed", "0")
        m = json.loads((tmp_path / "pip.json").read_text())
        assert m["format"] == "darwinlab.run.v1"
        assert m["command"] == "pip"
        assert set(m["versions"]) == {"python", "numpy", "scipy", "darwinlab"}
        assert m["config"]["seed"] == 0
        assert "out" not in m["config"]
        sha = git_blob_sha((tmp_path / "pip.csv").read_bytes())
        assert m["csv"]["sha"] == sha

    def test_output_dir_created(self, tmp_path):
        nested = tmp_path / "runs" / "first"
        assert main(["envariance", "--finegraining", "1:1", "--seed", "0",
                     "--out", str(nested)]) == 0
        assert (nested / "envariance.json").exists()


class TestCommands:
    def test_redundancy_report(self, tmp_path):
        assert run(tmp_path, "redundancy", "--model", "cnot", "--n", "20",
                   "--seed", "0") == 0
        rep = json.loads((tmp_path / "redundancy.json").read_text())["report"]
        assert rep["r_delta"] == pytest.approx(20.0)
        assert rep["plateau_reached"] is True
        assert rep["r_delta_d"] == pytest.approx(20.0)

    @pytest.mark.parametrize("model", ["central-spin", "hazy"])
    def test_rounding_floor_entropy_exits_1(self, tmp_path, capsys, model):
        # t = 0: H_S is rounding alone (2e-15 on central spin), not a record
        assert run(tmp_path, "redundancy", "--model", model, "--n", "8", "--t", "0",
                   "--seed", "0") == 1
        assert "system entropy is zero" in capsys.readouterr().err

    def test_sweep_csv(self, tmp_path):
        assert run(tmp_path, "sweep", "--model", "central-spin", "--n", "6",
                   "--t", "6", "--fragment-size", "2", "--mu-points", "5",
                   "--seed", "0") == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("mu,chi_nats,h_observable_nats,"
                            "h_conditional_nats,fragments_passing,redundant")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[5] == "1"

    @pytest.mark.parametrize("model", ["photon", "hazy"])
    def test_sweep_needs_a_dense_state(self, tmp_path, capsys, model):
        assert run(tmp_path, "sweep", "--model", model, "--n", "8", "--seed", "0") == 1
        assert "error: source has no dense state" in capsys.readouterr().err

    def test_qbm_tracks_the_squeezing(self, tmp_path):
        assert run(tmp_path, "qbm", "--bands", "32", "--samples", "12",
                   "--seed", "0") == 0
        rep = json.loads((tmp_path / "qbm.json").read_text())["report"]
        assert rep["h_system_nats"] == pytest.approx(math.log(1e3), rel=0.10)
        assert 0.5 < rep["r_delta"] / rep["r_delta_expected"] < 2.0

    def test_photon_preset_headline(self, tmp_path, capsys):
        assert run(tmp_path, "photon", "--preset", "dust-grain-sunlight",
                   "--t", "1e-6", "--seed", "0") == 0
        rep = json.loads((tmp_path / "photon.json").read_text())["report"]
        assert 1e7 < rep["r_delta"] < 1e9
        assert rep["t_over_tau"] == pytest.approx(rep["rate_per_s"] * 1e-6)
        assert not (tmp_path / "photon.csv").exists()
        assert "e+07" in capsys.readouterr().out

    def test_photon_unknown_preset(self, tmp_path):
        assert run(tmp_path, "photon", "--preset", "lab-bench", "--seed", "0") == 1

    def test_photon_curve(self, tmp_path):
        assert run(tmp_path, "photon", "--t-over-tau", "10", "--n", "128",
                   "--seed", "0") == 0
        rep = json.loads((tmp_path / "photon.json").read_text())["report"]
        assert rep["r_delta_measured"] == pytest.approx(rep["r_delta_formula"],
                                                        rel=0.15)
        assert (tmp_path / "photon.csv").exists()

    def test_envariance_famous_split(self, tmp_path, capsys):
        assert run(tmp_path, "envariance", "--finegraining", "2:1",
                   "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "2/3" in out and "1/3" in out
        rep = json.loads((tmp_path / "envariance.json").read_text())["report"]
        assert rep["probabilities"] == ["2/3", "1/3"]
        assert rep["ancilla_dimension"] == 3

    def test_envariance_bad_spec(self, tmp_path):
        assert run(tmp_path, "envariance", "--finegraining", "2:x",
                   "--seed", "0") == 1

    def test_reversal(self, tmp_path):
        assert run(tmp_path, "reversal", "--amplitudes", "0.8,0.6",
                   "--seed", "0") == 0
        rep = json.loads((tmp_path / "reversal.json").read_text())["report"]
        assert rep["without_copy_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert rep["with_copy_weights"] == pytest.approx([0.64, 0.36], abs=1e-12)

    def test_reversal_bad_amplitudes(self, tmp_path):
        assert run(tmp_path, "reversal", "--amplitudes", "a,b", "--seed", "0") == 1

    def test_baseline(self, tmp_path):
        assert run(tmp_path, "baseline", "--n", "8", "--states", "4",
                   "--samples", "6", "--seed", "1") == 0
        rep = json.loads((tmp_path / "baseline.json").read_text())["report"]
        assert rep["r_delta_min"] <= rep["r_delta_mean"] <= rep["r_delta_max"]
        assert 1.3 < rep["r_delta_mean"] < 3.5


class TestNoScipyOnTheRunPath:
    """The CLI imports no scipy; hazy and photon runs load neither
    scipy.optimize nor scipy.special, and qbm and c-not runs load no scipy
    module at all. The hazy redundancy scan loads no numpy.ma."""

    @staticmethod
    def _fresh(code: str) -> list:
        """Run code in a fresh interpreter on this source tree; its stdout lines."""
        src = str(Path(darwinlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    def test_fresh_interpreter(self, tmp_path):
        lines = self._fresh(f"""
            import sys
            import darwinlab.cli
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            for argv in (["redundancy", "--model", "hazy", "--n", "16"],
                         ["photon", "--t-over-tau", "10"]):
                out = {str(tmp_path)!r} + "/" + argv[0] + argv[2]
                assert darwinlab.cli.main([*argv, "--seed", "1", "--out", out]) == 0
            print(sorted(m for m in ("scipy.optimize", "scipy.special")
                         if m in sys.modules))
        """)
        assert lines[0] == "[]"
        assert lines[-1] == "[]"

    def test_hazy_redundancy_loads_no_numpy_ma(self):
        # np.unique would import numpy.ma (about 0.5 MB, 14 ms) on first use
        lines = self._fresh("""
            import sys
            import numpy as np
            from darwinlab.spinmodels import CentralSpinParams, HazyParams, hazy_redundancy
            hazy_redundancy(CentralSpinParams(np.full(32, 0.3), t=0.5), HazyParams(0.3))
            print("numpy.ma" in sys.modules)
        """)
        assert lines == ["False"]

    def test_qbm_run_loads_no_scipy(self, tmp_path):
        lines = self._fresh(f"""
            import sys
            import darwinlab.cli
            argv = ["qbm", "--bands", "16", "--samples", "4", "--seed", "1"]
            assert darwinlab.cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        assert lines[-1] == "[]"
        assert (tmp_path / "qbm.csv").exists()

    def test_cnot_run_and_manifest_load_no_scipy(self, tmp_path):
        lines = self._fresh(f"""
            import sys
            import darwinlab.cli
            argv = ["redundancy", "--model", "cnot", "--n", "20", "--seed", "1"]
            assert darwinlab.cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        assert lines[-1] == "[]"
        assert "scipy" in json.loads((tmp_path / "redundancy.json").read_text())["versions"]

    def test_photon_literals_are_scipys_values(self):
        from scipy import constants, special
        assert CONSTANTS.c == constants.c
        assert CONSTANTS.hbar == constants.hbar
        assert CONSTANTS.k_b == constants.k
        assert CONSTANTS.zeta7 == float(special.zeta(7))
        assert CONSTANTS.zeta9 == float(special.zeta(9))

    def test_manifest_names_the_scipy_version(self, tmp_path):
        import scipy
        run(tmp_path, "pip", "--model", "cnot", "--n", "6", "--seed", "0")
        m = json.loads((tmp_path / "pip.json").read_text())
        assert m["versions"]["scipy"] == scipy.__version__


class TestBlasThreads:
    """The Gaussian path pins BLAS to one thread, so its bytes do not follow
    OPENBLAS_NUM_THREADS."""

    def test_qbm_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        if numeric._openblas_threads() is None:
            pytest.skip("numpy ships no scipy-openblas")
        src = str(Path(darwinlab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / threads
            argv = ["qbm", "--bands", "64", "--samples", "4", "--seed", "3", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "darwinlab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes() for name in ("qbm.csv", "qbm.json")])
        assert outputs[0] == outputs[1]
