import json
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import darwinlab
from darwinlab import cli, darwin, numeric
from darwinlab.cli import main
from darwinlab.darwin import BranchingSource, git_blob_sha
from darwinlab.photon import CONSTANTS
from darwinlab.spinmodels import cnot_model
from helpers import assert_no_children, count_forks, fail_at, force_lanes

LN2 = math.log(2.0)


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestParser:
    """Only the named subcommand is built; help and usage are unchanged."""

    @staticmethod
    def _help(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as done:
            main(list(argv))
        assert done.value.code == 0
        return capsys.readouterr().out

    def test_top_help_lists_every_subcommand(self, capsys):
        out = self._help(capsys, "--help")
        assert "{" + ",".join(cli._OPTIONS) + "}" in out
        assert len(cli._OPTIONS) == 8

    def test_subcommand_help_lists_its_options(self, capsys):
        out = self._help(capsys, "pip", "--help")
        assert out.startswith("usage: darwinlab pip ")
        for key in ["config", "seed", "out", *cli._OPTIONS["pip"]]:
            assert "--" + key.replace("_", "-") in out
        assert "--delta" not in out

    def test_only_the_named_subcommand_is_built(self):
        usage = lambda argv: cli._build_argparser(argv).format_usage()
        assert "{baseline}" in usage(["baseline", "--seed", "1"])
        for argv in ([], ["--help"], ["bogus"], ["--seed", "1", "pip"]):
            assert "{" + ",".join(cli._OPTIONS) + "}" in usage(argv)

    def test_python_version_as_platform_gives_it(self):
        assert cli._versions()["python"] == platform.python_version()


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

    @pytest.mark.parametrize("text", ["seed = 1\n", "[pip]\nseed = 1\nseed = 2\n",
                                      "[pip]\nseed = 1\nmodel = 5%\n"],
                             ids=["no-section-header", "duplicate-option", "bare-percent"])
    def test_malformed_file_exits_1(self, tmp_path, capsys, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert run(tmp_path, "pip", "--config", str(ini)) == 1
        assert "error: malformed config file" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv, known", [
        (("--model", "interacting", "--sigma-m", "0"), True),
        (("--model", "interacting", "--sigma-m", "0.001"), False),
        (("--model", "haar",), False),
    ])
    def test_r_delta_d_null_without_counterfactual(self, tmp_path, argv, known):
        assert run(tmp_path, "redundancy", *argv, "--n", "6", "--seed", "0") == 0
        rep = json.loads((tmp_path / "redundancy.json").read_text())["report"]
        assert (rep["r_delta_d"] is not None) == known

    def test_counterfactual_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        class Faulty(BranchingSource):
            def decohered_system_entropy(self, idx):
                raise ValueError("counterfactual fault")

        source = Faulty(cnot_model(1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 8))
        monkeypatch.setattr(cli, "_model_source", lambda cfg, seed: source)
        assert run(tmp_path, "redundancy", "--seed", "0") == 1
        assert "error: counterfactual fault" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (("sweep", "--model", "central-spin", "--n", "6", "--mu-points", "0"), "--mu-points"),
        (("baseline", "--n", "6", "--states", "0"), "--states"),
    ])
    def test_count_below_one_exits_1(self, tmp_path, capsys, argv, option):
        assert run(tmp_path, *argv, "--seed", "0") == 1
        assert f"error: {option} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option, value", [
        (("pip", "--model", "central-spin", "--n", "6", "--t", "nan"), "--t", "nan"),
        (("pip", "--model", "central-spin", "--n", "6", "--t", "inf"), "--t", "inf"),
        (("redundancy", "--model", "interacting", "--n", "6", "--sigma-d", "nan"),
         "--sigma-d", "nan"),
        (("pip", "--model", "hazy", "--n", "6", "--coupling", "nan"), "--coupling", "nan"),
        (("pip", "--model", "hazy", "--n", "6", "--haze=-inf"), "--haze", "-inf"),
        (("pip", "--model", "hazy", "--n", "6", "--haze", "-inf"), "--haze", "-inf"),
        (("pip", "--model", "central-spin", "--n", "6", "--t", "-inf"), "--t", "-inf"),
    ])
    def test_non_finite_float_exits_1(self, tmp_path, capsys, argv, option, value):
        assert run(tmp_path, *argv, "--seed", "1") == 1
        err = capsys.readouterr().err
        assert f"error: {option} must be finite, not {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5e1", "-2"])
    def test_negative_value_after_a_space(self, tmp_path, value):
        # argparse alone reads -1e-3 as a flag; the run must equal --t=value
        a, b = tmp_path / "a", tmp_path / "b"
        opts = ["pip", "--model", "central-spin", "--n", "6", "--seed", "1"]
        assert main([*opts, "--t", value, "--out", str(a)]) == 0
        assert main([*opts, f"--t={value}", "--out", str(b)]) == 0
        for name in ("pip.csv", "pip.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("command, option, value, code, text", [
        ("reversal", "--amplitudes", "-0.8,0.6", 0, "weights 0.640000, 0.360000"),
        ("envariance", "--finegraining", "-1:2", 1,
         "error: numerators must be nonnegative integers"),
    ], ids=["reversal", "envariance"])
    def test_negative_list_value_after_a_space(self, tmp_path, capsys, command, option,
                                               value, code, text):
        # a list whose first entry is negative joins its option as a number does
        runs = []
        for out, form in ((tmp_path / "a", [option, value]), (tmp_path / "b", [f"{option}={value}"])):
            out.mkdir()
            rc = main([command, *form, "--seed", "0", "--out", str(out)])
            std = capsys.readouterr()
            runs.append((rc, std.out, std.err,
                         {f.name: f.read_bytes() for f in out.iterdir()}))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        assert text in runs[0][1] + runs[0][2]

    def test_negative_value_from_sys_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["darwinlab", "pip", "--model", "hazy", "--n", "6",
                                          "--haze", "-inf", "--seed", "1", "--out", str(tmp_path)])
        assert main() == 1
        assert "error: --haze must be finite, not -inf" in capsys.readouterr().err

    def test_negative_value_joins_only_its_option(self):
        argv = ["pip", "--t", "-1e-3", "--haze", "-inf", "--seed", "1", "--out", "-x",
                "--n=4", "-5", "--delta", "0.1"]
        assert cli._attach_negative_values(argv) == [
            "pip", "--t=-1e-3", "--haze=-inf", "--seed", "1", "--out", "-x",
            "--n=4", "-5", "--delta", "0.1"]

    def test_non_finite_float_in_config_exits_1(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nmodel = central-spin\nn = 6\nt = nan\nseed = 1\n")
        assert run(tmp_path, "pip", "--config", str(ini)) == 1
        assert "error: --t must be finite, not nan" in capsys.readouterr().err
        assert not (tmp_path / "pip.csv").exists()

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

    def test_baseline_lane_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # state 1 fails in whichever lane takes it; a child lane sends its
        # ValueError back
        force_lanes(monkeypatch, 2)
        fail_at(monkeypatch, 2)
        assert run(tmp_path, "baseline", "--n", "6", "--states", "3",
                   "--samples", "4", "--seed", "1") == 1
        err = capsys.readouterr().err
        assert err == "error: no state at seed 2\n"
        assert_no_children()

    def test_baseline_cap_exits_2_before_any_fork(self, tmp_path, monkeypatch):
        force_lanes(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert run(tmp_path, "baseline", "--n", "24", "--states", "4", "--seed", "1") == 2
        assert forks == []


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


class TestNoScipyOnTheRunPath:
    """The CLI imports no scipy; hazy and photon runs load neither
    scipy.optimize nor scipy.special, and qbm and c-not runs load no scipy
    module at all. The hazy redundancy scan loads no numpy.ma, and a hazy
    CLI run no numpy.random."""

    def test_fresh_interpreter(self, tmp_path):
        lines = _fresh(f"""
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
        lines = _fresh("""
            import sys
            import numpy as np
            from darwinlab.spinmodels import CentralSpinParams, HazyParams, hazy_redundancy
            hazy_redundancy(CentralSpinParams(np.full(32, 0.3), t=0.5), HazyParams(0.3))
            print("numpy.ma" in sys.modules)
        """)
        assert lines == ["False"]

    def test_hazy_run_loads_no_numpy_random(self, tmp_path):
        # only the models that draw couplings build the coupling generator
        lines = _fresh(f"""
            import sys
            import darwinlab.cli
            argv = ["redundancy", "--model", "hazy", "--n", "16", "--seed", "1"]
            assert darwinlab.cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
            print("numpy.random" in sys.modules)
        """)
        assert lines[-1] == "False"
        assert (tmp_path / "redundancy.csv").exists()

    def test_qbm_run_loads_no_scipy(self, tmp_path):
        lines = _fresh(f"""
            import sys
            import darwinlab.cli
            argv = ["qbm", "--bands", "16", "--samples", "4", "--seed", "1"]
            assert darwinlab.cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        assert lines[-1] == "[]"
        assert (tmp_path / "qbm.csv").exists()

    def test_cnot_run_and_manifest_load_no_scipy(self, tmp_path):
        lines = _fresh(f"""
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


# what a subcommand loads only if it runs it
_ON_USE = ("darwinlab.envariance", "darwinlab.qbm", "darwinlab.photon", "configparser",
           "fractions")


class TestLayersLoadOnUse:
    """A cold import of darwinlab.cli loads none of the qbm, photon and
    envariance layers, configparser or fractions; each run loads only
    those it uses."""

    @staticmethod
    def _loaded(tmp_path, *runs) -> list:
        """Which of _ON_USE a fresh interpreter holds after importing
        darwinlab.cli, and again after each run in turn."""
        lines = _fresh(f"""
            import contextlib, io, json, sys
            import darwinlab.cli
            loaded = lambda: print(json.dumps([m for m in {_ON_USE!r} if m in sys.modules]))
            loaded()
            for i, argv in enumerate({[list(r) for r in runs]!r}):
                out = {str(tmp_path)!r} + "/" + str(i)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert darwinlab.cli.main([*argv, "--out", out]) == 0
                loaded()
        """)
        return [json.loads(line) for line in lines]

    def test_model_runs_load_none(self, tmp_path):
        stages = self._loaded(
            tmp_path,
            ("redundancy", "--model", "hazy", "--n", "16", "--seed", "1"),
            ("redundancy", "--model", "central-spin", "--n", "10", "--seed", "1"),
            ("baseline", "--n", "6", "--states", "2", "--samples", "4", "--seed", "1"))
        assert stages == [[]] * 4

    @pytest.mark.parametrize("runs, own", [
        ([("qbm", "--bands", "16", "--samples", "4", "--seed", "1")], ["darwinlab.qbm"]),
        ([("photon", "--t-over-tau", "10", "--n", "16", "--seed", "1"),
          ("photon", "--preset", "dust-grain-sunlight", "--seed", "1"),
          ("pip", "--model", "photon", "--n", "16", "--seed", "1")], ["darwinlab.photon"]),
        ([("envariance", "--finegraining", "2:1", "--seed", "0")],
         ["darwinlab.envariance", "fractions"]),
        ([("reversal", "--amplitudes", "0.8,0.6", "--seed", "0")],
         ["darwinlab.envariance", "fractions"]),
        ([("pip", "--config", "{ini}")], ["configparser"]),
    ], ids=["qbm", "photon", "envariance", "reversal", "config"])
    def test_each_run_loads_only_its_own(self, tmp_path, runs, own):
        ini = tmp_path / "run.ini"
        ini.write_text("[pip]\nmodel = cnot\nn = 6\nseed = 1\n")
        runs = [[a.format(ini=ini) for a in argv] for argv in runs]
        stages = self._loaded(tmp_path, *runs)
        assert stages[0] == []
        assert all(stage == own for stage in stages[1:])

    def test_layers_are_package_attributes(self):
        lines = _fresh("""
            import sys
            import darwinlab
            print(sorted(m for m in sys.modules if m.startswith("darwinlab")))
            print(darwinlab.qbm.qbm_evolve.__module__, darwinlab.photon.__name__,
                  darwinlab.envariance.__name__)
            print(hasattr(darwinlab, "quux"))
        """)
        assert lines == ["['darwinlab']",
                         "darwinlab.qbm darwinlab.photon darwinlab.envariance", "False"]


class TestBlasThreads:
    """The Gaussian path pins BLAS to one thread, and forked lanes (one per
    thread, each pinned) take the baseline's states and the sizes of a
    plot, so no run's bytes follow OPENBLAS_NUM_THREADS."""

    @staticmethod
    def _outputs(tmp_path, argv, names, thread_counts) -> list:
        if numeric._openblas_threads() is None:
            pytest.skip("numpy ships no scipy-openblas")
        src = str(Path(darwinlab.__file__).resolve().parents[1])
        outputs = []
        for threads in thread_counts:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / threads
            done = subprocess.run([sys.executable, "-m", "darwinlab.cli", *argv, "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes() for name in names])
        return outputs

    def test_qbm_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        outputs = self._outputs(tmp_path, ["qbm", "--bands", "64", "--samples", "4", "--seed", "3"],
                                ("qbm.csv", "qbm.json"), ("1", "2"))
        assert outputs[0] == outputs[1]

    def test_baseline_bytes_do_not_depend_on_lanes(self, tmp_path):
        # one, two and three lanes; three lanes take the four states as
        # each finishes one
        outputs = self._outputs(tmp_path, ["baseline", "--n", "8", "--states", "4",
                                           "--samples", "6", "--seed", "1"],
                                ("baseline.json",), ("1", "2", "3"))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_plot_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # every fragment size of the interacting plot runs with BLAS on
        # one thread, in this process or in a forked lane
        outputs = self._outputs(tmp_path, ["redundancy", "--model", "interacting", "--n", "14",
                                           "--t", "10", "--seed", "1"],
                                ("redundancy.csv", "redundancy.json"), ("1", "2", "3"))
        assert outputs[0] == outputs[1] == outputs[2]
