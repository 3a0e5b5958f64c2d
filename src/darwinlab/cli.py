"""Reproducible experiment runner.

One executable, one subcommand per experiment family. A run is fully
determined by its merged configuration plus the mandatory seed: file
outputs are byte-identical across machines, all randomness flows from
the single seed through fixed counter keys, and no environment variable
changes a run.

Configuration comes from an INI file (one section per subcommand, keys
named like the long flags) with command-line flags taking precedence.

Exit codes: 0 success, 1 configuration error, 2 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .darwin import (BranchingSource, GaussianSource, HazySource,
                     InteractingSource, PhotonSource, build_pip, git_blob_sha,
                     haar_random_source, observable_sweep, pip_manifest,
                     pip_to_csv, redundancy, redundancy_of_decoherence)
from .envariance import FineGrainSpec, fine_grain_born, reversal_demo
from .numeric import CapExceeded
from .photon import (dust_grain_redundancy, dust_grain_sunlight,
                     decoherence_rate_saturated, measured_photon_redundancy,
                     photon_redundancy)
from .qbm import OhmicBathParams, qbm_evolve, qbm_redundancy
from .spinmodels import (CentralSpinParams, HazyCentralSpin, HazyParams,
                         central_spin_branching, cnot_model,
                         random_interacting_params, uniform_couplings)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; that slot belongs to the
    # cap-exceeded outcome here, so route usage problems through main()
    def error(self, message):
        raise ConfigError(message)


# every option a subcommand understands: name -> (type, default).
# None defaults mean "required unless the config file supplies it".
_MODEL_OPTS = {
    "model": (str, "cnot"),
    "n": (int, 50),
    "t": (float, 4.0),
    "coupling": (float, 0.5),
    "haze": (float, 0.3),
    "gamma": (float, 0.1),
    "sigma_d": (float, 0.1),
    "sigma_m": (float, 0.001),
    "samples": (int, 24),
}

_OPTIONS = {
    "pip": dict(_MODEL_OPTS),
    "redundancy": dict(_MODEL_OPTS, delta=(float, 0.1)),
    "sweep": dict(_MODEL_OPTS, fragment_size=(int, 2), mu_points=(int, 13),
                  delta=(float, 0.1)),
    "qbm": {
        "squeezing": (float, 1e3),
        "direction": (str, "x"),
        "t": (float, 3.0),
        "bands": (int, 128),
        "damping": (float, 0.05),
        "cutoff": (float, 16.0),
        "samples": (int, 48),
        "delta": (float, 0.1),
    },
    "photon": {
        "preset": (str, ""),
        "t": (float, 1e-6),
        "t_over_tau": (float, 10.0),
        "n": (int, 256),
        "delta": (float, 0.1),
    },
    "envariance": {"finegraining": (str, "1:1")},
    "reversal": {"amplitudes": (str, "1,1")},
    "baseline": {
        "n": (int, 12),
        "states": (int, 20),
        "samples": (int, 12),
        "delta": (float, 0.1),
    },
}

_MODELS = ("cnot", "central-spin", "interacting", "haar", "photon", "hazy")


def _build_argparser() -> _Parser:
    top = _Parser(prog="darwinlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, opts in _OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        for key, (typ, _) in opts.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=typ, default=None)
    return top


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults, then the config file section, then explicit flags."""
    table = dict(_OPTIONS[command])
    table["seed"] = (int, None)
    table["out"] = (str, ".")
    cfg = {k: d for k, (_, d) in table.items()}
    if args.config is not None:
        ini = configparser.ConfigParser()
        if not ini.read(args.config, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {args.config!r}")
        if ini.has_section(command):
            for raw_key, raw_val in ini.items(command):
                key = raw_key.replace("-", "_")
                if key not in table:
                    raise ConfigError(f"unknown option {raw_key!r} in [{command}]")
                typ = table[key][0]
                try:
                    cfg[key] = typ(raw_val)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {raw_key!r}: {raw_val!r}") from exc
    for key in table:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["seed"] is None:
        raise ConfigError("a seed is required (--seed or config)")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    return cfg


def _model_source(cfg: dict, seed: int):
    model = cfg["model"]
    n, t = cfg["n"], cfg["t"]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6D0DE1)))
    if model == "cnot":
        r = 1.0 / math.sqrt(2.0)
        return BranchingSource(cnot_model(r, r, n), tag="cnot")
    if model == "central-spin":
        p = CentralSpinParams(uniform_couplings(rng, n), t=t)
        return BranchingSource(central_spin_branching(p), tag="central-spin")
    if model == "interacting":
        p = random_interacting_params(rng, n, t, cfg["sigma_d"], cfg["sigma_m"])
        return InteractingSource(p)
    if model == "haar":
        return haar_random_source(n, seed)
    if model == "photon":
        return PhotonSource(cfg["gamma"], n_env=n)
    if model == "hazy":
        return HazySource(HazyCentralSpin(n, cfg["coupling"], t, HazyParams(cfg["haze"])))
    raise ConfigError(f"unknown model {model!r}; pick one of {', '.join(_MODELS)}")


def _versions() -> dict:
    import scipy  # here, so that importing the CLI loads no scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "darwinlab": __version__,
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _emit(cfg: dict, command: str, report: dict, csv_text: str | None) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "darwinlab.run.v1",
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg) if k != "out"},
        "versions": _versions(),
        "report": report,
    }
    if csv_text is not None:
        csv_path = out / f"{command}.csv"
        _write(csv_path, csv_text)
        manifest["csv"] = {"file": csv_path.name, "sha": git_blob_sha(csv_text.encode("utf-8"))}
    _write(out / f"{command}.json", _json_text(manifest))
    return out


def _cmd_pip(cfg: dict) -> None:
    src = _model_source(cfg, cfg["seed"])
    pip = build_pip(src, samples_per_fraction=cfg["samples"], seed=cfg["seed"])
    csv_text = pip_to_csv(pip)
    report = pip_manifest(pip, {"seed": cfg["seed"], "samples": cfg["samples"]})
    out = _emit(cfg, "pip", report, csv_text)
    print(f"pip: {src.tag}, {pip.n_env} units, H_S = {pip.h_system:.6f} nats, "
          f"{len(pip.points)} points -> {out / 'pip.csv'}")


def _cmd_redundancy(cfg: dict) -> None:
    src = _model_source(cfg, cfg["seed"])
    pip = build_pip(src, samples_per_fraction=cfg["samples"], seed=cfg["seed"])
    try:
        r_dd = redundancy_of_decoherence(src, cfg["delta"], seed=cfg["seed"])
    except ValueError:
        r_dd = None
    rep = redundancy(pip, cfg["delta"], r_delta_d=r_dd)
    report = {
        "delta": rep.delta,
        "f_delta": rep.f_delta,
        "r_delta": rep.r_delta,
        "r_delta_d": rep.r_delta_d,
        "plateau_reached": rep.plateau_reached,
        "interpolated": rep.interpolated,
        "h_system_nats": pip.h_system,
    }
    _emit(cfg, "redundancy", report, pip_to_csv(pip))
    extra = "" if r_dd is None else f", R_deltaD = {r_dd:.4g}"
    print(f"redundancy: {src.tag}, R_{cfg['delta']:g} = {rep.r_delta:.4g}{extra}, "
          f"plateau reached: {rep.plateau_reached}")


def _cmd_sweep(cfg: dict) -> None:
    src = _model_source(cfg, cfg["seed"])
    mus = np.linspace(0.0, math.pi / 2.0, cfg["mu_points"])
    rows = observable_sweep(src, mus, cfg["fragment_size"], cfg["delta"])
    lines = ["mu,chi_nats,h_observable_nats,h_conditional_nats,fragments_passing,redundant"]
    for r in rows:
        lines.append(f"{r.mu!r},{r.holevo_info!r},{r.h_observable!r},"
                     f"{r.h_conditional!r},{r.fragments_passing},{int(r.redundant)}")
    csv_text = "\n".join(lines) + "\n"
    edge = next((r.mu for r in rows if not r.redundant), None)
    report = {"rows": len(rows), "redundant_until_mu": edge,
              "chi_at_pointer_nats": rows[0].holevo_info}
    _emit(cfg, "sweep", report, csv_text)
    print(f"sweep: {src.tag}, chi(0) = {rows[0].holevo_info:.4f} nats, "
          f"redundancy lost from mu = {edge if edge is not None else 'never'}")


def _cmd_qbm(cfg: dict) -> None:
    bath = OhmicBathParams(damping=cfg["damping"], cutoff=cfg["cutoff"],
                           bands=cfg["bands"])
    state = qbm_evolve(bath, cfg["squeezing"], cfg["direction"], cfg["t"])
    src = GaussianSource(state)
    pip = build_pip(src, samples_per_fraction=cfg["samples"], seed=cfg["seed"])
    rep = redundancy(pip, cfg["delta"])
    expectation = qbm_redundancy(cfg["squeezing"], cfg["delta"])
    report = {
        "h_system_nats": pip.h_system,
        "ln_squeezing": math.log(cfg["squeezing"]),
        "r_delta": rep.r_delta,
        "r_delta_expected": expectation,
    }
    _emit(cfg, "qbm", report, pip_to_csv(pip))
    print(f"qbm: H_S = {pip.h_system:.4f} (ln s = {math.log(cfg['squeezing']):.4f}), "
          f"R_{cfg['delta']:g} = {rep.r_delta:.4g} vs s^2delta = {expectation:.4g}")


def _cmd_photon(cfg: dict) -> None:
    delta = cfg["delta"]
    if cfg["preset"]:
        if cfg["preset"] != "dust-grain-sunlight":
            raise ConfigError(f"unknown preset {cfg['preset']!r}")
        halo = dust_grain_sunlight(t=cfg["t"])
        rate = decoherence_rate_saturated(halo, mode="polarizability")
        r = dust_grain_redundancy(delta=delta, t=cfg["t"])
        report = {
            "preset": cfg["preset"],
            "rate_per_s": rate,
            "t_s": cfg["t"],
            "t_over_tau": rate * cfg["t"],
            "r_delta": r,
        }
        _emit(cfg, "photon", report, None)
        print(f"photon: dust grain in sunlight, rate = {rate:.3e}/s, "
              f"R_{delta:g}({cfg['t']:g} s) = {r:.3e}")
        return
    tt = cfg["t_over_tau"]
    formula = photon_redundancy(tt, delta)
    measured = measured_photon_redundancy(tt, delta)
    src = PhotonSource(math.exp(-tt), n_env=cfg["n"])
    pip = build_pip(src, seed=cfg["seed"])
    report = {
        "t_over_tau": tt,
        "r_delta_formula": formula,
        "r_delta_measured": measured,
        "h_system_nats": pip.h_system,
    }
    _emit(cfg, "photon", report, pip_to_csv(pip))
    print(f"photon: t/tau = {tt:g}, R_{delta:g} = {measured:.4g} "
          f"(linear formula {formula:.4g})")


def _cmd_envariance(cfg: dict) -> None:
    try:
        numerators = tuple(int(x) for x in cfg["finegraining"].split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad finegraining {cfg['finegraining']!r}; "
                          "expected integers like 2:1") from exc
    result = fine_grain_born(FineGrainSpec(numerators))
    report = {
        "finegraining": cfg["finegraining"],
        "ancilla_dimension": result.m,
        "probabilities": [str(f) for f in result.fractions],
    }
    _emit(cfg, "envariance", report, None)
    print("envariance: branch weights " + ", ".join(str(f) for f in result.fractions)
          + f" (ancilla dimension {result.m})")


def _cmd_reversal(cfg: dict) -> None:
    try:
        amps = np.array([float(x) for x in cfg["amplitudes"].split(",")], dtype=complex)
    except ValueError as exc:
        raise ConfigError(f"bad amplitudes {cfg['amplitudes']!r}") from exc
    res = reversal_demo(amps)
    weights = np.real(np.diag(res.with_copy_state))
    report = {
        "without_copy_fidelity": res.without_copy_fidelity,
        "with_copy_weights": [float(w) for w in weights],
    }
    _emit(cfg, "reversal", report, None)
    print(f"reversal: undone without a copy (fidelity {res.without_copy_fidelity:.12f}); "
          "with a copy the system keeps weights "
          + ", ".join(f"{w:.6f}" for w in weights))


def _cmd_baseline(cfg: dict) -> None:
    rs = []
    for i in range(cfg["states"]):
        src = haar_random_source(cfg["n"], cfg["seed"] + i)
        pip = build_pip(src, samples_per_fraction=cfg["samples"], seed=cfg["seed"] + i)
        rs.append(redundancy(pip, cfg["delta"]).r_delta)
    mean = float(np.mean(rs))
    report = {"states": cfg["states"], "n": cfg["n"],
              "r_delta_mean": mean, "r_delta_min": min(rs), "r_delta_max": max(rs)}
    _emit(cfg, "baseline", report, None)
    print(f"baseline: {cfg['states']} random states over {cfg['n']} qubits, "
          f"mean R_{cfg['delta']:g} = {mean:.3f} (records give only the trivial ~2)")


_COMMANDS = {
    "pip": _cmd_pip,
    "redundancy": _cmd_redundancy,
    "sweep": _cmd_sweep,
    "qbm": _cmd_qbm,
    "photon": _cmd_photon,
    "envariance": _cmd_envariance,
    "reversal": _cmd_reversal,
    "baseline": _cmd_baseline,
}


def main(argv=None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
        cfg = _merge_config(args.command, args)
        _COMMANDS[args.command](cfg)
        return 0
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
