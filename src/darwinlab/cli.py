"""Reproducible experiment runner.

One executable, one subcommand per experiment family. The qbm, photon
and envariance layers, and configparser for --config, are imported by
the subcommands that run them, so no other command pays for their
import. A run is fully determined by its merged configuration plus the
mandatory seed: all randomness flows from the single seed through fixed
counter keys, and file outputs are byte-identical across reruns and BLAS
thread counts. No environment variable changes a run, with one
exception: on a numpy without bundled scipy-openblas, plots and the
Gaussian evolution cannot pin BLAS to one thread, so their last digits
may follow OPENBLAS_NUM_THREADS. That thread count also sets how many
processes a run uses, never its bytes, through darwinlab's one lane
mechanism (numeric._forked_lanes): one lane per thread, all but the
first forked, each with BLAS on one thread. A plot deals all its sizes
unless its model is symmetric (photon, hazy), small plots too (about 3 ms
a fork; no clock decides); a baseline run deals its states. A run stays
on one lane when BLAS has one thread or is not the bundled
scipy-openblas, or without os.fork.

Configuration comes from an INI file (one section per subcommand, keys
named like the long flags) with command-line flags taking precedence.

Exit codes: 0 success, 1 configuration error or undefined result (such as
a redundancy at zero system entropy), 2 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .darwin import (BranchingSource, GaussianSource, HazySource,
                     InteractingSource, PhotonSource, build_pip, git_blob_sha,
                     haar_baseline, haar_random_source, observable_sweep, pip_manifest,
                     pip_to_csv, redundancy, redundancy_of_decoherence)
from .numeric import CapExceeded
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


def _build_argparser(argv: list[str]) -> _Parser:
    """The parser for argv. Only a subcommand named as argv's first token
    is built; with none named (no argv, --help, an unknown command) every
    subcommand is, so help and error text list them all."""
    top = _Parser(prog="darwinlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv[:1] and argv[0] in _OPTIONS else _OPTIONS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        for key, (typ, _) in _OPTIONS[name].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=typ, default=None)
    return top


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with every negative value that follows an option joined to it
    as --option=value: a negative number, or a list (such as -0.8,0.6 or
    -1:2) whose first entry is one. Every option takes one value, but
    argparse reads a token such as -1e-3 or -inf as a flag of its own."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            try:
                float(tok.split(",")[0].split(":")[0])
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults, then the config file section, then explicit flags."""
    table = dict(_OPTIONS[command])
    table["seed"] = (int, None)
    table["out"] = (str, ".")
    cfg = {k: d for k, (_, d) in table.items()}
    if args.config is not None:
        import configparser

        ini = configparser.ConfigParser()
        try:
            if not ini.read(args.config, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {args.config!r}")
            items = ini.items(command) if ini.has_section(command) else []
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {args.config!r}: {exc}") from exc
        for raw_key, raw_val in items:
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
    for key in ("mu_points", "states"):  # counts a run needs at least one of
        if cfg.get(key, 1) < 1:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least 1")
    for key, (typ, _) in table.items():
        if typ is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"--{key.replace('_', '-')} must be finite, not {cfg[key]!r}")
    return cfg


def _coupling_rng(seed: int) -> np.random.Generator:
    # only for models that draw couplings: other runs never import numpy.random
    return np.random.default_rng(np.random.SeedSequence((seed, 0x6D0DE1)))


def _model_source(cfg: dict, seed: int):
    model = cfg["model"]
    n, t = cfg["n"], cfg["t"]
    if model == "cnot":
        r = 1.0 / math.sqrt(2.0)
        return BranchingSource(cnot_model(r, r, n), tag="cnot")
    if model == "central-spin":
        p = CentralSpinParams(uniform_couplings(_coupling_rng(seed), n), t=t)
        return BranchingSource(central_spin_branching(p), tag="central-spin")
    if model == "interacting":
        p = random_interacting_params(_coupling_rng(seed), n, t, cfg["sigma_d"], cfg["sigma_m"])
        return InteractingSource(p)
    if model == "haar":
        return haar_random_source(n, seed)
    if model == "photon":
        return PhotonSource(cfg["gamma"], n_env=n)
    if model == "hazy":
        return HazySource(HazyCentralSpin(n, cfg["coupling"], t, HazyParams(cfg["haze"])))
    raise ConfigError(f"unknown model {model!r}; pick one of {', '.join(_MODELS)}")


def _scipy_version() -> str:
    """scipy.__version__ without importing scipy: run the package's
    version.py, the module scipy takes __version__ from (about 2 ms, where
    import scipy takes 12-17 ms and importlib.metadata 20-35 ms)."""
    import runpy
    from importlib.util import find_spec

    return runpy.run_path(str(Path(find_spec("scipy").origin).with_name("version.py")))["version"]


def _versions() -> dict:
    return {
        # the first word of sys.version is what platform.python_version() returns
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _scipy_version(),
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
    # null exactly when the model has no fragment-only counterfactual
    r_dd = (redundancy_of_decoherence(src, cfg["delta"], seed=cfg["seed"])
            if src.pure_decoherence else None)
    rep = redundancy(pip, cfg["delta"])
    report = {
        "delta": rep.delta,
        "f_delta": rep.f_delta,
        "r_delta": rep.r_delta,
        "r_delta_d": r_dd,
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
    from .qbm import OhmicBathParams, qbm_evolve, qbm_redundancy

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
    from .photon import (decoherence_rate_saturated, dust_grain_sunlight,
                         measured_photon_redundancy, photon_redundancy)

    delta = cfg["delta"]
    if cfg["preset"]:
        if cfg["preset"] != "dust-grain-sunlight":
            raise ConfigError(f"unknown preset {cfg['preset']!r}")
        halo = dust_grain_sunlight(t=cfg["t"])
        rate = decoherence_rate_saturated(halo, mode="polarizability")
        r = photon_redundancy(halo.t * rate, delta)
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
    from .envariance import FineGrainSpec, fine_grain_born

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
    from .envariance import reversal_demo

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
    rs = haar_baseline(cfg["n"], cfg["states"], cfg["samples"], cfg["delta"], cfg["seed"])
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
        argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
        args = _build_argparser(argv).parse_args(argv)
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
