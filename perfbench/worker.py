"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
       --result FILE [--trace 1]

Runs every op of the workload once, in order, each writing to its own
directory under DIR, and writes a JSON result: per-op wall times, exit
codes and library-op values, the pass time (sum of op times), the peak
resident memory of this process, the numeric environment, and how long
the cold `import darwinlab.cli` at the top of this process took (one
set-up sample). Each pass gets its own process so no pass sees caches
another pass filled; a CLI user starts cold too. With --trace 1 every
darwinlab public function is wrapped for the pass and restored
afterwards; the per-layer metrics and the spans go into the result and
DIR/trace.json.
"""
from __future__ import annotations

import os
import sys
import time

# The set-up sample: the first import of the process, made with only the
# modules the interpreter has loaded at start-up (os, sys) and time, as in
# run.py's import-only interpreters. Everything darwinlab.cli pulls in,
# the standard library included, is paid for here.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
_started = time.perf_counter()
import darwinlab.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _started

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from darwinlab import branching, darwin, spinmodels  # noqa: E402

import layers  # noqa: E402
from ops import Op, op_dir, workload_ops  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# library ops: prepare(params) builds inputs outside the timed region,
# run(inputs, params, out) is timed and returns the values the oracle checks

def _branching_tables(p):
    rng = np.random.default_rng(p["table_seed"])
    k, n = p["branches"], p["n_env"]
    w = rng.random(k)
    probs = w / w.sum()
    phases = rng.uniform(0.0, 2.0 * math.pi, size=k)
    z = rng.normal(size=(n, k, 2)) + 1j * rng.normal(size=(n, k, 2))
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    return probs, phases, list(z)


def _branching_pip(inputs, p, out: Path) -> dict:
    probs, phases, conds = inputs
    src = darwin.BranchingSource(branching.BranchingState(probs, phases, conds), tag="k16")
    pip = darwin.build_pip(src, samples_per_fraction=p["samples"], seed=p["seed"])
    rep = darwin.redundancy(pip, p["delta"])
    csv_text = darwin.pip_to_csv(pip)
    manifest = darwin.pip_manifest(pip, {"seed": p["seed"], "samples": p["samples"]})
    (out / "pip.csv").write_text(csv_text, encoding="utf-8", newline="\n")
    (out / "pip.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8", newline="\n")
    return {"h_system_nats": pip.h_system, "r_delta": rep.r_delta, "f_delta": rep.f_delta,
            "plateau_reached": rep.plateau_reached}


def _hazy_redundancy(inputs, p, out: Path) -> dict:
    base = spinmodels.CentralSpinParams(couplings=np.ones(p["n"]), t=p["t"])
    haze = spinmodels.HazyParams(p["x"] * spinmodels.LN2)
    return {"r_delta": spinmodels.hazy_redundancy(base, haze, delta=p["delta"])}


LIBRARY = {
    "branching_pip": (_branching_tables, _branching_pip),
    "hazy_redundancy": (lambda p: None, _hazy_redundancy),
}


# ---------------------------------------------------------------------------

def _run_op(op: Op, inputs, out: Path) -> dict:
    out.mkdir(parents=True)
    record = {"name": op.name, "rc": None, "error": None, "values": None}
    sink_out, sink_err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            if op.lib:
                params = dict(op.params)
                started = time.perf_counter()
                values = LIBRARY[op.lib][1](inputs, params, out)
                record["seconds"] = time.perf_counter() - started
                record["rc"], record["values"] = 0, values
            else:
                argv = list(op.argv) + ["--out", str(out)]
                started = time.perf_counter()
                record["rc"] = darwinlab.cli.main(argv)
                record["seconds"] = time.perf_counter() - started
    except SystemExit as exc:  # argparse exits on flags it does not know
        record["seconds"] = time.perf_counter() - started
        record["rc"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a broken benchmark
        record["seconds"] = time.perf_counter() - started
        record["error"] = traceback.format_exc()
    if sink_err.getvalue():
        record["stderr"] = sink_err.getvalue()
    return record


def _openblas_runtime() -> dict:
    """OpenBLAS's own config string and thread count, read through ctypes."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            get_config = lib.scipy_openblas_get_config64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": "unavailable", "threads": None}


def numeric_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "darwinlab": darwinlab.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "build_config": blas.get("openblas configuration")},
        "openblas_runtime": _openblas_runtime(),
    }


def run_pass(workload: str, seed: int, out: Path, trace: bool) -> dict:
    ops = workload_ops(workload, seed)
    inputs = [LIBRARY[op.lib][0](dict(op.params)) if op.lib else None for op in ops]
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.instrument(tracer, darwinlab)
    try:
        records = [_run_op(op, inp, op_dir(out, i)) for i, (op, inp) in enumerate(zip(ops, inputs))]
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None and tracer.foreign_calls:
        raise SystemExit(f"{tracer.foreign_calls} traced calls ran on other threads, so span "
                         "parents are wrong; trace with DARWINLAB_THREADS unset or 1")
    result = {
        "workload": workload,
        "seed": seed,
        "ops": records,
        "pass_s": sum(r["seconds"] for r in records),
        "import_s": IMPORT_S,
        "darwinlab_file": darwinlab.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": numeric_env(),
    }
    if tracer is not None:
        cli_bytes = sum(f.stat().st_size for i, op in enumerate(ops) if not op.lib
                        for f in op_dir(out, i).iterdir())
        result["layers"] = layers.compute(tracer, cli_bytes)
        result["layer_units"] = {name: unit for name, unit, _ in layers.METRICS}
        tracer.dump(out / "trace.json", {"ops": [{"name": r["name"], "seconds": r["seconds"]}
                                                 for r in records]})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.out, bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
