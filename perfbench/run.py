"""darwinlab benchmark: time to result on four workloads, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload records-wide --seed 3 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics:
  setup_s      median cold import of darwinlab.cli in a fresh interpreter,
               timed in every pass process and in extra import-only ones
  run_s        median wall time of one pass over the workload's ops
  peak_rss_mb  peak resident memory of the pass processes
and checks every op with the correctness oracle (failed_frac is printed
and reported as `failed` / `attempted`). Passes repeat, each in a fresh
process, until --seconds have passed; there are always at least two, so
every op is re-run with its seed and its files compared byte for byte.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, with the tracing overhead.

--workload all runs the four workloads in turn and prints each report.

The last line of standard output is the JSON result. Everything else (the
environment, per-op times, spans) goes to .bench_work/<workload>/.
Thread variables are neither set nor changed: the program runs as shipped.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import WORKLOADS, op_dir, slot_of, workload_ops
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 4       # cold imports timed per run, pass processes included
MIN_PASSES = 2          # the second pass is the re-run the oracle compares
BUDGET_S = 150.0        # no new pass starts if it could end past this

THREAD_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")

_IMPORT_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import darwinlab.cli
elapsed = time.perf_counter() - started
print(repr(elapsed), darwinlab.cli.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing darwinlab.cli failed:\n{proc.stderr}")
    elapsed, path = proc.stdout.split()
    _check_source(path)
    return float(elapsed)


def _check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"imported darwinlab from {path}, not from {SRC}")


def run_worker(workload: str, seed: int, out: Path, trace: bool, timeout: float) -> dict:
    result_file = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result_file),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {workload} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    _check_source(result["darwinlab_file"])
    return result


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over src/darwinlab/*.py, naming the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "darwinlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_env() -> dict:
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "thread_variables": {k: v for k, v in sorted(os.environ.items())
                             if k.startswith(THREAD_PREFIXES) or k == "DARWINLAB_THREADS"},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def check_passes(workload: str, seed: int, passes: list, pass_dirs: list, refs: dict):
    """Run the oracle over every op of every pass.

    Returns (attempted, failed, problems): executions checked, executions
    with at least one problem, and the problems as text.
    """
    ops = workload_ops(workload, seed)
    slot_refs = refs["references"].get(workload, {}).get(str(slot_of(seed)), {})
    attempted, failed, problems = 0, 0, []
    for k, (result, out) in enumerate(zip(passes, pass_dirs)):
        for i, (op, record) in enumerate(zip(ops, result["ops"])):
            first = None if k == 0 else (passes[0]["ops"][i], op_dir(pass_dirs[0], i))
            found = oracle.check_execution(op, record, op_dir(out, i),
                                           slot_refs.get(op.name), first)
            attempted += 1
            failed += bool(found)
            problems.extend(f"pass {k} {op.name}: {p}" for p in found)
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """Passes and set-up samples; returns (metrics, pass results, pass dirs).

    Metric values are (value, unit) pairs.
    """
    started = time.monotonic()
    metrics = {}
    passes, dirs = [], []
    last = 0.0
    while len(passes) < MIN_PASSES or (
            not trace and time.monotonic() - started < seconds
            and time.monotonic() - started + last <= BUDGET_S):
        out = work / f"pass{len(passes)}"
        t0 = time.monotonic()
        timeout = BUDGET_S + 25.0 - (t0 - started)
        # in a traced run the first pass is untraced, the second traced
        passes.append(run_worker(workload, seed, out, trace and len(passes) == 1, timeout))
        dirs.append(out)
        last = time.monotonic() - t0
    if trace:
        untraced, traced = passes
        units = traced["layer_units"]
        metrics.update((name, (value, units[name])) for name, value in traced["layers"].items())
        metrics["trace.overhead_ratio"] = (traced["pass_s"] / untraced["pass_s"],
                                           units["trace.overhead_ratio"])
    else:
        samples = [p["import_s"] for p in passes]
        samples += [import_seconds() for _ in range(SETUP_SAMPLES - len(samples))]
        metrics["setup_s"] = (statistics.median(samples), "s")
        metrics["run_s"] = (statistics.median(p["pass_s"] for p in passes), "s")
        metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in passes), "MB")
    return metrics, passes, dirs


def run_workload(workload: str, seed: int, seconds: int, trace: bool, refs: dict) -> None:
    """Measure and check one workload; print its report, ending with the JSON result."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics, passes, dirs = measure(workload, seed, seconds, trace, work)
    attempted, failed, problems = check_passes(workload, seed, passes, dirs, refs)
    env = dict(host_env(), **passes[0]["env"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "slot": slot_of(seed), "trace": int(trace),
              "env": env, "problems": problems, "failed_frac": failed / attempted,
              "passes": [{"pass_s": p["pass_s"], "peak_rss_mb": p["peak_rss_mb"],
                          "ops": {o["name"]: o["seconds"] for o in p["ops"]}}
                         for p in passes],
              "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"workload {workload}  seed {seed} (reference slot {slot_of(seed)})  "
          f"passes {len(passes)}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for p in problems:
        print(f"  FAILED {p}")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all four in turn (one JSON line after each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "darwinlab" / "cli.py").is_file():
            raise BenchError(f"no darwinlab sources under {SRC}; run from a checkout")
        if not oracle.REFERENCE_FILE.is_file():
            raise BenchError(f"missing reference values {oracle.REFERENCE_FILE}")
        refs = oracle.load_references()
        for workload in workloads:
            run_workload(workload, args.seed, args.seconds, bool(args.trace), refs)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
