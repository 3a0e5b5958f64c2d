"""Correctness oracle: decides for every op execution whether it failed.

An execution fails unless all of these hold:
  * it exited with code 0 (a library op: it raised nothing);
  * every manifest's CSV checksum matches the CSV bytes on disk;
  * its reported values match the reference values recorded for its slot,
    within the acceptance gate's tolerances (1e-9 for branching, dense
    and hazy ops, scaled by the value when it exceeds 1; 1e-6 relative
    for Gaussian ops);
  * the op's physics check from the acceptance gate holds;
  * it wrote byte-identical files and values to the first execution of
    the same op with the same seed.

CSV bytes are not compared with the references, so a change that moves
the last digits of the spectra (within tolerance) is not a failure.
Standard library only.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from ops import Op

# reported keys that identify bytes or formats rather than physics
IGNORED_KEYS = frozenset({"csv_sha", "format", "parameters"})

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"


def git_blob_sha(data: bytes) -> str:
    # computed here, not taken from darwinlab, so a broken checksum there shows
    h = hashlib.sha1(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _manifests(op_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(op_dir.glob("*.json"))]


def op_values(op: Op, op_dir: Path, lib_values) -> dict:
    """The values an op reports: a library op's return, a CLI op's manifest report."""
    if op.lib:
        return dict(lib_values or {})
    for manifest in _manifests(op_dir):
        if manifest.get("format") == "darwinlab.run.v1":
            return {k: v for k, v in manifest["report"].items() if k not in IGNORED_KEYS}
    return {}


def close(got, ref, family: str) -> bool:
    if ref is None or isinstance(ref, (bool, str)):
        return got == ref and type(got) is type(ref)
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        tol = 1e-6 * abs(ref) if family == "gaussian" else 1e-9 * max(1.0, abs(ref))
        return abs(got - ref) <= tol
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(close(g, r, family) for g, r in zip(got, ref)))
    raise TypeError(f"unsupported reference value {ref!r}")


def _checksum_problems(op_dir: Path) -> list[str]:
    out = []
    for manifest in _manifests(op_dir):
        pairs = []
        if "csv" in manifest:
            pairs.append((manifest["csv"]["file"], manifest["csv"]["sha"]))
        report = manifest.get("report", manifest)
        if "csv_sha" in report:
            name = f"{manifest.get('command', 'pip')}.csv"
            pairs.append((name, report["csv_sha"]))
        for name, sha in pairs:
            path = op_dir / name
            if not path.is_file():
                out.append(f"manifest names {name}, which is missing")
            elif git_blob_sha(path.read_bytes()) != sha:
                out.append(f"checksum of {name} does not match its manifest")
    return out


def _files(op_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(op_dir.iterdir()) if p.is_file()}


def _flag(op: Op, name: str, default: str) -> str:
    argv = list(op.argv)
    return argv[argv.index(name) + 1] if name in argv else default


# -- physics checks from the acceptance gate ---------------------------------

def _cnot_plateau(op, values, op_dir):
    """01: every bath qubit of the c-not chain is a full record."""
    ln2 = math.log(2.0)
    rows = list(csv.DictReader(io.StringIO((op_dir / "pip.csv").read_text(encoding="utf-8"))))
    n = int(_flag(op, "--n", "50"))
    out = []
    for row in rows:
        m, mean = int(row["sharpF"]), float(row["meanI_nats"])
        want = 0.0 if m == 0 else (2.0 * ln2 if m == n else ln2)
        if abs(mean - want) > 1e-12:
            out.append(f"c-not plot at sharpF = {m} is {mean!r}, not {want!r}")
    return out


def _cnot_redundancy(op, values, op_dir):
    """01: R = n exactly for perfect records."""
    n = float(_flag(op, "--n", "50"))
    return [] if values.get("r_delta") == n else [f"c-not R = {values.get('r_delta')!r}, not {n}"]


def _dust_grain(op, values, op_dir):
    """08: the dust grain in sunlight has R_0.1 within half a decade of 1e8."""
    r = values.get("r_delta", 0.0)
    return [] if 10.0 ** 7.5 <= r <= 10.0 ** 8.5 else [f"dust-grain R = {r!r} outside [1e7.5, 1e8.5]"]


def _envariance_2_1(op, values, op_dir):
    """09: fine-graining 2:1 gives Born weights 2/3, 1/3."""
    got = values.get("probabilities")
    return [] if got == ["2/3", "1/3"] else [f"2:1 weights {got!r}, not 2/3, 1/3"]


def _reversal(op, values, op_dir):
    """11: premeasurement without a copy is undone exactly."""
    f = values.get("without_copy_fidelity", 0.0)
    return [] if abs(f - 1.0) <= 1e-12 else [f"reversal fidelity {f!r} not 1 within 1e-12"]


def _haar_baseline(op, values, op_dir):
    """12: random states have mean R in [1.5, 3]."""
    r = values.get("r_delta_mean", 0.0)
    return [] if 1.5 <= r <= 3.0 else [f"baseline mean R = {r!r} outside [1.5, 3]"]


def _qbm_redundancy(op, values, op_dir):
    """07: the oscillator's R_delta is s^(2 delta) within a factor of two."""
    expected = float(_flag(op, "--squeezing", "1e3")) ** (2.0 * float(_flag(op, "--delta", "0.1")))
    ratio = values.get("r_delta", 0.0) / expected
    return [] if 0.5 <= ratio <= 2.0 else [f"qbm R / s^(2 delta) = {ratio!r} outside [0.5, 2]"]


PHYSICS = {
    "cnot_plateau": _cnot_plateau,
    "cnot_redundancy": _cnot_redundancy,
    "dust_grain": _dust_grain,
    "envariance_2_1": _envariance_2_1,
    "reversal": _reversal,
    "haar_baseline": _haar_baseline,
    "qbm_redundancy": _qbm_redundancy,
}


def check_execution(op: Op, record: dict, op_dir: Path, reference: dict | None,
                    first: tuple | None = None) -> list[str]:
    """Problems with one execution of `op`; empty means it passed.

    record is the worker's entry for the op, op_dir where it wrote its
    files, reference the recorded values for its slot, and first the
    (record, op_dir) of the op's first execution when this is a re-run.
    """
    if record.get("error"):
        return [f"raised: {record['error'].strip().splitlines()[-1]}"]
    if record.get("rc") != 0:
        return [f"exit code {record.get('rc')}"]
    problems = _safely("checksum", _checksum_problems, op_dir)
    try:
        values = op_values(op, op_dir, record.get("values"))
    except Exception as exc:  # unreadable manifest: nothing left to compare
        return problems + [f"reported values unreadable: {type(exc).__name__}: {exc}"]
    if reference is None:
        problems.append("no reference values recorded for this op")
    else:
        for key, ref in sorted(reference.items()):
            if not close(values.get(key), ref, op.family):
                problems.append(f"{key} = {values.get(key)!r}, reference {ref!r}")
    if op.physics:
        problems.extend(_safely(op.physics, PHYSICS[op.physics], op, values, op_dir))
    if first is not None:
        problems.extend(_safely("re-run", _rerun_problems, record, op_dir, *first))
    return problems


def _rerun_problems(record, op_dir, first_record, first_dir) -> list[str]:
    out = []
    if _files(op_dir) != _files(first_dir):
        out.append("re-run wrote different files or bytes")
    if repr(record.get("values")) != repr(first_record.get("values")):
        out.append("re-run returned different values")
    return out


def _safely(what: str, check, *args) -> list[str]:
    """Run one check; output it cannot read fails the op instead of the benchmark."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{what} check raised {type(exc).__name__}: {exc}"]
