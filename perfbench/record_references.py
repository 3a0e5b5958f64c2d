"""Record the oracle's reference values for every workload and slot.

Usage (from the repository root): python3 perfbench/record_references.py

Runs one untraced pass per workload and reference slot and stores what
each op reports in perfbench/references.json. Run it only on a commit
whose numbers the acceptance gate accepts: later commits are checked
against these values.
"""
from __future__ import annotations

import json
import shutil
import sys

import oracle
from ops import SLOTS, WORKLOADS, op_dir, workload_ops
from run import WORK, host_env, run_worker


def main() -> int:
    refs = {"slots": SLOTS, "recorded_at": host_env(), "references": {}}
    work = WORK / "references"
    for workload in WORKLOADS:
        per_slot = refs["references"][workload] = {}
        for slot in range(SLOTS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            result = run_worker(workload, slot, work / "pass0", False, timeout=600.0)
            ops = workload_ops(workload, slot)
            per_slot[str(slot)] = {}
            for i, (op, record) in enumerate(zip(ops, result["ops"])):
                if record["rc"] != 0 or record["error"]:
                    raise SystemExit(f"{workload} slot {slot} {op.name} failed: {record}")
                values = oracle.op_values(op, op_dir(work / "pass0", i), record["values"])
                per_slot[str(slot)][op.name] = values
            print(f"{workload} slot {slot}: {result['pass_s']:.2f} s", flush=True)
    refs["recorded_at"]["env"] = result["env"]
    oracle.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
