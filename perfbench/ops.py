"""The four workloads: fixed lists of operations (ops) derived from a seed.

Each workload gives one darwinlab layer most of the work; the other three
bypass that layer. The workload seed is folded onto SLOTS reference slots
(slot = seed mod SLOTS) because the correctness oracle keeps reference
values per slot. Every per-op seed and the random K = 16 branching tables
are derived from the slot, so the same seed always gives the same inputs
and darwinlab only ever sees those generated inputs.

This module is standard-library only: the orchestrator uses it without
importing darwinlab.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

SLOTS = 16

# why each workload exists: README.md in this directory and BENCHMARK.json
WORKLOADS = ("records-wide", "scramble-dense", "oscillator-bands", "hazy-sectors")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    CLI ops run darwinlab.cli.main(argv + ["--out", dir]); library ops run
    the function `lib` of worker.LIBRARY with keyword `params`. `family`
    picks the reference tolerance and `physics` names a check in
    oracle.PHYSICS. README.md lists the acceptance test or README command
    each op comes from.
    """

    name: str
    family: str
    argv: tuple = ()
    lib: str = ""
    params: tuple = ()
    physics: str = ""


def op_dir(pass_dir, index: int):
    """Directory op number `index` of a pass writes into."""
    return pass_dir / f"op{index:02d}"


def slot_of(seed: int) -> int:
    return seed % SLOTS


def derived_seed(workload: str, slot: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload}/{slot}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2 ** 31


def _cli(name, family, argv, seed, physics=""):
    return Op(name, family, argv=tuple(argv) + ("--seed", str(seed)), physics=physics)


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    slot = slot_of(seed)

    def s(label):
        return derived_seed(workload, slot, label)

    if workload == "records-wide":
        return [
            _cli("redundancy-central-spin-2000-a", "exact",
                 ["redundancy", "--model", "central-spin", "--n", "2000"], s("cs-a")),
            _cli("redundancy-central-spin-2000-b", "exact",
                 ["redundancy", "--model", "central-spin", "--n", "2000"], s("cs-b")),
            _cli("pip-cnot-2000", "exact",
                 ["pip", "--model", "cnot", "--n", "2000"], s("cnot-2000"), "cnot_plateau"),
            Op("branching-k16-200", "exact", lib="branching_pip",
               params=(("n_env", 200), ("branches", 16), ("samples", 24), ("delta", 0.1),
                       ("table_seed", s("k16-table")), ("seed", s("k16-sample")))),
            _cli("readme-pip", "exact",
                 ["pip", "--model", "central-spin", "--n", "50", "--t", "4.0"], s("readme-pip")),
            _cli("readme-redundancy", "exact",
                 ["redundancy", "--model", "cnot", "--n", "20", "--delta", "0.1"],
                 s("readme-redundancy"), "cnot_redundancy"),
            _cli("readme-sweep", "exact",
                 ["sweep", "--model", "central-spin", "--n", "9", "--fragment-size", "3"],
                 s("readme-sweep")),
            _cli("readme-photon-preset", "exact",
                 ["photon", "--preset", "dust-grain-sunlight"], s("photon-preset"), "dust_grain"),
            _cli("photon-curve", "exact",
                 ["photon", "--t-over-tau", "10"], s("photon-curve")),
            _cli("readme-envariance", "exact",
                 ["envariance", "--finegraining", "2:1"], s("envariance"), "envariance_2_1"),
            _cli("readme-reversal", "exact",
                 ["reversal", "--amplitudes", "0.8,0.6"], s("reversal"), "reversal"),
        ]
    if workload == "scramble-dense":
        # one seed for the three times: the same couplings rise, plateau and fall
        rise = s("rise-and-fall")
        return [
            _cli(f"redundancy-interacting-14-t{t}", "exact",
                 ["redundancy", "--model", "interacting", "--n", "14", "--t", t], rise)
            for t in ("0.5", "10", "500")
        ] + [
            _cli("readme-baseline", "exact",
                 ["baseline", "--n", "12", "--states", "20"], s("baseline"), "haar_baseline"),
            _cli("sweep-interacting-12", "exact",
                 ["sweep", "--model", "interacting", "--n", "12", "--fragment-size", "3"],
                 s("sweep")),
        ]
    if workload == "oscillator-bands":
        return [
            _cli("readme-qbm", "gaussian",
                 ["qbm", "--squeezing", "1e3", "--t", "3.0"], s("qbm-128"), "qbm_redundancy"),
            _cli("qbm-64-p", "gaussian",
                 ["qbm", "--bands", "64", "--squeezing", "1e2", "--direction", "p"],
                 s("qbm-64"), "qbm_redundancy"),
        ]
    # hazy-sectors: t as in acceptance 13, where the per-site overlap is 0.85
    t13 = math.acos(0.85) / 2.0
    return [
        _cli("redundancy-hazy-64", "exact",
             ["redundancy", "--model", "hazy", "--n", "64", "--haze", "0.3"], s("hazy-cli")),
    ] + [
        Op(f"hazy-redundancy-{n}-x{x}", "exact", lib="hazy_redundancy",
           params=(("n", n), ("x", x), ("t", t13), ("delta", 0.1)))
        for n, x in ((256, 0.75), (256, 0.85), (128, 0.9))
    ]
