"""Redundancy against time for the self-interacting environment.

Decoherence couplings build records early, intra-environment mixing
scrambles them late; redundancy rises, plateaus, and falls back to the
random-state value near 2. Writes r_of_t.csv (t, R_0.1, H_S).

    python scripts/rise_and_fall.py [--n N] [OUT]

N is the number of bath qubits (default 14); the dense state has
2^(N+1) amplitudes, so the dimension cap allows N up to 19.
"""
import argparse
import time
from dataclasses import replace

import numpy as np

from darwinlab.darwin import InteractingSource, build_pip, redundancy
from darwinlab.spinmodels import random_interacting_params

N_ENV = 14          # default bath size; dense path holds the full 2^(N+1) state
SIGMA_D = 0.1
SIGMA_M = 0.001
SEED = 28
DELTA = 0.1
# log-spaced through all three regimes: pre-record, plateau, scrambled
TIMES = np.geomspace(0.25, 500.0, 17)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=N_ENV, help="bath qubits")
    ap.add_argument("out", nargs="?", default="r_of_t.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(np.random.SeedSequence((SEED, args.n)))
    base = random_interacting_params(rng, args.n, 1.0, sigma_d=SIGMA_D,
                                     sigma_m=SIGMA_M)
    lines = ["t,r_delta,h_system_nats"]
    started = time.monotonic()
    for t in TIMES:
        src = InteractingSource(replace(base, t=float(t)))
        pip = build_pip(src, samples_per_fraction=24, seed=SEED)
        r = redundancy(pip, DELTA)
        lines.append(f"{float(t)!r},{r.r_delta!r},{pip.h_system!r}")
        print(f"t = {t:8.2f}  R = {r.r_delta:6.2f}  H_S = {pip.h_system:.4f}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} in {time.monotonic() - started:.1f}s")


if __name__ == "__main__":
    main()
