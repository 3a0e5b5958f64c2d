"""Redundancy against time for the self-interacting environment.

Decoherence couplings build records early, intra-environment mixing
scrambles them late; redundancy rises, plateaus, and falls back to the
random-state value near 2. Writes r_of_t.csv (t, R_0.1, H_S).

    python scripts/rise_and_fall.py [--n N] [OUT]
    python scripts/rise_and_fall.py [--n N] --draws K [OUT]

N is the number of bath qubits (default 14); the dense state has
2^(N+1) amplitudes, so the dimension cap allows N up to 19.

With --draws K the scan runs once per coupling draw, with seeds SEED to
SEED + K - 1 (each seeds both the couplings and the fragment sampling, so
the draw SEED is the default scan), and writes r_peaks.csv: per draw, the
peak R over the t scan, the t where it peaks, and R at the first and last
t, whose ratios to the peak are the rise and the fall.
"""
import argparse
import time
from dataclasses import replace

import numpy as np

from darwinlab.darwin import InteractingSource, redundancy_scan
from darwinlab.spinmodels import random_interacting_params

N_ENV = 14          # default bath size; dense path holds the full 2^(N+1) state
SIGMA_D = 0.1
SIGMA_M = 0.001
SEED = 28
DELTA = 0.1
# log-spaced through all three regimes: pre-record, plateau, scrambled
TIMES = np.geomspace(0.25, 500.0, 17)


def r_of_t(n: int, seed: int):
    """(t, R_delta, H_S) at every t of TIMES, for the couplings of one draw."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    base = random_interacting_params(rng, n, 1.0, sigma_d=SIGMA_D, sigma_m=SIGMA_M)
    for t in TIMES:
        source = InteractingSource(replace(base, t=float(t)))
        report, _ = redundancy_scan(source, DELTA, 24, seed)
        yield float(t), report.r_delta, source.system_entropy()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=N_ENV, help="bath qubits")
    ap.add_argument("--draws", type=int, default=0,
                    help="report the peak R of this many coupling draws instead")
    ap.add_argument("out", nargs="?", default=None,
                    help="output CSV (default r_of_t.csv, or r_peaks.csv with --draws)")
    args = ap.parse_args()
    if args.draws < 0:
        ap.error("--draws must be nonnegative")

    started = time.monotonic()
    if args.draws:
        out = args.out or "r_peaks.csv"
        lines = ["seed,t_peak,r_peak,r_first,r_last"]
        for seed in range(SEED, SEED + args.draws):
            scan = list(r_of_t(args.n, seed))
            t_peak, r_peak, _ = max(scan, key=lambda row: row[1])
            lines.append(f"{seed},{t_peak!r},{r_peak!r},{scan[0][1]!r},{scan[-1][1]!r}")
            print(f"seed {seed}  peak R = {r_peak:6.2f} at t = {t_peak:8.2f}  "
                  f"rise x{r_peak / scan[0][1]:.2f}  fall x{r_peak / scan[-1][1]:.2f}")
    else:
        out = args.out or "r_of_t.csv"
        lines = ["t,r_delta,h_system_nats"]
        for t, r, h_s in r_of_t(args.n, SEED):
            lines.append(f"{t!r},{r!r},{h_s!r}")
            print(f"t = {t:8.2f}  R = {r:6.2f}  H_S = {h_s:.4f}")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out} in {time.monotonic() - started:.1f}s")


if __name__ == "__main__":
    main()
