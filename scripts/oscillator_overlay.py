"""Overlay the oscillator partial-information plot on its universal form.

A strongly squeezed oscillator decohered by an ohmic bath lands on
H_S + (1/2) ln(f/(1-f)) independently of most details. Prints the
residuals over the middle of the plot and writes overlay.csv with
columns (f, measured, universal).
"""
import argparse
import math

from darwinlab.darwin import GaussianSource, build_pip, redundancy
from darwinlab.qbm import OhmicBathParams, qbm_evolve, qbm_redundancy, universal_pip


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--squeezing", type=float, default=1e3)
    ap.add_argument("--t", type=float, default=3.0)
    ap.add_argument("--damping", type=float, default=0.05)
    ap.add_argument("--bands", type=int, default=128)
    ap.add_argument("--samples", type=int, default=96)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="overlay.csv")
    args = ap.parse_args()

    bath = OhmicBathParams(damping=args.damping, bands=args.bands)
    state = qbm_evolve(bath, args.squeezing, "x", args.t)
    pip = build_pip(GaussianSource(state), samples_per_fraction=args.samples,
                    seed=args.seed)
    h_s = pip.h_system
    print(f"H_S = {h_s:.4f} nats (ln s = {math.log(args.squeezing):.4f})")

    lines, worst = ["f,measured_nats,universal_nats"], 0.0
    for p in pip.points:
        if not 0.0 < p.f < 1.0:
            continue
        ref = universal_pip(h_s, p.f)
        lines.append(f"{p.f!r},{p.mean_i!r},{ref!r}")
        if 0.1 <= p.f <= 0.9:
            worst = max(worst, abs(p.mean_i - ref))
    print(f"worst mid-plot residual: {worst:.4f} nats")
    for delta in (0.1, 0.25):
        r = redundancy(pip, delta).r_delta
        print(f"delta = {delta}: R = {r:.2f} "
              f"(power law predicts {qbm_redundancy(args.squeezing, delta):.2f})")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
