"""Sweep environment haze and track what survives of the records.

For a symmetric central-spin model the redundancy ratio R^h/R follows
1 - h/h_m closely at strong haze and undershoots it at weak haze; the
locally accessible share of each fragment's information dies at h_m
while the quantum share stays. Both shares of one qubit's information
come from darwin.decompose_mutual_info, which checks that they add up to
I. Emits haze_sweep.csv.
"""
import argparse
import math

import numpy as np

from darwinlab.darwin import HazySource, decompose_mutual_info
from darwinlab.spinmodels import (LN2, CentralSpinParams, HazyCentralSpin,
                                  HazyParams, hazy_redundancy)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=192)
    ap.add_argument("--overlap", type=float, default=0.85,
                    help="per-site record overlap, sets the coupling time")
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--out", default="haze_sweep.csv")
    args = ap.parse_args()

    t = math.acos(args.overlap) / 2.0
    base = CentralSpinParams(couplings=np.ones(args.n), t=t)
    r_pure = hazy_redundancy(base, HazyParams(0.0), delta=0.1)
    print(f"N = {args.n}, overlap {args.overlap}: R(h=0) = {r_pure:.2f}")

    lines = ["h_over_hm,r_ratio,linear_estimate,classical_m1,quantum_m1"]
    for x in np.linspace(0.0, 0.95, args.points):
        hp = HazyParams(float(x) * LN2)
        ratio = hazy_redundancy(base, hp, delta=0.1) / r_pure
        c1, q1 = decompose_mutual_info(HazySource(HazyCentralSpin(args.n, 1.0, t, hp)), (0,))
        lines.append(f"{float(x)!r},{ratio!r},{1.0 - float(x)!r},{c1!r},{q1!r}")
        print(f"h/h_m = {x:.3f}  R^h/R = {ratio:.4f}  (linear: {1 - x:.3f})")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
