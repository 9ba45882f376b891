#!/usr/bin/env python3
"""Emit the two reference risk-curve CSVs for the (5, 6) design.

Curve set 1: pre-test risk across several test levels.
Curve set 2: shrinkage risk at level 0.16 for K in {0, 1, 0.21}.
Both files carry the always-pool and MLE reference curves; any plotting
tool can redraw the figures from them.

    python scripts/risk_curves.py --outdir results/
"""

import argparse
import pathlib

import numpy as np

from recshrink.cli import risk_curve_rows, write_csv
from recshrink.records import DesignPair


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--n1", type=int, default=5)
    parser.add_argument("--n2", type=int, default=6)
    parser.add_argument("--alphas", default="0.05,0.16,0.30,0.50",
                        help="levels for the pre-test curve set")
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    design = DesignPair(args.n1, args.n2)
    deltas = np.geomspace(0.05, 4.0, 300)

    alphas = [float(a) for a in args.alphas.split(",")]
    fig1 = args.outdir / f"risk_pt_levels_n{args.n1}_{args.n2}.csv"
    with open(fig1, "w", encoding="utf-8") as fh:
        write_csv(risk_curve_rows(design, deltas, [(a, 1.0) for a in alphas]), fh)
    print(f"pre-test level curves -> {fig1}")

    fig2 = args.outdir / f"risk_shrink_k_n{args.n1}_{args.n2}.csv"
    with open(fig2, "w", encoding="utf-8") as fh:
        pairs = [(0.16, 0.0), (0.16, 1.0), (0.16, 0.21)]
        write_csv(risk_curve_rows(design, deltas, pairs), fh)
    print(f"shrinkage coefficient curves -> {fig2}")


if __name__ == "__main__":
    main()
