#!/usr/bin/env python3
"""Monte Carlo comparison of the MLE, pre-test, and shrinkage estimators.

Mirrors the reference simulation layout: eight designs, theta2 from 0.1 to
3.0, either a fixed level 0.16 with the matching tuned K ("fixed") or the
per-design (alpha*, K*) pair ("optimal").  Tuned values are computed live
by the optimizers before simulating.

    python scripts/run_simulation.py --mode fixed --reps 100000 --out results/sim_fixed.csv
"""

import argparse
import pathlib
import sys

from recshrink.cli import write_csv
from recshrink.minimax import optimal_alpha, optimal_k
from recshrink.records import DesignPair
from recshrink.sim import (
    CSV_COLUMNS,
    STUDY_REPLICATES,
    STUDY_SEED,
    THETA2_GRID,
    SimConfig,
    mc_compare,
)

DESIGNS = ((2, 2), (7, 2), (2, 5), (7, 5), (2, 10), (7, 7), (10, 2), (10, 7))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("fixed", "optimal"), default="fixed")
    parser.add_argument("--reps", type=int, default=STUDY_REPLICATES)
    parser.add_argument("--seed", type=int, default=STUDY_SEED)
    parser.add_argument("--out", default="results/simulation.csv", type=pathlib.Path)
    args = parser.parse_args(argv)

    rows = [list(CSV_COLUMNS) + ["alpha", "k"]]
    for i, (n1, n2) in enumerate(DESIGNS):
        design = DesignPair(n1, n2)
        if args.mode == "fixed":
            alpha = 0.16
        else:
            alpha = optimal_alpha(design).tuned_value
        k = optimal_k(design, alpha).tuned_value
        config = SimConfig(
            design=design, theta2_grid=THETA2_GRID, seed=args.seed + i,
            alpha=alpha, k=k, replicates=args.reps,
        )
        report = mc_compare(config)
        for data_row in report.to_csv_rows()[1:]:
            rows.append(data_row + [alpha, k])
        print(f"({n1},{n2}): alpha={alpha:.3f} k={k:.3f} done")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_csv(rows, fh)
    print(f"simulation table -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
