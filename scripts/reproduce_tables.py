#!/usr/bin/env python3
"""Reproduce the three tuning reference tables as CSV files.

Runs the minimax-regret optimizers over the full 6x6 design grid:
table 1 tunes the pre-test level, table 2 the shrinkage coefficient at a
fixed level, table 3 chains both.  About a second in total on a 2-core
machine.

    python scripts/reproduce_tables.py --outdir results/
"""

import argparse
import pathlib
import sys
import time

from recshrink.cli import write_csv
from recshrink.minimax import TableCase, generate_tables

CASES = {
    1: (TableCase.ALPHA, "table1_alpha_star.csv"),
    2: (TableCase.K_FIXED_ALPHA, "table2_k_star_alpha016.csv"),
    3: (TableCase.K_OPTIMAL_ALPHA, "table3_alpha_star_k_star.csv"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--table", type=int, choices=(1, 2, 3), default=None,
                        help="only this table (default: all three)")
    parser.add_argument("--alpha", type=float, default=0.16, help="level for table 2")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    which = [args.table] if args.table else [1, 2, 3]
    failed = 0
    for number in which:
        case, filename = CASES[number]
        start = time.time()
        cells = generate_tables(case, alpha=args.alpha)
        rows = [["n1", "n2", "alpha_star", "k_star", "regret_level", "delta_L", "delta_U"]]
        for c in cells:
            if c.error:
                failed += 1
                print(f"table {number} cell ({c.n1},{c.n2}) failed: {c.error}",
                      file=sys.stderr)
            rows.append([c.n1, c.n2, c.alpha_star, c.k_star, c.regret_level,
                         c.delta_L, c.delta_U])
        path = args.outdir / filename
        with open(path, "w", encoding="utf-8") as fh:
            write_csv(rows, fh)
        print(f"table {number}: {len(cells)} cells -> {path} ({time.time()-start:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
