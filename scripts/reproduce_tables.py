#!/usr/bin/env python3
"""Reproduce the three tuning reference tables as CSV files.

Runs the minimax-regret optimizers over the full 6x6 design grid:
table 1 tunes the pre-test level, table 2 the shrinkage coefficient at a
fixed level, table 3 chains both.  Each table is one ``recshrink tables``
run, so the files equal that command's CSV output.  About a second in
total on a 2-core machine.

    python scripts/reproduce_tables.py --outdir results/
"""

import argparse
import pathlib
import sys
import time

from recshrink import cli

FILENAMES = {
    1: "table1_alpha_star.csv",
    2: "table2_k_star_alpha016.csv",
    3: "table3_alpha_star_k_star.csv",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--table", type=int, choices=(1, 2, 3), default=None,
                        help="only this table (default: all three)")
    parser.add_argument("--alpha", type=float, default=0.16, help="level for table 2")
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    for number in [args.table] if args.table else [1, 2, 3]:
        path = args.outdir / FILENAMES[number]
        start = time.time()
        code = cli.main(["tables", str(number), "--alpha", repr(args.alpha), "--out", str(path)])
        failed |= code != 0
        print(f"table {number} -> {path} ({time.time()-start:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
