#!/usr/bin/env python3
"""Compare two `recshrink tables --format json` outputs cell by cell.

Prints the largest difference per column, then every cell whose error
status differs or whose values differ by more than the tolerance, and
exits 1 if there is any such cell.  alpha_star and k_star, which lie in
[0, 1], are compared absolutely; regret_level, delta_L and delta_U relative
to the larger magnitude.  A file that cannot be read, is not JSON, or is
not a list of table cells exits 2 with one ``error: ...`` line, so a gate
can tell a broken input from a difference.

    python scripts/compare_tables.py before.json after.json --tol 1e-6
"""

import argparse
import json
import sys

ABSOLUTE = ("alpha_star", "k_star")
RELATIVE = ("regret_level", "delta_L", "delta_U")


def _diff(column, a, b):
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    d = abs(a - b)
    if column in RELATIVE and d > 0.0:
        d /= max(abs(a), abs(b))
    return d


def compare(cells_a, cells_b, tol):
    """({column: max difference}, [lines naming the differing cells])."""
    a = {(c["n1"], c["n2"]): c for c in cells_a}
    b = {(c["n1"], c["n2"]): c for c in cells_b}
    worst = {col: 0.0 for col in ABSOLUTE + RELATIVE}
    problems = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            problems.append(f"{key}: only in {'first' if key in a else 'second'} file")
            continue
        ca, cb = a[key], b[key]
        if bool(ca["error"]) != bool(cb["error"]):
            problems.append(f"{key}: error {ca['error']!r} vs {cb['error']!r}")
            continue
        moved = []
        for col in worst:
            d = _diff(col, ca[col], cb[col])
            worst[col] = max(worst[col], d)
            if d > tol:
                moved.append(f"{col} {ca[col]!r} -> {cb[col]!r} (diff {d:.3g})")
        if moved:
            problems.append(f"{key}: " + "; ".join(moved))
    return worst, problems


def _load(path):
    """The cells of one table file; ValueError if it is not a list of cells."""
    try:
        with open(path, encoding="utf-8") as fh:
            cells = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    keys = {"n1", "n2", "error", *ABSOLUTE, *RELATIVE}
    if not isinstance(cells, list) or not all(isinstance(c, dict) and keys <= c.keys()
                                              for c in cells):
        raise ValueError(f"{path}: not a list of table cells")
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args(argv)
    try:
        cells_a, cells_b = _load(args.first), _load(args.second)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worst, problems = compare(cells_a, cells_b, args.tol)
    for col, d in worst.items():
        kind = "abs" if col in ABSOLUTE else "rel"
        print(f"max |diff| {col} ({kind}): {d:.3g}")
    for line in problems:
        print(line)
    print(f"{len(problems)} cell(s) differ beyond {args.tol:g}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
