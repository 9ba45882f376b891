"""Run a fixed set of CLI commands on two trees and name each whose output differs.

    python3 scripts/same_output.py --parent A --change B

A and B are checkouts of the repository.  Each command runs as
``python -m recshrink.cli ...`` from inside its tree, with that tree's
``src`` as PYTHONPATH, so each side runs its own code.  The commands are the
CLI outputs a change that claims the same bits must leave alone: tables 1-3
under both variants, table 2 as CSV, table 3 on the {40, 150} and the
{400, 600, 1000} grids under both variants, two alpha* solves (at (5, 6)
and at (5000, 5000)) and eight K* solves (one of them a fallback at
alpha = 1e-30, one at (2, 2) location-scale, alpha = 0.99, whose
corrected root is clamped into the search interval and which then fails
to equalize, two at alpha = 0.9, at (5, 3) and (12, 2), whose upper
sides reach the far grid, where the regret's rounding noise lies, and
three whose lower crossing delta1 lies far below the upper one or does
not exist: (6, 4) at alpha = 0.9, delta1 = 0.75 against an upper crossing
of 609, (2, 39) at alpha = 0.5, delta1 = 7.4e-4 against 1.31, and (2, 5)
location-scale at alpha = 0.5, with no lower crossing), a
seeded Monte Carlo comparison, three risk curves on the grid route, the
estimator on the example records, the seeded convention validation, and
two argument errors: table 2 at a level outside (0, 1) and a
one-replicate Monte Carlo run.

One line per command says whether its stdout, stderr and exit code are
the same on both sides, and names those that differ.  The exit status is 1
when any command differs, else 0.

Uses the standard library only.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    *(("tables", which, "--format", "json", "--variant", variant)
      for which in ("1", "2", "3") for variant in ("known", "locscale")),
    ("tables", "2", "--alpha", "0.16", "--variant", "locscale"),
    *(("tables", "3", "--grid", grid, "--format", "json", "--variant", variant)
      for grid in ("40,150", "400,600,1000") for variant in ("known", "locscale")),
    ("optimal-alpha", "--n1", "5", "--n2", "6", "--format", "json"),
    ("optimal-alpha", "--n1", "5000", "--n2", "5000", "--format", "json"),
    ("optimal-k", "--n1", "7", "--n2", "2", "--variant", "locscale", "--alpha", "0.16",
     "--format", "json"),
    ("optimal-k", "--n1", "5", "--n2", "6", "--alpha", "1e-30"),
    ("optimal-k", "--n1", "2", "--n2", "2", "--variant", "locscale", "--alpha", "0.99"),
    *(("optimal-k", "--n1", n1, "--n2", n2, "--alpha", "0.9", "--format", "json")
      for n1, n2 in (("5", "3"), ("12", "2"), ("6", "4"))),
    ("optimal-k", "--n1", "2", "--n2", "39", "--alpha", "0.5", "--format", "json"),
    ("optimal-k", "--n1", "2", "--n2", "5", "--alpha", "0.5", "--variant", "locscale",
     "--format", "json"),
    ("simulate", "--n1", "2", "--n2", "2", "--seed", "1", "--format", "json"),
    ("risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16", "--k", "0", "--k", "0.21",
     "--k", "1", "--format", "json"),
    ("estimate", "tests/data/example_records.csv", "--k", "0.24", "--format", "json"),
    ("validate", "--reps", "2000"),
    ("tables", "2", "--alpha", "1.5", "--grid", "2,3"),
    ("simulate", "--n1", "2", "--n2", "2", "--reps", "1", "--theta2-grid", "1",
     "--format", "json"),
)


def run(tree: Path, args: tuple) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``recshrink`` ``args`` on the code of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run([sys.executable, "-m", "recshrink.cli", *args], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    return done.stdout, done.stderr, done.returncode


def differences(parent: tuple, change: tuple) -> list[str]:
    """Names of the parts of two (stdout, stderr, exit code) results that differ."""
    return [name for name, a, b in zip(("stdout", "stderr", "exit code"), parent, change)
            if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    differing = 0
    for command in COMMANDS:
        parent = run(args.parent, command)
        diff = differences(parent, run(args.change, command))
        differing += bool(diff)
        verdict = f"DIFFERS in {', '.join(diff)}" if diff else f"same (exit {parent[2]})"
        print(f"{verdict}: recshrink {' '.join(command)}", flush=True)
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
