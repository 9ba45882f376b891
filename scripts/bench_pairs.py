"""Paired perfbench runs of a parent and a change, with a verdict per metric.

    python3 scripts/bench_pairs.py --parent A --change B [--null C] \\
        --workload large-designs,tables-known --seed 29 --seconds 5 --rounds 10

A, B and C are checkouts of the repository (a null is a second copy of the
parent, which shows how far two identical trees read apart).  Run each from
a copy without ``.git``, since ``perfbench/run.py`` writes ``perfbench/out/``
in the tree it runs from.  ``--workload`` takes one workload or a
comma-separated list.  Each round runs ``perfbench/run.py --trace 0`` once
per listed workload in every checkout, one after the other, and the order
of the checkouts rotates from round to round, so no side always runs
first.  One set of rounds thus shows both a claimed gain and that no other
workload got worse.  The metrics and whether lower or higher is better come
from each run's last output line and the parent's BENCHMARK.json.

For every workload and metric it prints each side's median and quartiles
over the rounds, and for the change (and the null) against the parent: the
pairs won (the runs of one round form a pair; ties count for neither side),
the median's relative move, the regression bound, and a verdict:

- ``gain``: won at least 9 pairs in 10, the medians differ in the better
  direction by more than the parent's interquartile range and, with a
  null, by more than the null's median moved either way, and in no round
  did a larger share of operations fail than at the parent;
- ``worse``: the median moved the wrong way by more than the bound;
- ``unresolved``: the parent's own spread is wider than the bound, so the
  median cannot show that the metric stayed within it, and not every run
  reads better than every parent run (reported only when the metric is
  neither a gain nor worse);
- ``within bound`` otherwise.

It also prints each side's largest share of failed operations in one run.
The share, not the count, is compared: perfbench counts the operations of
every pass, so a faster side attempts and fails more in the same run length.

Uses the standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def perfbench_lines(tree: Path, workload: str, seed: int, seconds: float,
                    trace: int) -> list[str]:
    """The output lines of one ``perfbench/run.py`` run inside ``tree``; a failed run raises."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """({metric: value}, failed share) from one ``perfbench/run.py --trace 0`` run in ``tree``."""
    last = json.loads(perfbench_lines(tree, workload, seed, seconds, 0)[-1])
    if not last.get("correct", False):
        raise RuntimeError(f"run in {tree} reported correct = false")
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    return metrics, last["failed"] / last["attempted"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), with the inclusive method so few samples still work."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], other: list[float], better: str, bound: float | None,
            more_failed: bool, null_move: float = 0.0) -> dict:
    """Pairs won by ``other`` over ``base``, its median move and the verdict.

    ``more_failed``: in some round ``other`` failed a larger share of
    operations.  ``null_move``: how far the null's median moved from the
    parent's, either way; a gain must move further.
    """
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (o - b) > 0.0 for b, o in zip(base, other))
    lost = sum(sign * (o - b) < 0.0 for b, o in zip(base, other))
    q1, med, q3 = quartiles(base)
    other_med = quartiles(other)[1]
    gain = sign * (other_med - med)
    rel = (other_med - med) / abs(med) if med else 0.0
    every_run_better = min(sign * o for o in other) > max(sign * b for b in base)
    if won >= 0.9 * len(base) and gain > max(q3 - q1, null_move) and not more_failed:
        verdict = "gain"
    elif bound is not None and -gain > bound * abs(med):
        verdict = "worse"
    elif bound is not None and q3 - q1 > bound * abs(med) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"won": won, "lost": lost, "pairs": len(base), "rel": rel,
            "parent_iqr": q3 - q1, "verdict": verdict}


def directions(tree: Path) -> dict:
    """{metric: (better, bound)} from the end-to-end metrics of BENCHMARK.json."""
    bench = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: (m.get("better", "lower"), m.get("bound")) for m in bench["end_to_end"]}


def report(names: list[str], runs: dict, failed_share: dict, rules: dict) -> None:
    """Print one workload's failed shares and, per metric, each side's quartiles and verdicts."""
    print("largest failed share: " + ", ".join(f"{name} {max(failed_share[name]):.4g}"
                                               for name in names))
    more_failed = {name: any(o > b for b, o in zip(failed_share["parent"], failed_share[name]))
                   for name in names[1:]}
    for metric in runs["parent"][0]:
        better, bound = rules.get(metric, ("lower", None))
        values = {name: [run[metric] for run in runs[name]] for name in names}
        print(f"{metric} ({better} is better, bound {bound})")
        for name in names:
            q1, med, q3 = quartiles(values[name])
            print(f"  {name:7s} median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]")
        parent_med = quartiles(values["parent"])[1]
        null_move = abs(quartiles(values["null"])[1] - parent_med) if "null" in values else 0.0
        for name in names[1:]:
            c = compare(values["parent"], values[name], better, bound, more_failed[name],
                        null_move if name == "change" else 0.0)
            print(f"  {name} vs parent: won {c['won']}/{c['pairs']} pairs, lost {c['lost']}, "
                  f"median {100.0 * c['rel']:+.1f} %, parent IQR {c['parent_iqr']:.3g}: "
                  f"{c['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--null", type=Path, help="a second copy of the parent")
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = {"parent": args.parent, "change": args.change}
    if args.null is not None:
        sides["null"] = args.null
    names = list(sides)
    workloads = args.workload.split(",")
    runs = {(w, name): [] for w in workloads for name in names}
    failed_share = {(w, name): [] for w in workloads for name in names}
    for r in range(args.rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for workload in workloads:
            for name in order:
                metrics, share = run_once(sides[name], workload, args.seed, args.seconds)
                runs[workload, name].append(metrics)
                failed_share[workload, name].append(share)
        print(f"round {r + 1}/{args.rounds}: {' -> '.join(order)}", file=sys.stderr)

    rules = directions(args.parent)
    for workload in workloads:
        print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s runs, "
              f"{args.rounds} rounds")
        report(names, {name: runs[workload, name] for name in names},
               {name: failed_share[workload, name] for name in names}, rules)
    return 0


if __name__ == "__main__":
    sys.exit(main())
