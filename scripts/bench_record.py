"""Record one tree's benchmark results as ``BENCH_<TAG>.json``.

    python3 scripts/bench_record.py --tag pr26 [--tree T] [--seed 1] [--seconds 5] \\
        [--workload W1,W2] [--no-tier1]

For every workload of the tree's BENCHMARK.json (or those listed), it runs
``perfbench/run.py`` once with ``--trace 0`` and once with ``--trace 1``
inside the tree (default: the checkout holding this script), and copies from
the full report each run writes to ``perfbench/out/``: the metrics with
their units (end-to-end at trace 0, per-layer counts and self times at trace
1), ``correct``, ``attempted``, ``failed``, the failed cells, the problems
and the run's detail.  A report whose metrics or counts differ from the
run's own last output line is an error, so every recorded value is the one
perfbench reported.  Then, unless ``--no-tier1``, it times the tier-1 test
command once and records its wall time and its passed, failed and xfailed
counts.  The provenance (cores, CPU model, python, numpy, git sha, dirty
flag, source sha256, seed, thread environment) is the first report's.

The file goes to ``BENCH_<TAG>.json`` at the root of the tree.  It is one
side's record: a gain is claimed from paired runs of
``scripts/bench_pairs.py``, never from one file.  Run it on a copy without
``.git`` to record another commit, since perfbench writes into the tree.

Uses the standard library and the run helper of ``bench_pairs.py`` beside it.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import perfbench_lines

TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
_COUNT = re.compile(r"(\d+) (passed|failed|xfailed)\b")
_KEPT = ("metrics", "correct", "attempted", "failed", "failures", "problems", "detail")


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The kept parts of the report of one ``perfbench/run.py`` run."""
    lines = perfbench_lines(tree, workload, seed, seconds, trace)
    path = next(line.split(" report: ", 1)[1] for line in lines
                if line.startswith(f"{workload} report: "))
    report = json.loads((tree / path).read_text(encoding="utf-8"))
    last = json.loads(lines[-1])
    if any(report[key] != last[key] for key in last):
        raise RuntimeError(f"{tree / path} disagrees with the run's last line")
    return {key: report[key] for key in _KEPT} | {"provenance": report["provenance"]}


def tier1(tree: Path) -> dict:
    """Wall time and outcome counts of one tier-1 run in ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"),
                                                      env.get("PYTHONPATH"))))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    wall_s = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"command": ["python", *TIER1], "wall_s": wall_s, "exit_code": done.returncode,
            "summary": summary, **outcomes(summary)}


def outcomes(summary: str) -> dict:
    """Passed, failed and xfailed counts from pytest's last summary line."""
    counts = {kind: int(n) for n, kind in _COUNT.findall(summary)}
    return {kind: counts.get(kind, 0) for kind in ("passed", "failed", "xfailed")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="each trace-0 run's length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workload", help="comma-separated workloads (default: all)")
    parser.add_argument("--no-tier1", action="store_true", help="skip timing the tier-1 tests")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
    bench = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload.split(",") if args.workload else [w["name"] for w in bench["workloads"]]
    record = {"tag": args.tag, "seed": args.seed, "seconds": seconds, "workloads": {}}
    provenance = None
    for name in names:
        runs = {}
        for trace in (0, 1):
            run = perfbench(tree, name, args.seed, seconds, trace)
            provenance = provenance or run["provenance"]
            runs[f"trace{trace}"] = {k: v for k, v in run.items() if k != "provenance"}
            print(f"{name} trace {trace}: correct={run['correct']}, "
                  f"failed {run['failed']} of {run['attempted']}", flush=True)
        record["workloads"][name] = runs
    record["tier1"] = None if args.no_tier1 else tier1(tree)
    record["provenance"] = provenance
    out = tree / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
