"""Benchmark of the recshrink tuning pipeline and its Monte Carlo oracle.

Run from the repository root:

    python3 perfbench/run.py --workload tables-known --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

One process with one compute thread solves the workload's cells in a closed
loop: the next cell starts when the previous one has finished.  Whole
passes over the cells repeat until ``--seconds`` have been measured (at
least one pass); every pass starts with the ``critical_values`` cache
empty, as each CLI invocation does.  Times are normalized by the machine
speed sampled while they are measured (speed.py); the raw times are in the
report.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it makes one untraced and one traced pass
and reports the per-layer metrics, whose span self times are raw.  Outputs
are checked after the timed region.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  A full report
(provenance, per-cell failures, check details) goes to ``perfbench/out/``.

A cell that raises, reports an error or fails an output check counts as
failed; ``correct`` is false only when the run itself cannot be trusted:
the CLI disagrees with the benchmark, passes disagree, a tracing wrapper
misfires, or convention validation fails.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_PROBES = 9
SETUP_PROBE = ("import time; t = time.perf_counter(); import recshrink; "
               "print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup() -> list[float]:
    """Import time of the package in fresh interpreters, after one warm-up import.

    Each probe is normalized by the machine speed sampled while it runs
    (see speed.py).
    """
    from speed import Sampler

    def probe():
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        return float(done.stdout)

    probe()
    sampler = Sampler()
    times = []
    for _ in range(SETUP_PROBES):
        import_s, _, factor = sampler.run(probe)
        times.append(import_s * factor)
    return times


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # a checkout without its own .git has no sha; never report an enclosing repo's
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "recshrink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "seed_feeds": "oracle Monte Carlo streams only",
        "thread_env": THREAD_ENV,
        "inherited_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count beyond) at the highest percentile with ten beyond.

    Below 20 values that percentile is at or under the median, which is no
    tail; the maximum is reported instead, with none beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 20 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


class Pass:
    """One closed-loop pass over a workload's cells.

    Each cell's time is normalized by the machine speed sampled while it
    runs (see speed.py); wall_s sums the normalized times of the pass,
    raw_wall_s is its plain wall-clock time.
    """

    def __init__(self, workload, specs, tracer=None):
        from recshrink import estimators, sim
        from speed import Sampler
        from workloads import run_cell

        sampler = Sampler()

        def timed(index, fn, *args):
            def attempt():
                try:
                    return tracer.run_cell(index, fn, *args) if tracer else fn(*args)
                except Exception as exc:  # a cell that raises is a failed cell, not a crash
                    return exc
            out, raw, factor = sampler.run(attempt)
            return out, raw, raw * factor

        estimators.critical_values.cache_clear()
        self.outputs, self.cell_s, self.raw_cell_s = [], [], []
        start = time.perf_counter()
        for i, spec in enumerate(specs):
            out, raw, scaled = timed(i, run_cell, spec)
            self.outputs.append(out)
            self.raw_cell_s.append(raw)
            self.cell_s.append(scaled)
        self.wall_s = sum(self.cell_s)
        self.validation = None
        if workload.kind == "oracle":
            self.validation, _, scaled = timed(len(specs), sim.convention_validation)
            self.wall_s += scaled
        self.raw_wall_s = time.perf_counter() - start
        self.cache = estimators.critical_values.cache_info()

    def same_outputs(self, other) -> bool:
        def key(o):
            return (type(o), str(o)) if isinstance(o, Exception) else o
        return [key(o) for o in self.outputs] == [key(o) for o in other.outputs]


def check_outputs(workload, specs, first):
    """({failed cell: reasons}, oracle z-score counts).

    A cell fails when it raised, reported an error, or its output failed a
    check; failed cells are counted, they do not make the run incorrect.
    """
    from collections import Counter

    from recshrink.minimax import TableCell
    from workloads import check_oracle_cell, check_table_cell

    failures = {}
    stats = Counter()
    for spec, out in zip(specs, first.outputs):
        label = f"({spec.design.n1},{spec.design.n2},{spec.design.variant.value})"
        if isinstance(out, Exception):
            failures[label] = [f"raised {type(out).__name__}: {out}"]
            continue
        if isinstance(out, TableCell) and out.error:
            failures[label] = [f"cell error: {out.error}"]
            continue
        try:
            reasons = (check_table_cell(spec, out) if workload.kind == "table"
                       else check_oracle_cell(spec, out, stats))
        except Exception as exc:  # a check that cannot evaluate the output rejects it
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if reasons:
            failures[label] = reasons
    return failures, dict(stats)


def start_cli(workload, specs):
    from workloads import cli_argv

    argv = [sys.executable, "-m", "recshrink.cli", *cli_argv(workload, specs)]
    return argv, subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)


def finish_cli(workload, specs, first, argv, proc) -> list[str]:
    from workloads import cli_cross_check

    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return [f"`{' '.join(argv[1:])}` timed out"]
    try:
        cli_json = json.loads(out)
    except json.JSONDecodeError:
        return [f"`{' '.join(argv[1:])}` exited {proc.returncode} without JSON: {err.strip()}"]
    return cli_cross_check(workload, specs, first.outputs, cli_json)


def trace_problems(workload, metrics) -> list[str]:
    problems = [f"wrapper {n} never fired" for n in sorted(workload.expect_fire)
                if metrics[f"{n}.calls"] == 0]
    problems += [f"wrapper {n} fired {metrics[f'{n}.calls']} times on a workload that "
                 f"should not reach it" for n in sorted(workload.expect_silent)
                 if metrics[f"{n}.calls"] != 0]
    return problems


def run_workload(args, declared) -> dict:
    setup = measure_setup() if args.trace == 0 else None

    import recshrink
    if Path(recshrink.__file__).resolve().parent != (SRC / "recshrink").resolve():
        raise RuntimeError(f"imported recshrink from {recshrink.__file__}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS, specs as make_specs

    workload = WORKLOADS[args.workload]
    specs = make_specs(workload, args.seed)
    if args.trace == 0:
        passes = [Pass(workload, specs)]
        begun = time.perf_counter() - passes[0].raw_wall_s
        while time.perf_counter() - begun < args.seconds:
            passes.append(Pass(workload, specs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced = Pass(workload, specs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Pass(workload, specs, tracer)
        finally:
            tracer.uninstall()
        passes = [traced]
    first = passes[0]
    argv, cli = start_cli(workload, specs)
    try:
        failures, oracle_stats = check_outputs(workload, specs, first)
    finally:
        problems = finish_cli(workload, specs, first, argv, cli)
    problems += [f"pass {i} gave other outputs than pass 0"
                 for i, p in enumerate(passes[1:], 1) if not p.same_outputs(first)]
    if isinstance(first.validation, Exception):
        problems.append(f"convention_validation raised {first.validation!r}")
    elif first.validation is not None and not first.validation["default_ok"]:
        problems.append("convention_validation: the default convention failed validation")

    n = len(specs)
    if args.trace == 0:
        cell_s = [statistics.median(p.cell_s[i] for p in passes) for i in range(n)]
        tail_s, tail_pct, beyond = tail(cell_s)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "solve_p50_s": statistics.median(cell_s),
            "solve_tail_s": tail_s,
            "solved_ratio": (n - len(failures)) / n,
            "peak_rss_mb": peak_rss_mb,
        }
        detail = {
            "setup_probes_s": setup,
            "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_raw_wall_s": [p.raw_wall_s for p in passes],
            "raw_cell_s": [statistics.median(p.raw_cell_s[i] for p in passes) for i in range(n)],
            "solve_p50_samples": n,
            "solve_tail_percentile": tail_pct,
            "solve_tail_beyond": beyond,
            "cell_s": cell_s,
        }
    else:
        metrics = tracer.layer_metrics(first.cache)
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced.wall_s
        problems += trace_problems(workload, metrics)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}-spans.npz"
        tracer.write(spans_path)
        detail = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
                  "spans_file": str(spans_path.relative_to(ROOT))}
    if oracle_stats:
        detail["oracle_z"] = oracle_stats

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} are not both "
                           f"declared in BENCHMARK.json and measured")
    return {
        "workload": workload.name,
        "trace": args.trace,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
        "correct": not problems,
        "attempted": n * len(passes),
        "failed": len(failures) * len(passes),
        "failures": failures,
        "problems": problems,
        "detail": detail,
        "provenance": provenance(args.seed),
    }


def run_all(args, names) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "recshrink" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a recshrink checkout; {SRC / 'recshrink'} or {bench_file} "
              f"is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    group = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    declared = {m["name"]: m["unit"] for m in group}
    if args.workload == "all":
        return run_all(args, names)

    result = run_workload(args, declared)
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1, default=str) + "\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for label, reasons in result["failures"].items():
        print(f"{args.workload} failed {label}: {'; '.join(reasons)}")
    for problem in result["problems"]:
        print(f"{args.workload} problem: {problem}")
    print(f"{args.workload} provenance: {json.dumps(result['provenance'])}")
    print(f"{args.workload} report: {report.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
