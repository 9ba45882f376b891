"""Smoke runs of the scripts: run_simulation, bench_pairs, same_output, bench_record and
code_lines."""

import csv
import json
import pathlib
import shutil

import bench_pairs
import bench_record
import code_lines
import run_simulation
import same_output
from recshrink.sim import CSV_COLUMNS


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_simulation(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_simulation.main(["--reps", "2000", "--out", str(out)]) == 0
    rows = _rows(out)
    assert rows[0] == list(CSV_COLUMNS) + ["alpha", "k"]
    # one row per design and theta2 value
    assert len(rows) == 1 + len(run_simulation.DESIGNS) * len(run_simulation.THETA2_GRID) == 81
    assert {row[-2] for row in rows[1:]} == {"0.16"}


# perfbench/run.py stand-in: run i of a tree reports wall_s[i], and failed[i]
# of attempted[i] operations, from the plan of its workload if it has one
_STUB_RUN = '''import json, pathlib, sys
here = pathlib.Path(__file__).parent
workload = sys.argv[sys.argv.index("--workload") + 1]
plan = json.loads((here / "plan.json").read_text())
plan = plan.get(workload, plan)
count = here / f"count-{workload}"
i = int(count.read_text()) if count.exists() else 0
count.write_text(str(i + 1))
print("stub report line")
print(json.dumps({"correct": True, "attempted": plan["attempted"][i],
                  "failed": plan["failed"][i], "metrics": {
    "wall_s": {"value": plan["wall_s"][i], "unit": "s"},
    "solved_ratio": {"value": 1.0, "unit": "ratio"}}}))
'''
_STUB_BENCH = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solved_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]}


def _plan(wall_s, failed, attempted):
    return {"wall_s": wall_s, "failed": failed, "attempted": attempted}


def _bench_pairs(tmp_path, plans, workload="w", rounds=10):
    """Run bench_pairs for ``rounds`` rounds over stub trees; (stdout, stderr).

    A side's plan is (wall_s, failed, attempted), or {workload: plan} for several.
    """
    argv = ["--workload", workload, "--seed", "29", "--seconds", "0", "--rounds", str(rounds)]
    for name, plan in plans.items():
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(_STUB_RUN)
        plan = ({w: _plan(*p) for w, p in plan.items()} if isinstance(plan, dict)
                else _plan(*plan))
        (tree / "perfbench" / "plan.json").write_text(json.dumps(plan))
        (tree / "BENCHMARK.json").write_text(json.dumps(_STUB_BENCH))
        argv += [f"--{name}", str(tree)]
    assert bench_pairs.main(argv) == 0
    return argv


def _wall_lines(out):
    return out.split("wall_s (lower is better, bound 0.25)")[1].split("solved_ratio")[0]


def test_bench_pairs(tmp_path, capsys):
    # the change runs twice the passes, so it attempts and fails twice as many
    _bench_pairs(tmp_path, {"parent": ([1.0] * 10, [1] * 10, [18] * 10),
                            "change": ([0.5] * 10, [2] * 10, [36] * 10),
                            "null": ([1.0] * 10, [1] * 10, [18] * 10)})
    out = capsys.readouterr()
    assert "largest failed share: parent 0.05556, change 0.05556, null 0.05556" in out.out
    wall = _wall_lines(out.out)
    assert "  parent  median 1  quartiles [1, 1]" in wall
    assert "  change  median 0.5  quartiles [0.5, 0.5]" in wall
    assert "change vs parent: won 10/10 pairs, lost 0, median -50.0 %, parent IQR 0: gain" \
        in wall
    assert "null vs parent: won 0/10 pairs, lost 0, median +0.0 %, parent IQR 0: within bound" \
        in wall
    # each round rotates which side runs first
    assert "round 1/10: parent -> change -> null" in out.err
    assert "round 2/10: change -> null -> parent" in out.err


def test_bench_pairs_spread_and_failures(tmp_path, capsys):
    # the parent's IQR (1.0) is wider than the bound (0.25 x median 1.55)
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.6, 1.0, 2.0, 1.0, 2.0]
    _bench_pairs(tmp_path, {"parent": (parent, [0] * 10, [36] * 10),
                            "change": ([0.9] * 10, [0] * 10, [36] * 10),
                            "null": ([0.5] * 10, [0] * 9 + [1], [36] * 10)})
    out = capsys.readouterr()
    assert "largest failed share: parent 0, change 0, null 0.02778" in out.out
    wall = _wall_lines(out.out)
    # every change run beats every parent run, so the wide spread leaves it
    # within bound, not unresolved, though the median moved less than the IQR
    assert "change vs parent: won 10/10 pairs, lost 0, median -41.9 %, parent IQR 1: " \
        "within bound" in wall
    # a larger failed share than the parent in one round: no gain, however fast
    assert "null vs parent: won 10/10 pairs, lost 0, median -67.7 %, parent IQR 1: " \
        "within bound" in wall


def test_bench_pairs_unresolved(tmp_path, capsys):
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.6, 1.0, 2.0, 1.0, 2.0]
    change = [1.1, 1.9, 1.1, 1.9, 1.4, 1.5, 1.1, 1.9, 1.1, 1.9]
    _bench_pairs(tmp_path, {"parent": (parent, [0] * 10, [36] * 10),
                            "change": (change, [0] * 10, [36] * 10)})
    wall = _wall_lines(capsys.readouterr().out)
    assert "change vs parent: won 6/10 pairs, lost 4, median -6.5 %, parent IQR 1: " \
        "unresolved" in wall


def test_bench_pairs_gain_must_beat_the_null(tmp_path, capsys):
    # the null reads 1 % faster in every pair: on "small" a change 0.9 %
    # faster is no gain, though it wins every pair by more than the
    # parent's zero IQR; on "large" a change 5 % faster is
    ones = ([0] * 3, [36] * 3)
    _bench_pairs(tmp_path, {"parent": {w: ([1.0] * 3, *ones) for w in ("small", "large")},
                            "change": {"small": ([0.991] * 3, *ones),
                                       "large": ([0.95] * 3, *ones)},
                            "null": {w: ([0.99] * 3, *ones) for w in ("small", "large")}},
                 workload="small,large", rounds=3)
    small, large = capsys.readouterr().out.split("workload large, seed 29, 0 s runs, 3 rounds")
    for out, move, verdict in ((small, "-0.9", "within bound"), (large, "-5.0", "gain")):
        wall = _wall_lines(out)
        assert f"change vs parent: won 3/3 pairs, lost 0, median {move} %, parent IQR 0: " \
            f"{verdict}" in wall
        assert "null vs parent: won 3/3 pairs, lost 0, median -1.0 %, parent IQR 0: gain" in wall


def test_bench_pairs_several_workloads(tmp_path, capsys):
    # one set of rounds: the change gains on "fast" and regresses on "slow"
    ones = ([0] * 10, [36] * 10)
    _bench_pairs(tmp_path, {"parent": {"fast": ([1.0] * 10, *ones), "slow": ([1.0] * 10, *ones)},
                            "change": {"fast": ([0.5] * 10, *ones), "slow": ([1.5] * 10, *ones)}},
                 workload="fast,slow")
    out = capsys.readouterr()
    fast, slow = out.out.split("workload slow, seed 29, 0 s runs, 10 rounds")
    assert fast.startswith("workload fast, seed 29, 0 s runs, 10 rounds")
    assert "change vs parent: won 10/10 pairs, lost 0, median -50.0 %, parent IQR 0: gain" \
        in _wall_lines(fast)
    assert "change vs parent: won 0/10 pairs, lost 10, median +50.0 %, parent IQR 0: worse" \
        in _wall_lines(slow)
    # every workload runs on every side in each round, and each tree ran 10 times per workload
    assert out.err.count("round ") == 10
    assert "round 2/10: change -> parent" in out.err
    for side in ("parent", "change"):
        for workload in ("fast", "slow"):
            assert (tmp_path / side / "perfbench" / f"count-{workload}").read_text() == "10"


# recshrink.cli stand-in: prints what its tree's plan says for the command line
_STUB_CLI = '''import json, pathlib, sys
plan = json.loads((pathlib.Path(__file__).parent / "plan.json").read_text())
args = " ".join(sys.argv[1:])
out, err, code = plan.get(args, ["output of " + args + "\\n", "", 0])
sys.stdout.write(out)
sys.stderr.write(err)
sys.exit(code)
'''


def _same_output(tmp_path, plans):
    """Run same_output over stub trees, one per side; its exit status."""
    argv = []
    for name, plan in plans.items():
        package = tmp_path / name / "src" / "recshrink"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_STUB_CLI)
        (package / "plan.json").write_text(json.dumps(plan))
        argv += [f"--{name}", str(tmp_path / name)]
    return same_output.main(argv)


def test_same_output_identical_trees(tmp_path, capsys):
    failing = {"optimal-k --n1 5 --n2 6 --alpha 1e-30": ["", "error: no\n", 2]}
    assert _same_output(tmp_path, {"parent": failing, "change": failing}) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(same_output.COMMANDS) + 1 == 28
    assert lines[0] == "same (exit 0): recshrink tables 1 --format json --variant known"
    assert "same (exit 2): recshrink optimal-k --n1 5 --n2 6 --alpha 1e-30" in lines
    assert lines[-1] == "0 of 27 commands differ"


def test_same_output_names_each_difference(tmp_path, capsys):
    change = {
        "simulate --n1 2 --n2 2 --seed 1 --format json": ["{}\n", "", 0],
        "tables 2 --alpha 0.16 --variant locscale": [
            "output of tables 2 --alpha 0.16 --variant locscale\n", "cell (7, 2): note\n", 0],
        "optimal-k --n1 5 --n2 6 --alpha 1e-30": [
            "output of optimal-k --n1 5 --n2 6 --alpha 1e-30\n", "", 1],
        "tables 3 --grid 40,150 --format json --variant known": ["x\n", "y\n", 1],
    }
    assert _same_output(tmp_path, {"parent": {}, "change": change}) == 1
    out = capsys.readouterr().out
    assert "DIFFERS in stdout: recshrink simulate --n1 2 --n2 2 --seed 1 --format json\n" in out
    assert "DIFFERS in stderr: recshrink tables 2 --alpha 0.16 --variant locscale\n" in out
    assert "DIFFERS in exit code: recshrink optimal-k --n1 5 --n2 6 --alpha 1e-30\n" in out
    assert ("DIFFERS in stdout, stderr, exit code: "
            "recshrink tables 3 --grid 40,150 --format json --variant locscale\n") not in out
    assert ("DIFFERS in stdout, stderr, exit code: "
            "recshrink tables 3 --grid 40,150 --format json --variant known\n") in out
    assert out.count("same (exit 0)") == 23
    assert out.endswith("4 of 27 commands differ\n")


def _bench_tree(tmp_path):
    """A copy of what perfbench reads, so its reports land outside the repository."""
    repo = pathlib.Path(__file__).parents[1]
    tree = tmp_path / "tree"
    shutil.copytree(repo / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(repo / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(repo / "BENCHMARK.json", tree)
    return tree


def test_bench_record_copies_the_reports(tmp_path, capsys):
    tree = _bench_tree(tmp_path)
    argv = ["--tag", "t", "--tree", str(tree), "--workload", "tables-locscale",
            "--seconds", "0.1", "--no-tier1"]
    assert bench_record.main(argv) == 0
    record = json.loads((tree / "BENCH_t.json").read_text(encoding="utf-8"))
    assert record["tier1"] is None and record["seconds"] == 0.1
    runs = record["workloads"]["tables-locscale"]
    for trace in (0, 1):
        report = json.loads((tree / "perfbench" / "out" /
                             f"tables-locscale-seed1-trace{trace}.json").read_text())
        run = runs[f"trace{trace}"]
        assert run == {k: report[k] for k in run}
        assert run["correct"] and set(run) >= {"metrics", "attempted", "failed"}
    assert "wall_s" in runs["trace0"]["metrics"] and "sim.draws" in runs["trace1"]["metrics"]
    assert record["provenance"] == report["provenance"]


def test_bench_record_reads_the_tier1_summary():
    outcomes = bench_record.outcomes
    assert outcomes("1 failed, 738 passed, 3 xfailed in 35.82s") == dict(
        passed=738, failed=1, xfailed=3)
    assert outcomes("=== 12 passed, 1 xpassed in 0.5s ===") == dict(passed=12, failed=0, xfailed=0)


# 7 code lines: the import, the three lines of the call, the def, its
# return, and the class line; the rest is docstring, comment or blank
_FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# a comment line
TOTAL = sum(
    [1, 2, 3],
)


def f(x):
    """A function docstring."""

    return math.sqrt(x)


class C:
    """A class docstring."""
'''


def test_code_lines(tmp_path, capsys):
    assert code_lines.count_code_lines(_FIXTURE) == 7
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(_FIXTURE, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"      7  {module}", "      7  total"]
