"""The benchmark's contract with the package, checked without running the benchmark.

perfbench traces each layer by patching the attribute its caller looks up,
and expects every workload to reach some layers and never others.  It also
runs `recshrink` on a few of each workload's cells and requires the CLI's
JSON to equal the cells it computed itself.  A change that moves a traced
call off its workload, or that changes the `tables --format json` record,
fails here instead of only in a benchmark run.  Nothing in perfbench is
changed: its modules are imported and driven as they are.
"""

import json
import pathlib
import sys

import pytest

# perfbench's modules import each other by bare name
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from recshrink import cli, estimators, sim  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layers_fire_as_declared(name):
    workload = workloads.WORKLOADS[name]
    spec = workloads.specs(workload, SEED)[0]
    estimators.critical_values.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.run_cell(spec)
        if workload.kind == "oracle":
            sim.convention_validation(replicates=2000, seed=SEED)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(estimators.critical_values.cache_info())
    assert run.trace_problems(workload, metrics) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_cli_reproduces_the_cells(name, capsys):
    workload = workloads.WORKLOADS[name]
    covered = set(workload.cli_designs)
    specs = [s for s in workloads.specs(workload, SEED)
             if s.design.variant is workload.cli_variant
             and (s.design.n1, s.design.n2) in covered]
    outputs = [workloads.run_cell(s) for s in specs]
    cli.main(workloads.cli_argv(workload, specs))
    cli_json = json.loads(capsys.readouterr().out)
    assert workloads.cli_cross_check(workload, specs, outputs, cli_json) == []
