"""Smoke run of scripts/run_simulation.py."""

import csv
import importlib.util
import pathlib

from recshrink.sim import CSV_COLUMNS


def _load(name):
    path = pathlib.Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_simulation(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    script = _load("run_simulation")
    assert script.main(["--reps", "2000", "--out", str(out)]) == 0
    rows = _rows(out)
    assert rows[0] == list(CSV_COLUMNS) + ["alpha", "k"]
    # one row per design and theta2 value
    assert len(rows) == 1 + len(script.DESIGNS) * len(script.THETA2_GRID) == 81
    assert {row[-2] for row in rows[1:]} == {"0.16"}
