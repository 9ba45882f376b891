"""scripts/reproduce_tables.py: one ``recshrink tables`` run per table."""

import importlib.util
import pathlib

from recshrink import cli

_PATH = pathlib.Path(__file__).parents[1] / "scripts" / "reproduce_tables.py"
_spec = importlib.util.spec_from_file_location("reproduce_tables", _PATH)
reproduce_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce_tables)


def test_table_file_equals_cli_csv(tmp_path, capsys):
    code = reproduce_tables.main(["--table", "2", "--outdir", str(tmp_path / "out")])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["table2_k_star_alpha016.csv"]
    assert cli.main(["tables", "2", "--out", str(tmp_path / "cli.csv")]) == 0
    written = (tmp_path / "out" / "table2_k_star_alpha016.csv").read_bytes()
    assert written == (tmp_path / "cli.csv").read_bytes()
    assert written.count(b"\n") == 37


def test_failed_cell_sets_exit_status(tmp_path, capsys):
    # at this level some designs lose the pooling advantage at delta = 1
    code = reproduce_tables.main(["--table", "2", "--alpha", "0.995", "--outdir", str(tmp_path)])
    assert code == 1
    assert "cell (5, 10) failed: no pooling advantage" in capsys.readouterr().err
