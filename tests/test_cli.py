"""CLI behaviour: parsing, output formats, determinism, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from recshrink.cli import main, read_series_csv, risk_curve_rows, write_csv
from recshrink.records import DesignPair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["quantity", "value"]
    return {k: v for k, v in rows[1:]}


class TestReadSeriesCsv:
    def test_ragged_columns(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3,\n5\n")
        series = read_series_csv(str(p))
        assert series == {"a": [1.0, 3.0, 5.0], "b": [2.0]}

    def test_byte_order_mark_stripped(self, tmp_path, records_csv):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + records_csv.read_bytes())
        series = read_series_csv(str(p))
        assert list(series) == ["x", "y"]
        assert series == read_series_csv(str(records_csv))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_series_csv(str(p))

    @pytest.mark.parametrize("text, message", [
        ("a,\n1,2\n", "header row must name every column"),
        ("a,a\n1,2\n", "duplicate column names"),
        ("a,b\n1,2\n3,4,5\n", "row 3 has more cells than the header"),
        ("a,b\n1.0,2.0\n,3.0\n1.5,4.0\n2.0,\n",
         "row 4, column 'a': value after an empty or missing cell"),
    ], ids=["empty-name", "duplicate-names", "long-row", "value-after-blank"])
    def test_malformed_layout(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_series_csv(str(p))

    def test_bad_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"row 3.*'b'"):
            read_series_csv(str(p))


class TestEstimate:
    def test_worked_example_csv(self, capsys, records_csv):
        code, out, err = run_cli(
            capsys, "estimate", str(records_csv), "--variant", "locscale",
            "--alpha", "0.16", "--k", "0.24",
        )
        assert code == 0, err
        report = parse_kv_csv(out)
        assert float(report["theta1_hat"]) == pytest.approx(1.0705, abs=5.1e-5)
        assert float(report["theta2_hat"]) == pytest.approx(0.7262, abs=5.1e-5)
        assert report["accepted"] == "true"
        assert float(report["theta_pt"]) == pytest.approx(0.8984, abs=5.1e-5)
        assert float(report["theta_s"]) == pytest.approx(1.0292, abs=5.1e-5)

    def test_json_format(self, capsys, records_csv):
        code, out, _ = run_cli(
            capsys, "estimate", str(records_csv), "--variant", "locscale",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["accepted"] is True
        assert report["theta_pt_star"] == report["theta_pt"]  # both pooled on acceptance
        assert report["n1"] == 8 and report["n2"] == 8

    def test_identical_series_pool_to_mle(self, capsys, tmp_path):
        p = tmp_path / "same.csv"
        p.write_text("u,v\n1,1\n2,2\n4,4\n")
        code, out, _ = run_cli(capsys, "estimate", str(p))
        report = parse_kv_csv(out)
        assert report["accepted"] == "true"
        assert float(report["theta_pt"]) == float(report["theta1_hat"])

    def test_extract_records_from_raw_stream(self, capsys, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("s1,s2\n3,2\n1,4\n4,1\n1,8\n5,3\n9,16\n")
        code, out, _ = run_cli(capsys, "estimate", str(p), "--extract-records")
        assert code == 0
        report = parse_kv_csv(out)
        # records [3,4,5,9] and [2,4,8,16]
        assert float(report["theta1_hat"]) == pytest.approx(9.0 / 4.0)
        assert float(report["theta2_hat"]) == pytest.approx(16.0 / 4.0)

    def test_non_record_input_fails_with_context(self, capsys, tmp_path):
        p = tmp_path / "notrec.csv"
        p.write_text("a,b\n3,1\n2,2\n5,4\n")
        code, _, err = run_cli(capsys, "estimate", str(p))
        assert code == 2
        assert "strictly increasing" in err and "'a'" in err
        # the second column is checked the same way
        p.write_text("a,b\n1,3\n2,2\n5,4\n")
        code, _, err = run_cli(capsys, "estimate", str(p))
        assert code == 2
        assert "strictly increasing" in err and f"{p}: column 'b'" in err

    @pytest.mark.parametrize("extract", [False, True])
    def test_non_finite_records_rejected(self, capsys, tmp_path, extract):
        p = tmp_path / "nonfinite.csv"
        p.write_text("a,b\n1,1\nnan,2\n3,inf\n")
        argv = ["estimate", str(p), "--format", "json"] + ["--extract-records"] * extract
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert f"{p}: column 'a'" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "/no/such/file.csv")
        assert code == 2
        assert "error:" in err

    def test_wrong_series_count(self, capsys, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("only\n1\n2\n")
        code, _, err = run_cli(capsys, "estimate", str(p))
        assert code == 2
        assert "two series" in err
        p.write_text("a,b\n1,\n2,\n")
        code, _, err = run_cli(capsys, "estimate", str(p))
        assert code == 2
        assert "every series needs at least one value" in err


class TestRiskCurve:
    # the two reference curve sets of the (5, 6) design, as the README gives them
    GRID = ("--delta-min", "0.05", "--delta-max", "4", "--delta-steps", "300")
    LEVELS = ("0.05", "0.16", "0.30", "0.50")
    KS = ("0", "1", "0.21")

    def _curves(self, capsys, tmp_path, *flags):
        out = tmp_path / "curves.csv"
        code, _, err = run_cli(capsys, "risk-curve", "--n1", "5", "--n2", "6", *flags,
                               *self.GRID, "--out", str(out))
        assert code == 0, err
        return out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flags, pairs", [
        ([f for a in LEVELS for f in ("--alpha", a)], [(float(a), 1.0) for a in LEVELS]),
        (["--alpha", "0.16"] + [f for k in KS for f in ("--k", k)],
         [(0.16, float(k)) for k in KS]),
    ], ids=["levels", "coefficients"])
    def test_reference_curve_sets(self, capsys, tmp_path, flags, pairs):
        text = self._curves(capsys, tmp_path, *flags)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["delta", "risk", "family", "alpha", "k"]
        # 300 deltas per curve: one per (alpha, k) pair, plus pooled and mle
        assert len(rows) == 1 + 300 * (len(pairs) + 2)
        buf = io.StringIO()
        write_csv(risk_curve_rows(DesignPair(5, 6), np.geomspace(0.05, 4.0, 300), pairs), buf)
        assert text == buf.getvalue()

    def test_each_level_equals_its_single_alpha_run(self, capsys, tmp_path):
        flags = [f for a in self.LEVELS for f in ("--alpha", a)]
        rows = list(csv.reader(io.StringIO(self._curves(capsys, tmp_path, *flags))))
        for a in self.LEVELS:
            single = list(csv.reader(io.StringIO(self._curves(capsys, tmp_path, "--alpha", a))))
            assert [r for r in rows if r[2] != "pt" or float(r[3]) == float(a)] == single

    def test_schema_and_reference_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16",
            "--k", "0", "--k", "1", "--k", "0.21",
            "--delta-min", "0.2", "--delta-max", "3", "--delta-steps", "40",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["delta", "risk", "family", "alpha", "k"]
        body = rows[1:]
        families = {r[2] for r in body}
        assert families == {"pt", "shrink", "pooled", "mle"}
        assert len(body) == 40 * 5  # three k curves plus two reference curves
        mle_risks = {float(r[1]) for r in body if r[2] == "mle"}
        assert mle_risks == {0.2}
        # k=0 coincides with the MLE reference level
        k0 = [float(r[1]) for r in body if r[2] == "shrink" and r[4] == "0"]
        assert all(abs(v - 0.2) < 1e-9 for v in k0)

    def test_json_records_match_csv_rows(self, capsys):
        argv = ["risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16",
                "--k", "0", "--k", "1", "--delta-steps", "7"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == len(rows) - 1 == 7 * 4

        def cell(v):
            return "" if v is None else v if isinstance(v, str) else f"{v:.6g}"

        for rec, row in zip(records, rows[1:]):
            assert set(rec) == {"delta", "risk", "family", "alpha", "k"}
            if rec["family"] in ("pooled", "mle"):
                assert rec["alpha"] is None and rec["k"] is None
            assert [cell(rec[col]) for col in rows[0]] == row

    def test_alpha_one_curve_is_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-curve", "--n1", "5", "--n2", "6", "--alpha", "1",
            "--delta-steps", "25",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        pt = [float(r[1]) for r in rows[1:] if r[2] == "pt"]
        assert all(abs(v - 0.2) < 1e-9 for v in pt)

    def test_pre_test_curve_dips_below_mle_risk_near_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16",
            "--delta-min", "0.9", "--delta-max", "1.1", "--delta-steps", "5",
        )
        rows = list(csv.reader(io.StringIO(out)))
        pt = [float(r[1]) for r in rows[1:] if r[2] == "pt"]
        assert min(pt) < 0.2

    def test_infinite_delta_max_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16",
            "--delta-max", "inf",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "risk-curve", "--n1", "5", "--n2", "6", "--alpha", "0.16",
            "--delta-steps", "0",
        )
        assert code == 2


class TestOptimizers:
    def test_optimal_alpha_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal-alpha", "--n1", "2", "--n2", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["alpha_star"] == pytest.approx(0.38, abs=0.015)
        assert report["fallback"] is False

    def test_optimal_k_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimal-k", "--n1", "5", "--n2", "5", "--alpha", "0.16",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["k_star"] == pytest.approx(0.22, abs=0.015)


class TestTables:
    def test_single_cell_grid(self, capsys, tmp_path):
        out_path = tmp_path / "t1.csv"
        code, _, _ = run_cli(
            capsys, "tables", "1", "--grid", "2", "--out", str(out_path)
        )
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0][:4] == ["n1", "n2", "alpha_star", "k_star"]
        assert len(rows) == 2
        assert float(rows[1][2]) == pytest.approx(0.38, abs=0.015)
        assert rows[1][3] == ""

    @pytest.mark.parametrize("grid", ["", "2,,3"], ids=["empty-value", "empty-entry"])
    def test_empty_grid_rejected(self, capsys, grid):
        # an empty value is not the default grid
        code, out, err = run_cli(capsys, "tables", "1", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == f"error: --grid needs comma-separated integers, got {grid!r}\n"

    def test_table2_cell(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "2", "--grid", "5", "--format", "json")
        assert code == 0
        cells = json.loads(out)
        assert cells[0]["alpha_star"] == 0.16
        assert cells[0]["k_star"] == pytest.approx(0.22, abs=0.015)
        assert cells[0]["error"] is None

    @pytest.mark.parametrize("which", ["1", "3"])
    def test_alpha_outside_table2_rejected(self, capsys, which):
        # tables 1 and 3 tune alpha*, so a fixed level would be ignored
        code, out, err = run_cli(capsys, "tables", which, "--grid", "2", "--alpha", "0.05")
        assert code == 2
        assert out == ""
        assert err == (f"error: --alpha is table 2's fixed level; "
                       f"table {which} tunes its own alpha*\n")

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1.0"])
    def test_table2_level_checked_once(self, capsys, alpha):
        # the rule optimal-k applies, once before the cells: one error line, no table
        code, out, err = run_cli(capsys, "tables", "2", "--alpha", alpha, "--grid", "2,3")
        assert code == 2
        assert out == ""
        assert err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"
        assert run_cli(capsys, "optimal-k", "--n1", "2", "--n2", "2", "--alpha", alpha) == (
            2, "", err)

    def test_failed_cell_sets_exit_status(self, capsys):
        # at this level some designs lose the pooling advantage at delta = 1
        code, _, err = run_cli(capsys, "tables", "2", "--alpha", "0.995")
        assert code == 1
        assert "cell (5, 10) failed: no pooling advantage" in err

    def test_no_equalizer_cells_named_on_stderr(self, capsys):
        argv = ["tables", "2", "--variant", "locscale", "--grid", "7,2"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ("cell (7, 2): K* at alpha=0.16 has no equalizer; "
                       "regret_level is the larger regret maximum\n")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n1", "n2", "alpha_star", "k_star", "regret_level",
                           "delta_L", "delta_U"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        cells = json.loads(out)
        assert [(c["n1"], c["n2"]) for c in cells] == [(7, 7), (2, 7), (7, 2), (2, 2)]
        assert all(set(c) == {*rows[0], "error"} for c in cells)

    def test_fallback_names_the_solve(self, capsys):
        # alpha* equalizes at location-scale (5, 2); only K*(alpha*) falls back
        code, _, err = run_cli(capsys, "tables", "3", "--variant", "locscale", "--grid", "5,2")
        assert code == 0
        assert err == ("cell (5, 2): K*(alpha*) has no equalizer; "
                       "regret_level is the larger regret maximum\n")

    def test_location_scale_table2_solves_every_cell(self, capsys, frozen_table):
        code, out, err = run_cli(capsys, "tables", "2", "--variant", "locscale",
                                 "--format", "json")
        assert code == 0, err
        cells = json.loads(out)
        assert len(cells) == 36
        assert all(c["error"] is None for c in cells)
        frozen_table("tables 2 --alpha 0.16 --variant locscale", cells)


class TestSimulate:
    ARGS = (
        "simulate", "--n1", "2", "--n2", "2", "--alpha", "0.16", "--k", "0.17",
        "--theta2-grid", "0.5,1.0", "--reps", "5000", "--seed", "99",
    )

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n1", "n2", "theta2", "bias_mle", "bias_pt", "bias_s",
                           "eff_pt", "eff_s"]
        assert len(rows) == 3

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *self.ARGS, "--out", str(a))
        run_cli(capsys, *self.ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("grid", ["", "1,,2", "1,a"],
                             ids=["empty-value", "empty-entry", "not-a-number"])
    def test_bad_theta2_grid_names_the_option(self, capsys, grid):
        code, out, err = run_cli(capsys, *self.ARGS, "--theta2-grid", grid)
        assert code == 2
        assert out == ""
        assert err == f"error: --theta2-grid needs comma-separated numbers, got {grid!r}\n"

    @pytest.mark.parametrize("flags", [("--theta2-grid", "1,nan"), ("--theta1", "inf")])
    def test_non_finite_scales_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, *self.ARGS, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("flags, named", [
        (("--theta1", "1e308"), "theta1=1e+308"),
        (("--theta1", "1e200"), "theta1=1e+200"),
        (("--theta2-grid", "1e308"), "theta2=1e+308"),
    ])
    def test_overflowing_scales_exit_2(self, capsys, flags, named):
        code, out, err = run_cli(capsys, *self.ARGS, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err and err.count("\n") == 1

    @pytest.mark.parametrize("reps", ["1", "0"])
    def test_fewer_than_two_replicates_rejected(self, capsys, reps):
        # no standard error from one replicate, so no NaN in the JSON either
        code, out, err = run_cli(capsys, *self.ARGS, "--reps", reps, "--format", "json")
        assert code == 2
        assert out == ""
        assert err == ("error: need at least two replicates for a standard error, "
                       f"got {reps}\n")

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        payload = json.loads(out)
        assert payload["replicates"] == 5000
        assert len(payload["rows"]) == 2


class TestValidate:
    def test_selects_derived_convention(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--reps", "20000", "--seed", "5")
        assert code == 0
        assert "convention selected: derived" in out
        assert "surviving conventions" in out
        assert "derived" in out.splitlines()[-2]
