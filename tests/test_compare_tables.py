"""scripts/compare_tables.py: the per-cell gate between two table outputs."""

import json

import pytest

import compare_tables


def _cell(n1, n2, alpha=0.3, k=0.2, regret=0.05, error=None):
    if error:
        return {"n1": n1, "n2": n2, "alpha_star": None, "k_star": None,
                "regret_level": None, "delta_L": None, "delta_U": None, "error": error}
    return {"n1": n1, "n2": n2, "alpha_star": alpha, "k_star": k, "regret_level": regret,
            "delta_L": 0.8, "delta_U": 3.0, "error": None}


def _run(tmp_path, capsys, a, b, *extra):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = compare_tables.main([str(pa), str(pb), *extra])
    return code, capsys.readouterr().out


def test_identical_tables_pass(tmp_path, capsys):
    cells = [_cell(2, 2), _cell(3, 2, error="boom")]
    code, out = _run(tmp_path, capsys, cells, cells)
    assert code == 0
    assert "max |diff| alpha_star (abs): 0" in out
    assert "0 cell(s) differ" in out


def test_moved_value_and_error_status_are_listed(tmp_path, capsys):
    a = [_cell(2, 2), _cell(3, 2), _cell(4, 2)]
    b = [_cell(2, 2, k=0.2 + 5e-7), _cell(3, 2, alpha=0.3 + 2e-6), _cell(4, 2, error="boom")]
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 1
    assert "(3, 2): alpha_star" in out
    assert "(4, 2): error None vs 'boom'" in out
    assert "(2, 2)" not in out
    assert "2 cell(s) differ beyond 1e-06" in out
    assert _run(tmp_path, capsys, a[:2], b[:2], "--tol", "1e-5")[0] == 0


def test_regret_compared_relative(tmp_path, capsys):
    worst, problems = compare_tables.compare([_cell(2, 2, regret=1e-3)],
                                             [_cell(2, 2, regret=1e-3 * (1 + 2e-6))], 1e-6)
    assert worst["regret_level"] == pytest.approx(2e-6, rel=1e-5)
    assert len(problems) == 1


@pytest.mark.parametrize("content", [None, "{not json", '{"n1": 2}', '[{"n1": 2, "n2": 2}]'],
                         ids=["missing", "malformed", "not-a-list", "not-a-cell"])
def test_broken_input_exits_2(tmp_path, capsys, content):
    # 1 means the tables differ, so a file that cannot be compared is 2
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps([_cell(2, 2)]))
    if content is not None:
        bad.write_text(content)
    for argv in ([str(good), str(bad)], [str(bad), str(good)]):
        assert compare_tables.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "bad.json" in err and err.count("\n") == 1
