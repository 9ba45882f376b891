"""Command-line front end.

Subcommands: estimate, risk-curve, tables, optimal-alpha, optimal-k,
simulate, validate.  CSV output prints numbers with 6 significant digits;
JSON output keeps full precision.  Every subcommand is deterministic given
its flags and seed.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from .estimators import EstimationInput, Target, pooled, preliminary_test, shrinkage
from .minimax import TABLE_GRID, SearchError, TableCase, generate_tables, optimal_alpha, optimal_k
from .records import DesignPair, RecordSample, Variant, extract_upper_records, mle_scale
from .risk import boundary_risks, shrink_risk_grid
from .sim import CSV_COLUMNS, SimConfig, convention_validation, mc_compare

_TABLE_COLUMNS = ("n1", "n2", "alpha_star", "k_star", "regret_level", "delta_L", "delta_U")
_CURVE_COLUMNS = ("delta", "risk", "family", "alpha", "k")


def _fmt(value) -> str:
    """6-significant-digit rendering for CSV; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(rows, out) -> None:
    """Write rows to a text stream as CSV, numbers at 6 significant digits."""
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args, csv_rows, json_obj) -> None:
    if args.format == "json":
        _emit(args, json.dumps(json_obj, indent=2, sort_keys=True) + "\n")
    else:
        buf = io.StringIO()
        write_csv(csv_rows, buf)
        _emit(args, buf.getvalue())


def read_series_csv(path: str) -> dict[str, list[float]]:
    """Read a header-row CSV, one numeric series per column.

    Columns may have unequal lengths; trailing empty cells are allowed.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        if len(names) < 1 or any(not n for n in names):
            raise ValueError(f"{path}: header row must name every column")
        series: dict[str, list[float]] = {name: [] for name in names}
        if len(series) != len(names):
            raise ValueError(f"{path}: duplicate column names in header")
        for rownum, row in enumerate(reader, start=2):
            for col, cell in enumerate(row):
                cell = cell.strip()
                if not cell:
                    continue
                if col >= len(names):
                    raise ValueError(f"{path}: row {rownum} has more cells than the header")
                try:
                    series[names[col]].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {rownum}, column {names[col]!r}: "
                        f"not a number: {cell!r}"
                    ) from None
    return series


def _two_series(path: str) -> tuple[str, list[float], str, list[float]]:
    series = read_series_csv(path)
    if len(series) != 2:
        raise ValueError(f"{path}: need exactly two series, found {len(series)}")
    (n1, v1), (n2, v2) = series.items()
    if not v1 or not v2:
        raise ValueError(f"{path}: every series needs at least one value")
    return n1, v1, n2, v2


def cmd_estimate(args) -> int:
    variant = Variant(args.variant)
    name1, vals1, name2, vals2 = _two_series(args.input)
    if args.extract_records:
        s1 = extract_upper_records(vals1, variant)
        s2 = extract_upper_records(vals2, variant)
    else:
        try:
            s1 = RecordSample(tuple(vals1), variant)
        except ValueError as exc:
            raise ValueError(f"{args.input}: column {name1!r}: {exc}") from None
        try:
            s2 = RecordSample(tuple(vals2), variant)
        except ValueError as exc:
            raise ValueError(f"{args.input}: column {name2!r}: {exc}") from None
    design = DesignPair(s1.n, s2.n, variant)
    inp = EstimationInput(mle_scale(s1), mle_scale(s2), design)
    pt1, decision = preliminary_test(inp, args.alpha, Target.THETA1)
    pt2, _ = preliminary_test(inp, args.alpha, Target.THETA2)
    report = {
        "series": [name1, name2],
        "n1": design.n1,
        "n2": design.n2,
        "variant": variant.value,
        "alpha": args.alpha,
        "theta1_hat": inp.theta1_hat,
        "theta2_hat": inp.theta2_hat,
        "pooled": pooled(inp),
        "c1": decision.c1,
        "c2": decision.c2,
        "ratio": decision.ratio,
        "accepted": decision.accepted,
        "theta_pt": pt1,
        "theta_pt_star": pt2,
    }
    if args.k is not None:
        report["k"] = args.k
        report["theta_s"] = shrinkage(inp, args.alpha, args.k, Target.THETA1)[0]
    csv_rows = [["quantity", "value"]] + [[k, v] for k, v in report.items() if k != "series"]
    _render(args, csv_rows, report)
    return 0


def risk_curve_rows(design: DesignPair, deltas, alpha_k_pairs) -> list[list]:
    """Header and rows (delta, risk, family, alpha, k) of a risk-curve set.

    One curve per (alpha, k) pair, family "pt" at k = 1 and "shrink"
    otherwise, then the always-pool ("pooled") and single-sample MLE
    ("mle") reference curves, whose alpha and k cells are empty.
    """
    rows = [list(_CURVE_COLUMNS)]
    for alpha, k in alpha_k_pairs:
        family = "pt" if k == 1.0 else "shrink"
        for d, r in zip(deltas, shrink_risk_grid(design, deltas, alpha, k)):
            rows.append([float(d), float(r), family, alpha, k])
    refs = [(float(d), boundary_risks(design, float(d))) for d in deltas]
    rows += [[d, r0, "pooled", None, None] for d, (r0, _) in refs]
    rows += [[d, r1, "mle", None, None] for d, (_, r1) in refs]
    return rows


def cmd_risk_curve(args) -> int:
    design = DesignPair(args.n1, args.n2, Variant(args.variant))
    if args.delta_steps < 1:
        raise ValueError("need at least one delta grid point")
    if not (0.0 < args.delta_min <= args.delta_max < math.inf):
        raise ValueError("need 0 < delta-min <= delta-max < inf")
    deltas = np.geomspace(args.delta_min, args.delta_max, args.delta_steps)
    ks = args.k or [1.0]
    rows = risk_curve_rows(design, deltas, [(args.alpha, k) for k in ks])
    _render(args, rows, [dict(zip(rows[0], row)) for row in rows[1:]])
    return 0


def cmd_tables(args) -> int:
    variant = Variant(args.variant)
    case = {1: TableCase.ALPHA, 2: TableCase.K_FIXED_ALPHA, 3: TableCase.K_OPTIMAL_ALPHA}[
        args.which
    ]
    grid = [int(t) for t in args.grid.split(",")] if args.grid else TABLE_GRID
    designs = [DesignPair(a, b, variant) for b in grid for a in grid]
    cells = generate_tables(case, designs, alpha=args.alpha)
    failed = [c for c in cells if c.error]
    for cell in failed:
        print(f"cell ({cell.n1}, {cell.n2}) failed: {cell.error}", file=sys.stderr)
    rows = [list(_TABLE_COLUMNS)]
    for c in cells:
        rows.append([c.n1, c.n2, c.alpha_star, c.k_star, c.regret_level, c.delta_L, c.delta_U])
    json_obj = [
        {col: getattr(c, col) for col in _TABLE_COLUMNS} | {"error": c.error}
        for c in cells
    ]
    _render(args, rows, json_obj)
    return 1 if failed else 0


def _render_solution(args, design, sol, extra) -> int:
    """Render a tuning's design, every RegretSolution field, then ``extra``."""
    report = {"n1": design.n1, "n2": design.n2, "variant": design.variant.value}
    report |= dataclasses.asdict(sol) | extra
    csv_rows = [["quantity", "value"]] + [[k, v] for k, v in report.items()]
    _render(args, csv_rows, report)
    return 0


def cmd_optimal_alpha(args) -> int:
    design = DesignPair(args.n1, args.n2, Variant(args.variant))
    sol = optimal_alpha(design)
    return _render_solution(args, design, sol, {"alpha_star": sol.tuned_value})


def cmd_optimal_k(args) -> int:
    design = DesignPair(args.n1, args.n2, Variant(args.variant))
    sol = optimal_k(design, args.alpha)
    return _render_solution(args, design, sol, {"alpha": args.alpha, "k_star": sol.tuned_value})


def cmd_simulate(args) -> int:
    design = DesignPair(args.n1, args.n2, Variant(args.variant))
    grid = tuple(float(t) for t in args.theta2_grid.split(","))
    config = SimConfig(
        design=design,
        theta2_grid=grid,
        seed=args.seed,
        theta1=args.theta1,
        alpha=args.alpha,
        k=args.k,
        replicates=args.reps,
    )
    report = mc_compare(config)
    _render(args, report.to_csv_rows(), report.to_json_dict())
    return 0


def cmd_validate(args) -> int:
    result = convention_validation(replicates=args.reps, seed=args.seed)
    lines = []
    for c in result["cells"]:
        flag = "ok" if c.ok else "DISAGREES"
        lines.append(
            f"({c.n1},{c.n2}) delta={c.delta:g} alpha={c.alpha:g} k={c.k:g} "
            f"convention={c.convention}: closed={c.closed_form:.6g} "
            f"mc={c.mc_estimate:.6g} se={c.mc_se:.3g} z={c.z:+.2f} {flag}"
        )
    surviving = result["surviving_conventions"]
    lines.append(f"surviving conventions (|z| <= {result['z_limit']:g} everywhere): "
                 f"{', '.join(surviving) if surviving else 'none'}")
    lines.append(f"convention selected: {result['default_convention']}"
                 + ("" if result["default_ok"] else " (FAILED validation)"))
    text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 0 if result["default_ok"] else 1


def _add_common_output(p) -> None:
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_design(p, variant_default="known") -> None:
    p.add_argument("--n1", type=int, required=True, help="records in the first series")
    p.add_argument("--n2", type=int, required=True, help="records in the second series")
    p.add_argument("--variant", choices=("known", "locscale"), default=variant_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recshrink",
        description="Pre-test and shrinkage estimation of exponential scales "
        "from upper record values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate scales from a two-series record CSV")
    p.add_argument("input", help="CSV with a header row and one column per series")
    p.add_argument("--variant", choices=("known", "locscale"), default="known")
    p.add_argument("--alpha", type=float, default=0.16, help="pre-test level")
    p.add_argument("--k", type=float, default=None, help="shrinkage coefficient")
    p.add_argument("--extract-records", action="store_true",
                   help="treat the columns as raw streams and extract their records")
    _add_common_output(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("risk-curve", help="risk curves over a delta grid")
    _add_design(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float, action="append", default=None,
                   help="shrinkage coefficient (repeatable); omit for the pre-test curve")
    p.add_argument("--delta-min", type=float, default=0.05)
    p.add_argument("--delta-max", type=float, default=4.0)
    p.add_argument("--delta-steps", type=int, default=200)
    _add_common_output(p)
    p.set_defaults(func=cmd_risk_curve)

    p = sub.add_parser("tables", help="reproduce a tuning reference table")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, default=0.16,
                   help="fixed level for table 2")
    p.add_argument("--grid", default=None,
                   help="comma list of record counts (default 2,3,4,5,7,10)")
    p.add_argument("--variant", choices=("known", "locscale"), default="known")
    _add_common_output(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("optimal-alpha", help="minimax-regret pre-test level")
    _add_design(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_optimal_alpha)

    p = sub.add_parser("optimal-k", help="minimax-regret shrinkage coefficient")
    _add_design(p)
    p.add_argument("--alpha", type=float, required=True)
    _add_common_output(p)
    p.set_defaults(func=cmd_optimal_k)

    p = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    _add_design(p)
    p.add_argument("--alpha", type=float, default=0.16)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--theta1", type=float, default=1.0)
    p.add_argument("--theta2-grid", default="0.1,0.3,0.5,0.8,1.0,1.2,1.5,2.0,2.5,3.0")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20260811)
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="closed form vs Monte Carlo, both conventions")
    p.add_argument("--reps", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20260811)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SearchError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
