"""The benchmark's workloads: their cells, their output checks and their CLI twins.

A cell is one design's tuning on the table workloads (one
``generate_tables`` call with one design) and one design's Monte Carlo
comparison on ``oracle``.  Cells only call the package's public functions,
always through the module attribute, so the tracer's wrappers see them.
"""

from dataclasses import dataclass

import numpy as np

from recshrink import minimax, risk, sim
from recshrink.minimax import TableCase
from recshrink.records import DesignPair, Variant

from reference import GRID, TABLE1_ALPHA, TABLE2_K, TABLE3_K, TABLE_TOL

# the CLI's default simulate grid and replicate count (the CLI cross-check
# runs `recshrink simulate` with its defaults, so a drift shows there)
THETA2_GRID = (0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0)
REPLICATES = 100_000
ORACLE_ALPHA = 0.16
# |z| limit per MC row, fixed before looking at any run
Z_LIMIT = 4.0
# a row over the limit is drawn once more from an independent stream with
# this many times the replicates; a real error survives the second draw
CONFIRM_FACTOR = 4

# the regret at delta_L and delta_U must agree as closely as the solver's
# own acceptance test demands
EQUALIZE_TOL = 1e-4
# dense log scan from edge/SCAN_SPAN to edge*SCAN_SPAN; no point may exceed
# the reported sup by more than float noise
SCAN_POINTS = 2000
SCAN_SPAN = 1e4
SCAN_TOL = 1e-9


@dataclass(frozen=True)
class TableSpec:
    design: DesignPair
    case: TableCase
    alpha: float = 0.16


@dataclass(frozen=True)
class OracleSpec:
    design: DesignPair
    k: float
    seed: int


def _grid(variant, sizes):
    return [DesignPair(n1, n2, variant) for n2 in sizes for n1 in sizes]


def run_table_cell(spec: TableSpec):
    return minimax.generate_tables(spec.case, [spec.design], alpha=spec.alpha)[0]


def _sim_config(spec: OracleSpec, theta2_grid=THETA2_GRID, replicates=REPLICATES, seed=None):
    return sim.SimConfig(
        design=spec.design, theta2_grid=theta2_grid,
        seed=spec.seed if seed is None else seed,
        alpha=ORACLE_ALPHA, k=spec.k, replicates=replicates,
    )


def _exact_moments(spec: OracleSpec, theta2):
    return risk.shrink_moments(risk.RiskParams(spec.design, theta2, ORACLE_ALPHA, spec.k))


def run_oracle_cell(spec: OracleSpec):
    report = sim.mc_compare(_sim_config(spec))
    exact = [_exact_moments(spec, t) for t in THETA2_GRID]
    return report, exact


# --- checks (run after the timed region) ---------------------------------

def _shrink_regret_scan(design, alpha, k, edge):
    """Shrinkage regret on a dense log grid, from the public coefficient kernel."""
    deltas = np.geomspace(edge / SCAN_SPAN, edge * SCAN_SPAN, SCAN_POINTS)
    h2, h1, h0 = risk.risk_k_coefficients_grid(design, deltas, alpha)
    h0 = np.full_like(deltas, h0)
    best = np.minimum(h0, h2 + h1 + h0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex_k = -h1 / (2.0 * h2)
        vertex = h0 - h1 * h1 / (4.0 * h2)
    inside = (h2 > 0.0) & (vertex_k > 0.0) & (vertex_k < 1.0)
    best = np.where(inside, np.minimum(best, vertex), best)
    return deltas, np.maximum(0.0, h2 * k * k + h1 * k + h0 - best)


def check_table_cell(spec: TableSpec, cell) -> list[str]:
    """Reasons the cell's output is wrong; empty when it passes."""
    d = spec.design
    alpha = cell.alpha_star
    k = cell.k_star
    reasons = []
    published = (spec.case is TableCase.K_OPTIMAL_ALPHA and d.variant is Variant.KNOWN_LOCATION
                 and d.n1 in GRID and d.n2 in GRID)
    if published:
        for what, got, want in (("alpha*", alpha, TABLE1_ALPHA[d.n2][d.n1]),
                                ("K*", k, TABLE3_K[d.n2][d.n1])):
            if not abs(got - want) <= TABLE_TOL:
                reasons.append(f"{what}={got:.4f} differs from published {want} by more "
                               f"than {TABLE_TOL}")
    r_lo = minimax.regret_shrink(d, cell.delta_L, alpha, k)
    r_hi = minimax.regret_shrink(d, cell.delta_U, alpha, k)
    if not abs(r_lo - r_hi) <= EQUALIZE_TOL:
        reasons.append(f"regret at delta_L={cell.delta_L:.6g} is {r_lo:.6g} but at "
                       f"delta_U={cell.delta_U:.6g} is {r_hi:.6g}")
    edge = minimax.pt_risk_crossings(d, alpha)[1]
    deltas, regret = _shrink_regret_scan(d, alpha, k, edge)
    i = int(np.argmax(regret))
    sup = max(r_lo, r_hi)
    if not regret[i] <= sup + SCAN_TOL:
        reasons.append(f"dense scan finds regret {regret[i]:.6g} at delta={deltas[i]:.6g}, "
                       f"above the reported sup {sup:.6g}")
    return reasons


def _row_z(row, exact):
    bias, mse = exact
    return ((row.bias_s - bias) / row.se_bias_s, (row.mse_s - mse) / row.se_mse_s)


def check_oracle_cell(spec: OracleSpec, output, stats) -> list[str]:
    """Every MC row within Z_LIMIT of the exact bias and MSE, with confirmation."""
    report, exact = output
    reasons = []
    for i, (row, ex) in enumerate(zip(report.rows, exact)):
        z = _row_z(row, ex)
        stats["comparisons"] += len(z)
        if max(abs(v) for v in z) <= Z_LIMIT:
            continue
        stats["flagged"] += 1
        confirm_seed = int(np.random.SeedSequence((spec.seed, i)).generate_state(1)[0])
        again = sim.mc_compare(_sim_config(spec, (row.theta2,),
                                           REPLICATES * CONFIRM_FACTOR, confirm_seed))
        z2 = _row_z(again.rows[0], ex)
        if max(abs(v) for v in z2) > Z_LIMIT:
            reasons.append(f"theta2={row.theta2:g}: z(bias, mse)=({z[0]:+.2f}, {z[1]:+.2f}), "
                           f"confirmed at ({z2[0]:+.2f}, {z2[1]:+.2f})")
    return reasons


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "table" or "oracle"
    cli_args: tuple           # `recshrink` argv whose output must equal the cells
    cli_variant: Variant
    cli_designs: tuple        # (n1, n2) of the cells the CLI output covers
    expect_fire: frozenset    # traced layers that must record at least one span
    expect_silent: frozenset  # traced layers that must record none


_SOLVER_LAYERS = frozenset({
    "special.reg_inc_beta", "special.reg_inc_beta_grid", "special.f_quantile",
    "risk.risk_k_coefficients", "risk.risk_k_coefficients_grid", "risk.pt_risk",
    "optim.golden_section_max", "optim.brent_root",
    "minimax.optimal_k", "minimax.sup_regret_shrink", "minimax.pt_risk_crossings",
})
_ALPHA_LAYERS = frozenset({"minimax.optimal_alpha", "minimax.sup_regret_pt"})
_SIM_LAYERS = frozenset({"sim.mc_compare", "sim.mc_oracle_risk", "risk.shrink_moments"})
_ALL_LAYERS = _SOLVER_LAYERS | _ALPHA_LAYERS | _SIM_LAYERS

# why each workload is in the benchmark is stated in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tables-known",
            "table", ("tables", "3", "--grid", "2,3"), Variant.KNOWN_LOCATION,
            ((2, 2), (3, 2), (2, 3), (3, 3)),
            _SOLVER_LAYERS | _ALPHA_LAYERS, _SIM_LAYERS,
        ),
        Workload(
            "tables-locscale",
            "table",
            ("tables", "2", "--alpha", "0.16", "--variant", "locscale", "--grid", "2,3"),
            Variant.LOCATION_SCALE, ((2, 2), (3, 2), (2, 3), (3, 3)),
            _SOLVER_LAYERS, _SIM_LAYERS | _ALPHA_LAYERS,
        ),
        Workload(
            "large-designs",
            "table", ("tables", "3", "--grid", "40,150"), Variant.KNOWN_LOCATION,
            ((40, 40), (150, 40), (40, 150), (150, 150)),
            _SOLVER_LAYERS | _ALPHA_LAYERS, _SIM_LAYERS,
        ),
        Workload(
            "oracle",
            "oracle", ("simulate",),
            Variant.KNOWN_LOCATION, ((2, 2),),
            _SIM_LAYERS | {"special.reg_inc_beta", "special.f_quantile"},
            _ALL_LAYERS - _SIM_LAYERS - {"special.reg_inc_beta", "special.f_quantile"},
        ),
    )
}


def specs(workload: Workload, seed: int) -> list:
    """The workload's cells; only oracle's Monte Carlo streams depend on the seed."""
    if workload.name == "tables-known":
        return [TableSpec(d, TableCase.K_OPTIMAL_ALPHA) for d in _grid(Variant.KNOWN_LOCATION, GRID)]
    if workload.name == "tables-locscale":
        return [TableSpec(d, TableCase.K_FIXED_ALPHA, 0.16)
                for d in _grid(Variant.LOCATION_SCALE, GRID)]
    if workload.name == "large-designs":
        return [TableSpec(d, TableCase.K_OPTIMAL_ALPHA)
                for v in (Variant.KNOWN_LOCATION, Variant.LOCATION_SCALE)
                for d in _grid(v, (40, 150))]
    return [
        OracleSpec(d, TABLE2_K[d.n2][d.n1],
                   int(np.random.SeedSequence((seed, d.n1, d.n2)).generate_state(1)[0]))
        for d in _grid(Variant.KNOWN_LOCATION, GRID)
    ]


def run_cell(spec):
    return run_table_cell(spec) if isinstance(spec, TableSpec) else run_oracle_cell(spec)


def table_cell_json(cell) -> dict:
    """A cell in the layout of `recshrink tables --format json`."""
    cols = ("n1", "n2", "alpha_star", "k_star", "regret_level", "delta_L", "delta_U", "error")
    return {c: getattr(cell, c) for c in cols}


def cli_argv(workload: Workload, specs_) -> list[str]:
    """`recshrink` arguments that reproduce some of the workload's cells."""
    argv = list(workload.cli_args) + ["--format", "json"]
    if workload.kind == "oracle":
        (key,) = workload.cli_designs
        (spec,) = [s for s in specs_ if (s.design.n1, s.design.n2) == key]
        argv += ["--n1", str(spec.design.n1), "--n2", str(spec.design.n2),
                 "--alpha", repr(ORACLE_ALPHA), "--k", repr(spec.k),
                 "--seed", str(spec.seed), "--reps", str(REPLICATES)]
    return argv


def cli_cross_check(workload: Workload, specs_, outputs, cli_json) -> list[str]:
    """Differences between the benchmark's cells and the CLI's output."""
    mine = {(s.design.n1, s.design.n2): o for s, o in zip(specs_, outputs)
            if s.design.variant is workload.cli_variant}
    problems = []
    if workload.kind == "table":
        got = {(c["n1"], c["n2"]): c for c in cli_json}
        for key in workload.cli_designs:
            want = table_cell_json(mine[key])
            if got.get(key) != want:
                problems.append(f"cell {key}: CLI gives {got.get(key)}, benchmark {want}")
    else:
        (key,) = workload.cli_designs
        report, _ = mine[key]
        if cli_json["rows"] != report.to_json_dict()["rows"]:
            problems.append(f"simulate {key}: CLI rows differ from the benchmark's")
    return problems
