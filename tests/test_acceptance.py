"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete.  Criterion 6 is expected to FAIL: the published simulation
table it quotes is internally inconsistent with the exact risk function
(details in that test), and the assertions are kept as published rather
than weakened to pass.
"""

import csv
import io
import math

import numpy as np
import pytest

from recshrink.cli import main
from recshrink.estimators import EstimationInput, preliminary_test, shrinkage
from recshrink.minimax import optimal_alpha, optimal_k
from recshrink.records import DesignPair, Variant
from recshrink.risk import RiskParams, boundary_risks, pt_moments, pt_risk, shrink_risk
from recshrink.sim import SimConfig, convention_validation, mc_compare
from recshrink.special import f_quantile, inv_reg_inc_beta, reg_inc_beta

GRID = (2, 3, 4, 5, 7, 10)

# published alpha* grid, rows keyed by n2, columns by n1
TABLE1 = {
    2: {2: 0.38, 3: 0.30, 4: 0.27, 5: 0.24, 7: 0.22, 10: 0.20},
    3: {2: 0.42, 3: 0.34, 4: 0.29, 5: 0.27, 7: 0.24, 10: 0.21},
    4: {2: 0.44, 3: 0.36, 4: 0.31, 5: 0.28, 7: 0.25, 10: 0.22},
    5: {2: 0.46, 3: 0.38, 4: 0.33, 5: 0.30, 7: 0.26, 10: 0.23},
    7: {2: 0.49, 3: 0.40, 4: 0.35, 5: 0.32, 7: 0.28, 10: 0.25},
    10: {2: 0.51, 3: 0.42, 4: 0.37, 5: 0.33, 7: 0.29, 10: 0.26},
}

# published K* grid at fixed level 0.16
TABLE2 = {
    2: {2: 0.17, 3: 0.23, 4: 0.29, 5: 0.32, 7: 0.38, 10: 0.42},
    3: {2: 0.14, 3: 0.19, 4: 0.24, 5: 0.27, 7: 0.32, 10: 0.36},
    4: {2: 0.12, 3: 0.17, 4: 0.21, 5: 0.24, 7: 0.29, 10: 0.33},
    5: {2: 0.11, 3: 0.16, 4: 0.20, 5: 0.22, 7: 0.27, 10: 0.31},
    7: {2: 0.10, 3: 0.14, 4: 0.18, 5: 0.20, 7: 0.24, 10: 0.28},
    10: {2: 0.10, 3: 0.13, 4: 0.17, 5: 0.19, 7: 0.23, 10: 0.26},
}

# published (alpha*, K*) pairs
TABLE3_K = {
    2: {2: 0.21, 3: 0.29, 4: 0.34, 5: 0.37, 7: 0.42, 10: 0.45},
    3: {2: 0.15, 3: 0.23, 4: 0.28, 5: 0.31, 7: 0.35, 10: 0.39},
    4: {2: 0.12, 3: 0.19, 4: 0.24, 5: 0.27, 7: 0.32, 10: 0.35},
    5: {2: 0.11, 3: 0.17, 4: 0.22, 5: 0.25, 7: 0.29, 10: 0.33},
    7: {2: 0.10, 3: 0.15, 4: 0.19, 5: 0.22, 7: 0.26, 10: 0.30},
    10: {2: 0.09, 3: 0.14, 4: 0.17, 5: 0.20, 7: 0.24, 10: 0.28},
}

TOL = 0.015


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)


def test_criterion_1_table1_alpha_grid():
    worst = 0.0
    bad = []
    for n2 in GRID:
        for n1 in GRID:
            got = optimal_alpha(DesignPair(n1, n2)).tuned_value
            diff = got - TABLE1[n2][n1]
            worst = max(worst, abs(diff))
            if abs(diff) > TOL:
                bad.append((n1, n2, got, TABLE1[n2][n1]))
    ok = not bad
    _verdict(
        "criterion 1: alpha* grid within ±0.015",
        ok,
        f"36 cells, worst |diff| = {worst:.4f}" + (f", offenders: {bad}" if bad else ""),
    )
    assert ok, bad


def test_criterion_2_table2_k_grid():
    worst = 0.0
    bad = []
    for n2 in GRID:
        for n1 in GRID:
            got = optimal_k(DesignPair(n1, n2), 0.16).tuned_value
            diff = got - TABLE2[n2][n1]
            worst = max(worst, abs(diff))
            if abs(diff) > TOL:
                bad.append((n1, n2, got, TABLE2[n2][n1]))
    ok = not bad
    _verdict(
        "criterion 2: K* grid at alpha=0.16 within ±0.015",
        ok,
        f"36 cells, worst |diff| = {worst:.4f}" + (f", offenders: {bad}" if bad else ""),
    )
    assert ok, bad


def test_criterion_3_table3_chained_grid():
    worst_a = worst_k = 0.0
    bad = []
    for n2 in GRID:
        for n1 in GRID:
            design = DesignPair(n1, n2)
            a_star = optimal_alpha(design).tuned_value
            k_star = optimal_k(design, a_star).tuned_value
            da = a_star - TABLE1[n2][n1]
            dk = k_star - TABLE3_K[n2][n1]
            worst_a = max(worst_a, abs(da))
            worst_k = max(worst_k, abs(dk))
            if abs(da) > TOL or abs(dk) > TOL:
                bad.append((n1, n2, a_star, k_star))
    ok = not bad
    _verdict(
        "criterion 3: chained (alpha*, K*) grid within ±0.015",
        ok,
        f"36 cells, worst |alpha diff| = {worst_a:.4f}, worst |K diff| = {worst_k:.4f}"
        + (f", offenders: {bad}" if bad else ""),
    )
    assert ok, bad


def test_criterion_4_closed_form_oracle_agreement():
    result = convention_validation(replicates=200_000, seed=424242)
    derived = [c for c in result["cells"] if c.convention == "derived"]
    bad = [c for c in derived if not c.ok]
    max_z = max(abs(c.z) for c in derived)
    ok = not bad and result["surviving_conventions"] == ["derived"]
    _verdict(
        "criterion 4: closed form within 3 MC standard errors on the full grid",
        ok,
        f"surviving convention: {', '.join(result['surviving_conventions'])}; "
        f"max |z| (derived) = {max_z:.2f} over {len(derived)} cells",
    )
    assert ok, bad


def test_criterion_5_worked_example(records_csv, capsys):
    code = main([
        "estimate", str(records_csv), "--variant", "locscale",
        "--alpha", "0.16", "--k", "0.24",
    ])
    out = capsys.readouterr().out
    rows = {k: v for k, v in list(csv.reader(io.StringIO(out)))[1:]}
    assert code == 0

    t1 = float(rows["theta1_hat"])
    t2 = float(rows["theta2_hat"])
    pt = float(rows["theta_pt"])
    ts = float(rows["theta_s"])
    accepted = rows["accepted"] == "true"

    # the published shrinkage value 1.0292 never states its coefficient;
    # back-solving 1.0292 = K*pooled + (1-K)*theta1_hat gives K ~ 0.24,
    # which is what this run uses.  No tuned-K table covers n1 = n2 = 8,
    # so 0.24 is recorded as the reproducing value, not a derived one.
    pooled_hat = float(rows["pooled"])
    k_back = (t1 - 1.0292) / (t1 - pooled_hat)

    ok = (
        accepted
        and abs(t1 - 1.0705) <= 5.1e-5
        and abs(t2 - 0.7262) <= 5.1e-5
        and abs(pt - 0.8984) <= 5.1e-5
        and abs(ts - 1.0292) <= 5.1e-5
        and abs(k_back - 0.24) <= 0.005
    )
    _verdict(
        "criterion 5: worked example reproduced",
        ok,
        f"theta1={t1:.4f} theta2={t2:.4f} pt={pt:.4f} s={ts:.4f} "
        f"(back-solved K = {k_back:.4f}; the published shrinkage value "
        f"does not state K, so 0.24 is inferred, not given)",
    )
    assert ok


def test_criterion_6_simulation_spot_checks():
    """Published simulation efficiencies at (2,2) — kept as published, fails.

    The published table reports eff_pt = 1.240 and eff_s = 1.095 at
    theta2 = 1.0 and eff_pt = 0.661 at theta2 = 2.0 for the (2,2) design
    at level 0.16.  Those numbers cannot come from a (2,2) simulation: the
    exact risk function (independently confirmed by the Monte Carlo oracle
    in criterion 4) gives eff_pt(1.0) = 1.349 and eff_pt(2.0) = 0.723 at
    (2,2).  The published efficiency profile instead matches the (10,7)
    design at every theta2 on the grid to within its own noise, and the
    reported bias-column jitter matches n1 = 10 rather than n1 = 2, so the
    published runs evidently used one fixed design for every block.  The
    assertions below stay as published and therefore fail; the consistency
    check between this simulation and the exact risk passes just above
    them.
    """
    config = SimConfig(
        design=DesignPair(2, 2),
        theta2_grid=(1.0, 2.0),
        seed=20260811,
        alpha=0.16,
        k=0.17,  # published tuned K for (2,2) at level 0.16
        replicates=100_000,
    )
    report = mc_compare(config)
    row1, row2 = report.rows

    # internal consistency: simulation vs exact risk at both points
    for row in report.rows:
        exact_pt = pt_risk(config.design, row.theta2, config.alpha)
        assert abs(row.mse_pt - exact_pt) <= 3.0 * row.se_mse_pt

    checks = [
        ("eff_pt(theta2=1.0)", row1.eff_pt, 1.240, 0.03),
        ("eff_s(theta2=1.0)", row1.eff_s, 1.095, 0.02),
        ("eff_pt(theta2=2.0)", row2.eff_pt, 0.661, 0.03),
    ]
    failures = [
        f"{name}: got {got:.3f}, published {want} ± {tol}"
        for name, got, want, tol in checks
        if abs(got - want) > tol
    ]
    ok = not failures
    _verdict(
        "criterion 6: published simulation spot checks at (2,2)",
        ok,
        "; ".join(failures)
        + " — the published table's efficiency profile matches a fixed (10,7) "
        "design, not the block labels; simulation agrees with the exact risk, "
        "so the assertions are kept as published and fail honestly"
        if failures
        else "",
    )
    assert ok, failures


def test_criterion_6_published_values_fit_design_10_7():
    """The diagnosis of criterion 6, executable: the published numbers are (10,7)'s.

    At (10,7), level 0.16, the exact risk gives all three published
    efficiencies within their stated tolerances: eff = (1/n1)/risk, with
    the shrinkage rule at (10,7)'s own tuned K*(0.16).  Criterion 6 keeps
    its (2,2) assertions as published.
    """
    design, alpha = DesignPair(10, 7), 0.16
    k_star = optimal_k(design, alpha).tuned_value
    assert k_star == pytest.approx(0.2805, abs=5e-5)
    checks = [
        ("eff_pt(theta2=1.0)", 0.1 / pt_risk(design, 1.0, alpha), 1.229, 1.240, 0.03),
        ("eff_s(theta2=1.0)", 0.1 / shrink_risk(design, 1.0, alpha, k_star), 1.098, 1.095, 0.02),
        ("eff_pt(theta2=2.0)", 0.1 / pt_risk(design, 2.0, alpha), 0.680, 0.661, 0.03),
    ]
    for name, got, exact, published, tol in checks:
        assert got == pytest.approx(exact, abs=5e-4), name
        assert abs(got - published) <= tol, name
    _verdict("criterion 6 diagnosis: the published efficiencies fit (10,7)", True,
             ", ".join(f"{name} = {got:.3f}" for name, got, *_ in checks))


def test_criterion_7_degeneracy_suite():
    designs = [DesignPair(n1, n2) for n1 in (2, 5, 10) for n2 in (2, 6, 7)]
    deltas = (0.3, 1.0, 2.4)
    ok = True
    notes = []

    # alpha = 1: the pre-test rule never pools
    for d in designs:
        for t in deltas:
            if abs(pt_risk(d, t, 1.0) - 1.0 / d.n1) > 1e-10:
                ok = False
                notes.append(f"pt_risk(alpha=1) at {d}")

    # k = 0: the shrinkage rule is the MLE
    for d in designs:
        for t in deltas:
            if abs(shrink_risk(d, t, 0.16, 0.0) - 1.0 / d.n1) > 1e-10:
                ok = False
                notes.append(f"shrink_risk(k=0) at {d}")

    # k = 1: shrinkage and pre-test coincide as estimators and in risk
    inp = EstimationInput(1.3, 1.0, DesignPair(4, 6))
    if shrinkage(inp, 0.2, 1.0) != preliminary_test(inp, 0.2):
        ok = False
        notes.append("k=1 estimator identity")
    for d in designs:
        for t in deltas:
            if shrink_risk(d, t, 0.16, 1.0) != pt_risk(d, t, 0.16):
                ok = False
                notes.append("k=1 risk identity")

    # balanced design at equal scales is unbiased
    for n in (2, 5, 10):
        bias, _ = pt_moments(RiskParams(DesignPair(n, n), 1.0, 0.16))
        if abs(bias) > 1e-10:
            ok = False
            notes.append(f"bias at n1=n2={n}")

    # pooling risk at equal scales
    for d in designs:
        r0, _ = boundary_risks(d, 1.0)
        if r0 != 1.0 / (d.n1 + d.n2):
            ok = False
            notes.append(f"r0(1) at {d}")

    _verdict("criterion 7: degeneracy suite", ok, "; ".join(notes))
    assert ok, notes


def test_criterion_8_special_function_suite():
    rng = np.random.default_rng(20260811)
    cases = 0
    ok = True
    notes = []

    # symmetry identity at 1e-12, on exactly complementary float pairs
    for _ in range(400):
        a, b = rng.uniform(0.5, 50.0, 2)
        hi = max(rng.uniform(0.0, 1.0), 0.5)
        lo = 1.0 - hi  # exact for hi >= 0.5
        if abs(reg_inc_beta(lo, a, b) + reg_inc_beta(hi, b, a) - 1.0) > 1e-12:
            ok = False
            notes.append(f"symmetry at {(lo, a, b)}")
        cases += 1

    # monotonicity on interior grids: non-decreasing everywhere, strictly
    # increasing wherever the CDF is not saturated at double precision
    for _ in range(20):
        a, b = rng.uniform(0.5, 50.0, 2)
        xs = np.linspace(0.01, 0.99, 60)
        vals = [reg_inc_beta(float(x), a, b) for x in xs]
        for v1, v2 in zip(vals, vals[1:]):
            live = 1e-14 < v1 and v2 < 1.0 - 1e-14
            if v2 < v1 or (live and not v2 > v1):
                ok = False
                notes.append(f"monotonicity at {(a, b)}")
                break
        cases += 60

    # inverse round trip at 1e-8 (plus the ulp(p)/pdf smear from rounding p)
    from recshrink.special import log_beta

    for _ in range(300):
        a, b = rng.uniform(0.5, 50.0, 2)
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        p = reg_inc_beta(x, a, b)
        if p == 0.0 or p == 1.0:
            continue  # CDF saturated at double precision
        lpdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
        quant = (1.2e-16 + 1e-13 * min(p, 1.0 - p)) / max(math.exp(lpdf), 1e-300)
        if abs(inv_reg_inc_beta(p, a, b) - x) > 1e-8 + quant:
            ok = False
            notes.append(f"round trip at {(x, a, b)}")
        cases += 1

    # F reciprocal identity at 1e-9 relative
    for _ in range(300):
        d1, d2 = rng.uniform(1.0, 60.0, 2)
        p = rng.uniform(0.02, 0.98)
        q = f_quantile(p, d1, d2) * f_quantile(1.0 - p, d2, d1)
        if abs(q - 1.0) > 1e-9:
            ok = False
            notes.append(f"F reciprocal at {(p, d1, d2)}")
        cases += 1

    _verdict(
        "criterion 8: special-function suite",
        ok,
        f"{cases} randomized cases" + ("; " + "; ".join(notes[:5]) if notes else ""),
    )
    assert ok, notes[:10]
