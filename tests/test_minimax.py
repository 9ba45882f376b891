"""Regret geometry and the minimax-regret optimizers.

Brute-force grids (1e4 points) act as oracles for the two-sided regret
suprema; published grid values anchor a handful of optimizer cells here and
the full 6x6 grids run in the acceptance suite.
"""

import numpy as np
import pytest

from recshrink.minimax import (
    SearchError,
    TableCase,
    delta_intersections,
    generate_tables,
    inf_k_risk,
    optimal_alpha,
    optimal_k,
    pooling_region,
    pt_risk_crossings,
    regret_pt,
    regret_shrink,
    sup_regret_pt,
    sup_regret_shrink,
)
from recshrink.records import DesignPair
from recshrink.risk import boundary_risks, pt_risk, shrink_risk

D56 = DesignPair(5, 6)


class TestDeltaIntersections:
    @pytest.mark.parametrize("n1,n2", [(2, 2), (5, 6), (10, 7), (3, 9)])
    def test_roots_lie_on_both_curves(self, n1, n2):
        d = DesignPair(n1, n2)
        for root in delta_intersections(d):
            if root > 0.0:
                assert boundary_risks(d, root)[0] == pytest.approx(1.0 / n1, abs=1e-10)

    def test_symmetric_design_roots(self):
        lo, hi = delta_intersections(DesignPair(4, 4))
        # the quadratic is symmetric about n/(n+1)
        assert 0.5 * (lo + hi) == pytest.approx(4.0 / 5.0, rel=1e-12)
        assert boundary_risks(DesignPair(4, 4), hi)[0] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in (2, 3, 4, 5, 7, 10)
                                       for n2 in (2, 3, 4, 5, 7, 10)])
    def test_equal_scales_inside_window(self, n1, n2):
        lo, hi = delta_intersections(DesignPair(n1, n2))
        assert lo < 1.0 < hi

    def test_small_n2_lower_root_nonpositive(self):
        # pooling beats the bare MLE at every small delta here
        lo, hi = delta_intersections(DesignPair(10, 2))
        assert lo < 0.0 < hi

    def test_pooling_region_always_positive(self):
        for n1, n2 in [(2, 2), (10, 2), (5, 6)]:
            lo, hi = pooling_region(DesignPair(n1, n2))
            assert 0.0 < lo < hi
        lo, hi = pooling_region(DesignPair(10, 2))
        assert lo == pytest.approx(1.0 / hi, rel=1e-12)


class TestRegretPt:
    def test_alpha_one_outside_window_is_zero(self):
        lo, hi = delta_intersections(D56)
        for delta in (lo * 0.5 if lo > 0 else 0.01, hi * 1.5, hi * 10.0):
            assert regret_pt(D56, delta, 1.0) <= 1e-12

    def test_alpha_near_zero_inside_window_is_zero(self):
        lo, hi = pooling_region(D56)
        for delta in np.linspace(lo * 1.05, hi * 0.95, 7):
            assert regret_pt(D56, float(delta), 1e-9) <= 1e-4

    def test_nonnegative_everywhere(self):
        for design in (DesignPair(2, 2), D56, DesignPair(10, 2)):
            for alpha in (0.05, 0.16, 0.5, 1.0):
                deltas = np.geomspace(1e-3, 50.0, 80)
                assert all(
                    regret_pt(design, float(t), alpha) >= 0.0 for t in deltas
                )

    def test_value_against_components(self):
        lo, hi = pooling_region(D56)
        delta = 0.5 * (lo + hi)
        expect = pt_risk(D56, delta, 0.16) - boundary_risks(D56, delta)[0]
        assert regret_pt(D56, delta, 0.16) == pytest.approx(max(0.0, expect), abs=1e-14)


def _brute_force_sups(regret, edge, points=10_000):
    lower = np.geomspace(edge * 1e-4, edge, points)
    upper = np.geomspace(edge * (1 + 1e-9), edge * 64.0, points)
    vals_lo = np.array([regret(float(t)) for t in lower])
    vals_hi = np.array([regret(float(t)) for t in upper])
    ilo, ihi = int(np.argmax(vals_lo)), int(np.argmax(vals_hi))
    return vals_lo[ilo], vals_hi[ihi]


class TestSupRegretPt:
    def test_against_dense_grid(self):
        d_lo, r_lo, d_hi, r_hi = sup_regret_pt(D56, 0.16)
        edge = pooling_region(D56)[1]
        brute_lo, brute_hi = _brute_force_sups(
            lambda t: regret_pt(D56, t, 0.16), edge
        )
        # the dense grid is a lower bound with O(step^2) peak error; the
        # refined search must sit at or slightly above it
        assert r_lo == pytest.approx(brute_lo, abs=2e-5)
        assert r_hi == pytest.approx(brute_hi, abs=2e-5)
        assert r_lo >= brute_lo - 1e-9
        assert r_hi >= brute_hi - 1e-9
        assert d_lo < edge < d_hi

    def test_alpha_one_upper_regret_vanishes(self):
        _, r_lo, _, r_hi = sup_regret_pt(D56, 1.0)
        assert r_hi <= 1e-12
        assert r_lo > 0.0

    def test_upper_maximum_is_finite(self):
        # regret dies off at large delta, so the hump is interior
        d_lo, _, d_hi, r_hi = sup_regret_pt(DesignPair(3, 4), 0.05)
        assert np.isfinite(d_hi) and r_hi > 0.0


PUBLISHED_ALPHA_CELLS = [(2, 2, 0.38), (10, 10, 0.26), (5, 3, 0.27)]


class TestOptimalAlpha:
    @pytest.mark.parametrize("n1,n2,expect", PUBLISHED_ALPHA_CELLS)
    def test_published_cells(self, n1, n2, expect):
        sol = optimal_alpha(DesignPair(n1, n2))
        assert sol.tuned_value == pytest.approx(expect, abs=0.015)

    def test_solution_invariants(self):
        sol = optimal_alpha(D56)
        assert not sol.fallback
        assert abs(sol.regret_at_L - sol.regret_at_U) <= 1e-5
        # exact type: np.float64 subclasses float, so isinstance would pass
        for value in (sol.tuned_value, sol.regret_at_L, sol.regret_at_U):
            assert type(value) is float
        assert sol.delta1 < sol.delta2
        assert sol.delta_L < sol.delta2 < sol.delta_U

    def test_local_monotonicity_at_root(self):
        # near alpha*: the lower maximum grows with alpha, the upper shrinks,
        # which is what makes the sign-change bracket reliable
        sol = optimal_alpha(D56)
        a = sol.tuned_value
        _, lo_m, _, hi_m = sup_regret_pt(D56, a - 0.03)
        _, lo_p, _, hi_p = sup_regret_pt(D56, a + 0.03)
        assert lo_p > lo_m
        assert hi_p < hi_m


class TestInfKRisk:
    def test_alpha_one_is_flat_and_ties_to_zero(self):
        k, r = inf_k_risk(D56, 1.3, 1.0)
        assert k == 0.0
        assert r == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.4, 1.0, 2.2])
    def test_below_dense_k_grid(self, delta):
        k_min, r_min = inf_k_risk(D56, delta, 0.16)
        assert 0.0 <= k_min <= 1.0
        for k in np.linspace(0.0, 1.0, 101):
            assert r_min <= shrink_risk(D56, delta, 0.16, float(k)) + 1e-15

    def test_matches_risk_at_argmin(self):
        k_min, r_min = inf_k_risk(D56, 1.0, 0.16)
        assert shrink_risk(D56, 1.0, 0.16, k_min) == pytest.approx(r_min, abs=1e-13)


class TestRegretShrink:
    def test_nonnegative_and_zero_at_argmin(self):
        for delta in (0.5, 1.0, 2.0):
            k_min, _ = inf_k_risk(D56, delta, 0.16)
            assert regret_shrink(D56, delta, 0.16, k_min) <= 1e-14
            for k in (0.0, 0.3, 1.0):
                assert regret_shrink(D56, delta, 0.16, k) >= 0.0

    def test_crossings_bracket_the_dip(self):
        lo, hi = pt_risk_crossings(D56, 0.16)
        assert 0.0 <= lo < 1.0 < hi
        assert pt_risk(D56, 1.0, 0.16) < 0.2
        assert pt_risk(D56, hi * 1.5, 0.16) > 0.2

    def test_sup_against_dense_grid(self):
        crossings = pt_risk_crossings(D56, 0.16)
        d_lo, r_lo, d_hi, r_hi = sup_regret_shrink(D56, 0.16, 0.21)
        brute_lo, brute_hi = _brute_force_sups(
            lambda t: regret_shrink(D56, t, 0.16, 0.21), crossings[1]
        )
        assert r_lo == pytest.approx(brute_lo, abs=2e-5)
        assert r_hi == pytest.approx(brute_hi, abs=2e-5)
        assert r_lo >= brute_lo - 1e-9
        assert r_hi >= brute_hi - 1e-9


PUBLISHED_K_CELLS = [
    (5, 5, 0.16, 0.22),
    (2, 2, 0.16, 0.17),
    (5, 5, 0.30, 0.25),  # its own tuned level
]


class TestOptimalK:
    @pytest.mark.parametrize("n1,n2,alpha,expect", PUBLISHED_K_CELLS)
    def test_published_cells(self, n1, n2, alpha, expect):
        sol = optimal_k(DesignPair(n1, n2), alpha)
        assert sol.tuned_value == pytest.approx(expect, abs=0.015)

    def test_solution_invariants(self):
        sol = optimal_k(D56, 0.16)
        assert not sol.fallback
        assert abs(sol.regret_at_L - sol.regret_at_U) <= 1e-5
        for value in (sol.tuned_value, sol.regret_at_L, sol.regret_at_U):
            assert type(value) is float
        assert 0.0 <= sol.tuned_value <= 1.0
        assert sol.delta_L < sol.delta2 < sol.delta_U

    def test_figure_reference_value(self):
        # the (5, 6) design at level 0.16 tunes to K ~ 0.21
        sol = optimal_k(D56, 0.16)
        assert sol.tuned_value == pytest.approx(0.21, abs=0.01)

    def test_chained_consistency(self):
        alpha_star = optimal_alpha(DesignPair(7, 7)).tuned_value
        k_star = optimal_k(DesignPair(7, 7), alpha_star).tuned_value
        assert alpha_star == pytest.approx(0.28, abs=0.015)
        assert k_star == pytest.approx(0.26, abs=0.015)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            optimal_k(D56, 1.0)


class TestEqualize:
    def test_sign_change_root(self):
        from recshrink.minimax import _equalize

        # reg_L rises, reg_U falls; root of their difference at t = 0.55
        sups = lambda t: (1.0, t, 2.0, 1.1 - t)
        root, fallback = _equalize(sups)
        assert not fallback
        assert root == pytest.approx(0.55, abs=1e-6)

    def test_fallback_minimizes_worst_maximum(self):
        from recshrink.minimax import _equalize

        # both maxima rise together: no sign change, minimize the worse one
        sups = lambda t: (1.0, 1.0 + (t - 0.3) ** 2, 2.0, 0.5 + (t - 0.3) ** 2)
        root, fallback = _equalize(sups)
        assert fallback
        assert root == pytest.approx(0.3, abs=1e-4)


class TestLocationScaleVariant:
    def test_optimizers_run_on_location_scale_designs(self):
        from recshrink.records import Variant

        design = DesignPair(5, 6, Variant.LOCATION_SCALE)
        sol_a = optimal_alpha(design)
        assert 0.01 < sol_a.tuned_value < 0.99
        assert abs(sol_a.regret_at_L - sol_a.regret_at_U) <= 1e-5
        # location-scale (5,6) behaves like known-location (4,5) pivots
        sol_k = optimal_k(design, 0.16)
        assert 0.0 < sol_k.tuned_value < 1.0


class TestGenerateTables:
    def test_alpha_case_small_grid(self):
        designs = [DesignPair(2, 2), DesignPair(3, 2)]
        cells = generate_tables(TableCase.ALPHA, designs=designs)
        assert [(c.n1, c.n2) for c in cells] == [(2, 2), (3, 2)]
        assert all(c.error is None for c in cells)
        assert cells[0].alpha_star == pytest.approx(0.38, abs=0.015)
        assert cells[0].k_star is None
        assert all(c.regret_level > 0 for c in cells)

    def test_k_case_carries_alpha(self):
        cells = generate_tables(
            TableCase.K_FIXED_ALPHA, designs=[DesignPair(5, 5)], alpha=0.16
        )
        assert cells[0].alpha_star == 0.16
        assert cells[0].k_star == pytest.approx(0.22, abs=0.015)

    def test_chained_case(self):
        cells = generate_tables(TableCase.K_OPTIMAL_ALPHA, designs=[DesignPair(5, 5)])
        assert cells[0].alpha_star == pytest.approx(0.30, abs=0.015)
        assert cells[0].k_star == pytest.approx(0.25, abs=0.015)

    def test_cell_errors_do_not_abort(self, monkeypatch):
        import recshrink.minimax as mm

        def boom(design):
            raise SearchError("injected failure")

        monkeypatch.setattr(mm, "optimal_alpha", boom)
        cells = mm.generate_tables(TableCase.ALPHA, designs=[DesignPair(2, 2),
                                                             DesignPair(3, 3)])
        assert all(c.error == "injected failure" for c in cells)
        assert len(cells) == 2


class TestWindowEdgeJump:
    def test_alpha_lower_sup_is_right_limit_at_delta1(self):
        # the alpha regret jumps up at delta1, where its reference switches
        # from 1/n1 to r0; at (5, 2) the lower sup sits on that jump
        d = DesignPair(5, 2)
        sol = optimal_alpha(d)
        at_jump = regret_pt(d, sol.delta1 * (1.0 + 1e-9), sol.tuned_value)
        assert sol.regret_at_L == pytest.approx(at_jump, abs=1e-9)
        assert sol.tuned_value == pytest.approx(0.24614, abs=1e-5)


class TestLocationScaleTables:
    # table 2 (K_FIXED_ALPHA) runs through the CLI in test_cli.py
    @pytest.mark.parametrize("case", [TableCase.ALPHA, TableCase.K_OPTIMAL_ALPHA])
    def test_every_cell_solves(self, case):
        from recshrink.minimax import TABLE_GRID
        from recshrink.records import Variant

        designs = [DesignPair(a, b, Variant.LOCATION_SCALE)
                   for b in TABLE_GRID for a in TABLE_GRID]
        cells = generate_tables(case, designs)
        assert len(cells) == 36
        assert [c for c in cells if c.error] == []


def _sample_designs(count=8, seed=20261018):
    """Seeded (n1, n2) pairs, log-uniform in [2, 150], plus three fixed ones.

    (5, 2) and (10, 7) are published cells whose alpha* lower sup sits on the
    jump at delta1; (150, 150) is the largest design covered.
    """
    rng = np.random.default_rng(seed)
    sizes = np.rint(np.exp(rng.uniform(np.log(2.0), np.log(150.0), (count, 2))))
    return [tuple(int(n) for n in pair) for pair in sizes] + [(5, 2), (10, 7), (150, 150)]


def _assert_sups_dominate_scan(sol, regret_grid):
    # 20k-point two-sided log scan over [edge/1e4, 1e4*edge]
    deltas = np.geomspace(sol.delta2 / 1e4, sol.delta2 * 1e4, 20_000)
    values = regret_grid(deltas)
    lower = deltas <= sol.delta2
    assert values[lower].max() <= sol.regret_at_L + 1e-9
    assert values[~lower].max() <= sol.regret_at_U + 1e-9


class TestDenseScan:
    @pytest.mark.parametrize("variant", ["known", "locscale"])
    @pytest.mark.parametrize("n1,n2", _sample_designs())
    def test_tuned_sups_are_global(self, n1, n2, variant):
        from recshrink.minimax import _regret_pt_grid, _regret_shrink_table, _shrink_terms
        from recshrink.records import Variant

        d = DesignPair(n1, n2, Variant(variant))
        sol_a = optimal_alpha(d)
        alpha = sol_a.tuned_value
        if not sol_a.fallback:
            region = (sol_a.delta1, sol_a.delta2)
            _assert_sups_dominate_scan(sol_a, lambda g: _regret_pt_grid(d, g, alpha, region))
        sol_k = optimal_k(d, alpha)
        if not sol_k.fallback:
            k = sol_k.tuned_value
            _assert_sups_dominate_scan(
                sol_k, lambda g: _regret_shrink_table(_shrink_terms(d, g, alpha), k)
            )


class TestSearchErrorsNameInputs:
    def test_optimal_k_error_names_design_and_level(self, monkeypatch):
        import recshrink.minimax as mm

        # polished sups that never equalize
        monkeypatch.setattr(mm, "sup_regret_shrink", lambda *args: (0.5, 0.1, 5.0, 0.3))
        with pytest.raises(SearchError, match=r"K\* at design \(5, 6\) known, alpha=0\.16: "
                                              r"regret maxima not equalized"):
            mm.optimal_k(D56, 0.16)

    def test_optimal_alpha_error_names_design(self, monkeypatch):
        import recshrink.minimax as mm

        monkeypatch.setattr(mm, "sup_regret_pt", lambda *args: (0.5, 0.1, 5.0, 0.3))
        with pytest.raises(SearchError, match=r"alpha\* at design \(5, 6\) known: "):
            mm.optimal_alpha(D56)
