"""Regret geometry and the minimax-regret optimizers.

Brute-force grids (1e4 points) act as oracles for the two-sided regret
suprema; published grid values anchor a handful of optimizer cells here and
the full 6x6 grids run in the acceptance suite.
"""

import numpy as np
import pytest

from recshrink.minimax import (
    RegretSolution,
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
from recshrink.records import DesignPair, Variant
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
                                       for n2 in (2, 3, 4, 5, 7, 10)]
                             + [(1, 1), (1, 2), (2, 1), (1, 10**7), (10**7, 1), (2, 10**7),
                                (10**7, 2), (10**7, 10**7), (150, 3), (10**4, 10**6)])
    def test_equal_scales_inside_window(self, n1, n2):
        # r0 opens upward and r0(1) < 1/n1, so the roots are real and straddle
        # delta = 1 under every variant a design admits
        for variant in Variant:
            if variant is Variant.LOCATION_SCALE and min(n1, n2) < 2:
                continue
            d = DesignPair(n1, n2, variant)
            assert boundary_risks(d, 1.0)[0] < 1.0 / n1, variant
            lo, hi = delta_intersections(d)
            assert lo < 1.0 < hi, variant

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

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            sup_regret_pt(D56, alpha)

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

    @pytest.mark.parametrize("k", [-0.1, 1.1, float("nan")])
    def test_k_domain(self, k):
        with pytest.raises(ValueError, match="k must lie in"):
            regret_shrink(D56, 1.0, 0.16, k)

    @pytest.mark.parametrize("k", [1.5, -0.1, float("nan")])
    def test_sup_k_domain(self, k):
        from recshrink.minimax import _shrink_search

        with pytest.raises(ValueError, match=r"k must lie in \[0, 1\], got"):
            sup_regret_shrink(D56, 0.16, k)
        # the memoized regret the polish reads checks k the same way
        with pytest.raises(ValueError, match=r"k must lie in \[0, 1\], got"):
            _shrink_search(D56, 0.16).regret(1.0, k)

    def test_crossings_bracket_the_dip(self):
        lo, hi = pt_risk_crossings(D56, 0.16)
        assert 0.0 <= lo < 1.0 < hi
        assert pt_risk(D56, 1.0, 0.16) < 0.2
        assert pt_risk(D56, hi * 1.5, 0.16) > 0.2

    @pytest.mark.parametrize("design", [D56, DesignPair(7, 2, Variant.LOCATION_SCALE)])
    def test_crossing_residual_evaluates_each_delta_once(self, monkeypatch, design):
        import recshrink.minimax as mm

        seen = []
        scalar = mm.risk_k_coefficients

        def recorded(d, delta, alpha):
            seen.append(delta)
            return scalar(d, delta, alpha)

        monkeypatch.setattr(mm, "risk_k_coefficients", recorded)
        lo, hi = pt_risk_crossings(design, 0.16)
        assert 1.0 in seen and len(set(seen)) == len(seen)
        assert lo in seen and hi in seen

    @pytest.mark.parametrize("design", [D56, DesignPair(7, 2, Variant.LOCATION_SCALE)])
    def test_crossings_evaluate_each_delta_once(self, monkeypatch, design):
        import recshrink.minimax as mm

        seen = []

        def recorded(d, delta, alpha):
            seen.append(delta)
            return pt_risk(d, delta, alpha)

        monkeypatch.setattr(mm, "pt_risk", recorded)
        pt_risk_crossings(design, 0.16)
        assert seen and len(set(seen)) == len(seen)

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


class TestKSearchState:
    """One K* solve builds its grid table once and each delta's coefficients once."""

    @pytest.mark.parametrize("design, fallback", [
        (D56, False),
        (DesignPair(7, 2, Variant.LOCATION_SCALE), True),  # no equalizer
    ])
    def test_each_solve_computes_everything_once(self, monkeypatch, design, fallback):
        import recshrink.minimax as mm

        scalar_deltas, grid_calls = [], []
        scalar, grid = mm.risk_k_coefficients, mm.risk_k_coefficients_grid

        def counted_scalar(d, delta, alpha):
            scalar_deltas.append(delta)
            return scalar(d, delta, alpha)

        def counted_grid(d, deltas, alpha):
            grid_calls.append(len(deltas))
            return grid(d, deltas, alpha)

        monkeypatch.setattr(mm, "risk_k_coefficients", counted_scalar)
        monkeypatch.setattr(mm, "risk_k_coefficients_grid", counted_grid)
        sol = optimal_k(design, 0.16)
        assert sol.fallback is fallback
        assert len(grid_calls) == 1
        assert scalar_deltas and len(set(scalar_deltas)) == len(scalar_deltas)

        # the memo lives for one solve: a second one evaluates every delta again
        first = list(scalar_deltas)
        scalar_deltas.clear()
        assert optimal_k(design, 0.16) == sol
        assert scalar_deltas == first

        # a sup on its own builds its own state and reads the same numbers
        got = sup_regret_shrink(design, 0.16, sol.tuned_value)
        assert got == (sol.delta_L, sol.regret_at_L, sol.delta_U, sol.regret_at_U)


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


class TestRegretSolution:
    GOOD = dict(tuned_value=0.2, delta1=0.5, delta2=1.0, delta_L=0.8, delta_U=2.0,
                regret_at_L=0.01, regret_at_U=0.01)

    @pytest.mark.parametrize("change, message", [
        (dict(delta1=1.5), "window edges out of order"),
        (dict(delta_L=1.2), "regret maxima fall outside their regions"),
        (dict(delta_U=0.9), "regret maxima fall outside their regions"),
    ], ids=["window", "lower-max", "upper-max"])
    def test_invariants(self, change, message):
        RegretSolution(**self.GOOD)
        with pytest.raises(SearchError, match=message):
            RegretSolution(**(self.GOOD | change))

    @pytest.mark.parametrize("reg_L, reg_U, equalized", [
        (3.0e-4, 2.05e-4, False),       # within 1e-4 absolute, 32 % apart
        (3.0e-4, 3.0e-4 * (1 - 9e-5), True),
        (5.0, 5.0 - 9e-5, True),        # above 1 the check stays the absolute 1e-4
        (5.0, 5.0 - 2e-4, False),
    ])
    def test_equalization_is_relative_to_the_regret_level(self, reg_L, reg_U, equalized):
        solution = self.GOOD | dict(regret_at_L=reg_L, regret_at_U=reg_U)
        if equalized:
            RegretSolution(**solution)
        else:
            with pytest.raises(SearchError, match="not equalized"):
                RegretSolution(**solution)
        RegretSolution(**(solution | dict(fallback=True)))


class TestEqualize:
    """``_newton``'s root rule on analytic residuals: ``sups(t)`` is (reg_L, reg_U) at
    level t and ``slope(t)`` the slope of their difference."""

    @staticmethod
    def _newton(sups, slope):
        """(root, fallback) of ``_newton`` and the levels it read, in order."""
        from recshrink.minimax import _newton

        seen = []

        def read(t):
            seen.append(t)
            return sups(t)

        return _newton(read, slope), seen

    def test_sign_change_root(self):
        # reg_L rises, reg_U falls; root of their difference at t = 0.55
        (root, fallback), _ = self._newton(lambda t: (t, 1.1 - t), lambda t: 2.0)
        assert not fallback
        assert root == pytest.approx(0.55, abs=1e-6)

    @pytest.mark.parametrize("root", [0.015, 0.985], ids=["lower", "upper"])
    def test_the_ends_bracket_a_root_near_one_end(self, root):
        from recshrink.minimax import _DOMAIN, _NEWTON_START, _ROOT_XTOL

        # a zero slope sends Newton's first step out of _DOMAIN, so the next
        # levels are its two ends; they bracket the root with the start
        (t, fallback), seen = self._newton(lambda t: (t, root), lambda t: 0.0)
        assert not fallback
        assert seen[:3] == [_NEWTON_START, *_DOMAIN]
        assert abs(t - root) < 2 * _ROOT_XTOL
        bracket = sorted((_NEWTON_START, _DOMAIN[root > _NEWTON_START]))
        assert all(bracket[0] <= level <= bracket[1] for level in seen[3:])

    def test_a_step_that_does_not_halve_the_residual_reads_the_ends(self):
        from recshrink.minimax import _DOMAIN, _NEWTON_START, _ROOT_XTOL

        # a slope ten times too steep: the first step keeps the sign of
        # t - 0.9 and leaves nine tenths of it, so the ends are read next;
        # the steps stay ten times too short, so the last one below
        # _ROOT_XTOL leaves up to ten times that
        (t, fallback), seen = self._newton(lambda t: (t, 0.9), lambda t: 10.0)
        assert not fallback
        assert seen[:2] == [_NEWTON_START, pytest.approx(_NEWTON_START + 0.065)]
        assert seen[2:4] == list(_DOMAIN)
        assert abs(t - 0.9) < 10 * _ROOT_XTOL

    @pytest.mark.parametrize("zero, slope", [(0.01, 0.0), (0.25, 1.0), (0.99, 0.0)],
                             ids=["lower-end", "start", "upper-end"])
    def test_an_exact_zero_is_returned(self, zero, slope):
        # residual t - zero: exactly 0 at an end of _DOMAIN or at the start
        (root, fallback), _ = self._newton(lambda t: (t, zero), lambda t: slope)
        assert not fallback
        assert root == zero

    def test_fallback_minimizes_worst_maximum(self):
        from recshrink.minimax import _DOMAIN
        from recshrink.optim import golden_section_max

        # both maxima rise together: the ends agree in sign, so the golden
        # fallback minimizes the worse one
        sups = lambda t: (1.0 + (t - 0.3) ** 2, 0.5 + (t - 0.3) ** 2)
        (root, fallback), _ = self._newton(sups, lambda t: 0.0)
        assert fallback
        assert root == golden_section_max(lambda t: -max(sups(t)), *_DOMAIN)[0]
        assert root == pytest.approx(0.3, abs=1e-4)

    @pytest.mark.parametrize("sign, end", [(-1.0, 0.99), (1.0, 0.01)], ids=["upper", "lower"])
    def test_a_monotone_fallback_returns_the_end_exactly(self, sign, end):
        from recshrink.minimax import _DOMAIN

        # reg_L - reg_U = 1 at every level and the larger height falls toward
        # one end: golden stops short of that end, and the fallback, which
        # compares both ends, returns it
        sups = lambda t: (2.0 + sign * t, 1.0 + sign * t)
        (root, fallback), seen = self._newton(sups, lambda t: 0.0)
        assert fallback
        assert root == end
        assert set(_DOMAIN) <= set(seen)

    def test_running_out_of_levels_raises(self, monkeypatch):
        import recshrink.minimax as mm

        monkeypatch.setattr(mm, "_MAX_NEWTON", 3)
        with pytest.raises(SearchError, match="no root of reg_L - reg_U in 3 Newton levels"):
            self._newton(lambda t: (t, 0.985), lambda t: 0.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_the_domain_ends_decide_whether_a_root_exists(variant):
    """The premise of ``_newton``'s end test, on the 6x6 grid: over _DOMAIN the grid
    residual of alpha* and of K*(0.16) changes sign at most once, so a solve falls
    back exactly when the residual has one sign at both ends."""
    import itertools

    from recshrink.minimax import TABLE_GRID, _DOMAIN, _alpha_search, _shrink_search, _solve

    levels = np.linspace(*_DOMAIN, 15).tolist()
    fallbacks = 0
    for n1, n2 in itertools.product(TABLE_GRID, repeat=2):
        design = DesignPair(n1, n2, variant)
        for search in (_alpha_search(design), _shrink_search(design, 0.16)):
            signs = [np.subtract(*search.grid_sups(t)) > 0.0 for t in levels]
            assert sum(a != b for a, b in itertools.pairwise(signs)) <= 1, (design, signs)
            sol = _solve(search, search.polished_sups, f"{design}")
            assert sol.fallback == (signs[0] == signs[-1]), design
            fallbacks += sol.fallback
    # both sides of the rule occur: the location-scale K* at (7, 2) and (10, 2) fall back
    assert fallbacks == (2 if variant is Variant.LOCATION_SCALE else 0)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_fresh_search_reads_the_solution_at_its_tuned_value(variant):
    """On the 6x6 grid, alpha*, K*(0.16) and K*(0.9) report the sups a fresh search finds
    at the tuned value: no level the solve read before it changes what a level reads.
    At alpha = 0.9 the designs without a pooling advantage at delta = 1 have no K*."""
    import itertools

    from recshrink.minimax import TABLE_GRID, SearchError

    def sups(sol):
        return sol.delta_L, sol.regret_at_L, sol.delta_U, sol.regret_at_U

    solved = 0
    for n1, n2 in itertools.product(TABLE_GRID, repeat=2):
        design = DesignPair(n1, n2, variant)
        sol = optimal_alpha(design)
        assert sup_regret_pt(design, sol.tuned_value) == sups(sol), design
        for alpha in (0.16, 0.9):
            try:
                sol = optimal_k(design, alpha)
            except SearchError as exc:
                assert alpha == 0.9 and "no pooling advantage at delta=1" in str(exc)
                continue
            assert sup_regret_shrink(design, alpha, sol.tuned_value) == sups(sol), (design, alpha)
            solved += 1
    # K*(0.9) solves at 21 known and 21 location-scale designs, (5, 3) known among them
    assert solved == 36 + 21


class TestSolve:
    """The solve path shared by alpha* and K*, on a regret that uses no risk code."""

    WIDTH = 0.3

    @classmethod
    def _humps(cls, humps):
        """regret(delta, t): Gaussian humps in log delta, one per (centre, height(t))."""

        def regret(delta, t):
            z = np.log(delta)
            return sum(h(t) * np.exp(-0.5 * ((z - np.log(c)) / cls.WIDTH) ** 2) for c, h in humps)

        return regret

    @classmethod
    def _honest(cls, humps):
        """bound(t, delta, upper): each hump's largest value at or beyond delta."""

        def bound(t, delta, upper):
            total = 0.0
            for centre, height in humps:
                gap = np.log(delta / centre) if upper else np.log(centre / delta)
                total += height(t) * (np.exp(-0.5 * (gap / cls.WIDTH) ** 2) if gap > 0 else 1.0)
            return total

        return bound

    @classmethod
    def _slope(cls, humps):
        """slope(t, delta): the regret's slope in t, each height's by a central difference.

        The heights these tests pass are linear in t, so the difference is their slope.
        """
        rates = cls._humps([(c, lambda t, h=h: h(t + 0.5) - h(t - 0.5)) for c, h in humps])
        return lambda t, delta: rates(delta, t)

    @classmethod
    def _delta_slope(cls, humps):
        """delta_slope(t, delta): the regret's slope in delta, in closed form."""

        def delta_slope(t, delta):
            z = np.log(delta)
            return sum(-h(t) * np.exp(-0.5 * ((z - np.log(c)) / cls.WIDTH) ** 2)
                       * (z - np.log(c)) / (cls.WIDTH**2 * delta) for c, h in humps)

        return delta_slope

    def test_equalizes_two_analytic_humps(self):
        from collections import Counter

        from recshrink.minimax import _Search, _fixed_grid, _solve

        # humps on either side of the edge 1.0, with heights 0.2 + t and
        # 1 - t that cross at t* = 0.4
        centres, t_star = (0.3, 3.0), 0.4
        humps = ((centres[0], lambda t: 0.2 + t), (centres[1], lambda t: 1.0 - t))
        regret = self._humps(humps)

        grid = _fixed_grid(1.0)
        levels, polished = [], []

        def table(t, nodes):
            levels.append(t)
            return regret(grid[0][nodes], t)

        search = _Search((0.1, 1.0), grid, table, regret, self._honest(humps), self._slope(humps),
                         self._delta_slope(humps))

        def sup(t):
            polished.append(t)
            return search.polished_sups(t)

        sol = _solve(search, sup, "analytic humps")
        assert not sol.fallback
        assert sol.tuned_value == pytest.approx(t_star, abs=1e-6)
        assert sol.delta_L == pytest.approx(centres[0], abs=1e-6)
        assert sol.delta_U == pytest.approx(centres[1], abs=1e-6)
        assert (sol.delta1, sol.delta2) == (0.1, 1.0)
        # Newton and both polishes tabulate every level they read exactly
        # once: the polish at Newton's root reads the level the root already
        # tabulated
        assert len(polished) == 2 and polished[0] in levels[:-1]
        assert set(Counter(levels).values()) == {1}

    def test_a_first_step_out_of_the_domain_still_solves(self):
        from recshrink.minimax import _DOMAIN, _NEWTON_START, _Search, _fixed_grid, _solve

        # heights 0.2 + t^4 and 0.2 + 0.9^4 cross at t* = 0.9; at the start
        # the residual's slope 4 t^3 is so small that Newton's first step
        # leaves _DOMAIN, so the next two levels are its ends
        humps = ((0.3, lambda t: 0.2 + t**4), (3.0, lambda t: 0.2 + 0.9**4))
        rates = self._humps(((0.3, lambda t: 4.0 * t**3), (3.0, lambda t: 0.0)))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0)
        levels = []

        def table(t, nodes):
            levels.append(t)
            return regret(grid[0][nodes], t)

        search = _Search((0.1, 1.0), grid, table, regret, self._honest(humps),
                         lambda t, delta: rates(delta, t), self._delta_slope(humps))
        sol = _solve(search, search.polished_sups, "first step out of the domain")
        assert levels[:3] == [_NEWTON_START, *_DOMAIN]
        assert not sol.fallback
        assert sol.tuned_value == pytest.approx(0.9, abs=1e-6)
        assert sol.regret_at_L == pytest.approx(sol.regret_at_U, rel=1e-9)

    @pytest.mark.parametrize("humps, rates", [
        # a zero slope at the start
        (((0.3, lambda t: 1.0), (3.0, lambda t: 0.5)),
         ((0.3, lambda t: 0.0), (3.0, lambda t: 0.0))),
        # Newton's first step leaves _DOMAIN
        (((0.3, lambda t: 1.0 + (t - 0.6) ** 2), (3.0, lambda t: 0.5 + 0.5 * (t - 0.6) ** 2)),
         ((0.3, lambda t: 2.0 * (t - 0.6)), (3.0, lambda t: t - 0.6))),
    ], ids=["flat", "curved"])
    def test_no_sign_change_ends_in_the_golden_fallback(self, humps, rates):
        from recshrink.minimax import _DOMAIN, _Search, _fixed_grid, _solve
        from recshrink.optim import golden_section_max

        # reg_L stays above reg_U at every level, the ends of _DOMAIN
        # included: the solve is the golden fallback that minimizes the
        # larger height, as if it ran on a search of its own
        regret, slope = self._humps(humps), self._humps(rates)
        grid = _fixed_grid(1.0)

        def search():
            return _Search((0.1, 1.0), grid, lambda t, nodes: regret(grid[0][nodes], t),
                           regret, self._honest(humps), lambda t, delta: slope(delta, t),
                           self._delta_slope(humps))

        solved, alone = search(), search()
        sol = _solve(solved, solved.polished_sups, "no sign change")
        t = golden_section_max(lambda t: -max(alone.grid_sups(t)), *_DOMAIN)[0]
        assert sol.fallback
        assert sol.tuned_value == t
        assert (sol.delta_L, sol.regret_at_L, sol.delta_U, sol.regret_at_U) == \
            alone.polished_sups(t)

    def test_certified_span_finds_a_planted_far_hump(self):
        from recshrink.minimax import _Search, _fixed_grid, _solve

        # the two humps above plus a third of height 0.75 at 1e3 times the
        # edge: the upper sup is max(1 - t, 0.75), which ties 0.2 + t at 0.55
        humps = ((0.3, lambda t: 0.2 + t), (3.0, lambda t: 1.0 - t), (1e3, lambda t: 0.75))
        regret = self._humps(humps)

        grid = _fixed_grid(1.0)

        def solve(bound):
            search = _Search((0.1, 1.0), grid, lambda t, nodes: regret(grid[0][nodes], t),
                             regret, bound, self._slope(humps), self._delta_slope(humps))
            return _solve(search, search.polished_sups, "planted hump")

        full = solve(lambda t, delta, upper: np.inf)  # the whole grid, out to 1e4 times the edge
        assert full.tuned_value == pytest.approx(0.55, abs=1e-6)
        assert full.delta_U == pytest.approx(1e3, rel=1e-6)
        assert solve(self._honest(humps)) == full
        # a span held at 1e2 by a bound that certifies everything misses it
        held = solve(lambda t, delta, upper: 0.0)
        assert held.tuned_value == pytest.approx(0.4, abs=1e-6)
        assert held.delta_U == pytest.approx(3.0, abs=1e-6)


    def test_a_peak_on_the_span_end_widens_the_span(self):
        from recshrink.minimax import _Search, _fixed_grid, _solve

        # a bound that certifies everything, and an upper hump just past
        # 1e2 times the edge: the span's end node is a peak, so the side
        # widens and finds the hump's top as the whole grid does
        humps = ((0.3, lambda t: 0.2 + t), (1.2e2, lambda t: 1.0 - t))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0)

        def solve(bound):
            search = _Search((0.1, 1.0), grid, lambda t, nodes: regret(grid[0][nodes], t),
                             regret, bound, self._slope(humps), self._delta_slope(humps))
            return _solve(search, search.polished_sups, "hump past the span end")

        full = solve(lambda t, delta, upper: np.inf)  # the whole grid
        assert full.delta_U == pytest.approx(1.2e2, rel=1e-6)
        assert solve(lambda t, delta, upper: 0.0) == full

    def test_a_peak_on_the_lower_span_end_widens_the_span(self):
        from recshrink.minimax import _Search, _fixed_grid, _solve

        # the mirror image below the edge: a lower hump just past edge/1e2
        # is the lower side's argmax on the span's end node, so the side
        # widens, although the bound certifies everything
        humps = ((1 / 1.2e2, lambda t: 0.2 + t), (3.0, lambda t: 1.0 - t))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0)

        def solve(bound):
            search = _Search((0.1, 1.0), grid, lambda t, nodes: regret(grid[0][nodes], t),
                             regret, bound, self._slope(humps), self._delta_slope(humps))
            return _solve(search, search.polished_sups, "hump past the lower span end")

        full = solve(lambda t, delta, upper: np.inf)  # the whole grid
        assert full.delta_L == pytest.approx(1 / 1.2e2, abs=1e-6)
        assert solve(lambda t, delta, upper: 0.0) == full

    def test_a_lesser_peak_on_the_span_end_keeps_the_span(self):
        from recshrink.minimax import _TIE_MARGIN, _Search, _fixed_grid, _solve

        # a third hump at 1.02e2 times the edge, 0.995 times as high as the
        # upper one: the span's end node at 1e2 is a peak within the polish's
        # margin, but the honest bound there is below the side's top, so
        # the side keeps its span and the solve is still the whole grid's
        humps = ((0.3, lambda t: 0.2 + t), (3.0, lambda t: 1.0 - t),
                 (1.02e2, lambda t: 0.995 * (1.0 - t)))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0)
        end = 1e2 * (1 + 1e-9)

        def solve(bound):
            reads, polished = {}, []

            def table(t, nodes):
                reads.setdefault(t, []).extend(grid[0][nodes].tolist())
                return regret(grid[0][nodes], t)

            search = _Search((0.1, 1.0), grid, table, regret, bound, self._slope(humps),
                             self._delta_slope(humps))

            def sup(t):
                polished.append(t)
                return search.polished_sups(t)

            return _solve(search, sup, "lesser peak on the span end"), reads, polished

        full, _, _ = solve(lambda t, delta, upper: np.inf)  # the whole grid
        sol, reads, polished = solve(self._honest(humps))
        assert sol == full
        assert sol.delta_U == pytest.approx(3.0, abs=1e-6)
        last = grid[0][grid[0] <= end][-1]  # the upper span's end node
        for t in polished:
            assert regret(last, t) >= (1 - _TIE_MARGIN) * (1.0 - t)
            assert max(reads[t]) <= end

    def test_certified_lower_side_ends_below_delta1(self):
        from recshrink.minimax import _Search, _fixed_grid

        # with delta1 = 0.005 the lower side cannot end at edge/1e2 = 0.01,
        # inside the window, where the tail bound says nothing; it starts at
        # delta1's own node, the cut's end, and the bound certifies the rest
        humps = ((0.3, lambda t: 0.5), (3.0, lambda t: 0.5))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0, split=0.005)
        read = []

        def table(t, nodes):
            read.extend(grid[0][nodes].tolist())
            return regret(grid[0][nodes], t)

        _Search((0.005, 1.0), grid, table, regret, lambda t, delta, upper: 0.0,
                self._slope(humps), self._delta_slope(humps)).grid_sups(0.5)
        assert min(read) == 0.005
        assert 1e2 / 1.02 < max(read) <= 1e2 * (1 + 1e-9)

    def test_a_level_does_not_depend_on_the_levels_read_before_it(self):
        from recshrink.minimax import _START_SPAN, _Search, _fixed_grid

        # a far upper hump at 1e3 times the edge that stands at t = 0.9 alone:
        # there the upper side must widen, while at t = 0.2 the first span
        # certifies, so the level at 0.2 reads the same after 0.9 as alone
        humps = ((0.3, lambda t: 0.5), (3.0, lambda t: 0.5),
                 (1e3, lambda t: 2.0 if t == 0.9 else 0.0))
        regret = self._humps(humps)
        grid = _fixed_grid(1.0)

        def search():
            reads = {}

            def table(t, nodes):
                reads.setdefault(t, []).extend(grid[0][nodes].tolist())
                return regret(grid[0][nodes], t)

            return _Search((0.1, 1.0), grid, table, regret, self._honest(humps),
                           self._slope(humps), self._delta_slope(humps)), reads

        after, reads = search()
        after.grid_sups(0.9)
        assert max(reads[0.9]) > 1e3
        after.grid_sups(0.2)
        assert max(reads[0.2]) <= _START_SPAN * (1 + 1e-9)
        fresh, _ = search()
        fresh.grid_sups(0.2)
        (heights, values, (lo, hi), argmaxes), want = after.levels[0.2], fresh.levels[0.2]
        assert (heights, (lo, hi), argmaxes) == (want[0], want[2], want[3])
        assert values[lo:hi].tolist() == want[1][lo:hi].tolist()


DESIGN_SETS = pytest.mark.parametrize("designs", [
    [DesignPair(a, b, v) for v in Variant for b in (2, 3, 4, 5, 7, 10)
     for a in (2, 3, 4, 5, 7, 10)],
    [DesignPair(a, b, v) for v in Variant for b in (40, 150) for a in (40, 150)],
], ids=["6x6", "40-150"])


class TestCertifiedSpans:
    """Every level an alpha* or K* solve reads is certified by the tail bound, or spans the grid."""

    @staticmethod
    def _record(monkeypatch, name):
        """Wrap the search builder ``name`` to record the nodes and values each level reads.

        Returns the list it fills with (builder args, search, {level: {node: value}}).
        """
        import recshrink.minimax as mm

        build, searches = getattr(mm, name), []

        def recording(*args):
            search = build(*args)
            table, reads = search.table, {}

            def recorded(t, nodes):
                values = table(t, nodes)
                index = np.arange(len(search.grid[0]))[nodes]
                reads.setdefault(t, {}).update(zip(index.tolist(), values.tolist()))
                return values

            search.table = recorded
            searches.append((args, search, reads))
            return search

        monkeypatch.setattr(mm, name, recording)
        return searches

    @DESIGN_SETS
    def test_the_grid_sets_each_levels_first_span(self, designs):
        """``_fixed_grid``'s span: the lower side from the first node at or above
        min(delta1, edge/1e2) for alpha* and edge/1e2 for K*, the upper side to the last
        node at or below 1e2 times the edge; an alpha* lower side starts at or below delta1."""
        from recshrink.minimax import _alpha_search, _shrink_search

        for design in designs:
            for search, cut in ((_alpha_search(design), True),
                                (_shrink_search(design, 0.16), False)):
                deltas, _, (start, stop) = search.grid
                delta1, edge = search.window
                low = min(delta1, edge / 1e2) if cut else edge / 1e2
                assert start == np.flatnonzero(deltas >= low)[0], design
                assert stop == np.flatnonzero(deltas <= edge * 1e2 * (1 + 1e-9))[-1] + 1, design
                if cut:
                    assert deltas[start] <= delta1, design

    @pytest.mark.parametrize("design, alpha", [
        (DesignPair(6, 4), 0.9),                          # delta1 0.75, delta2 609
        (DesignPair(2, 39), 0.5),                         # delta1 7.4e-4, delta2 1.31
        (DesignPair(2, 5, Variant.LOCATION_SCALE), 0.5),  # no lower crossing: delta1 0
    ])
    def test_a_k_search_does_not_read_its_lower_crossing(self, design, alpha):
        """A K* grid is uncut and its first span starts at the first node at or above
        edge/1e2, even where the lower crossing delta1 lies further out."""
        from recshrink.minimax import _shrink_search

        search = _shrink_search(design, alpha)
        deltas, segments, (start, _) = search.grid
        delta1, edge = search.window
        assert delta1 < edge / 1e2
        assert len(segments) == 2
        assert start == np.flatnonzero(deltas >= edge / 1e2)[0]

    @staticmethod
    def _check(search, reads, bound, cut):
        """Assert each level's reads are one run of nodes, certified by ``bound`` or at the cap.

        Every segment of both sides must also keep a node under the level's
        span, since ``_side_scan`` has no branch for an empty one.  With a
        ``cut`` at delta1 (alpha*) a lower side that keeps its span ends at
        or below delta1, since inside the window the bound says nothing;
        without one (K*) it starts at the first node at or above edge/1e2.

        Returns (levels, narrow): how many levels were read, and how many
        of them stopped both sides at 1e2 times the edge.
        """
        deltas, segments, _ = search.grid
        delta1, edge = search.window
        first_upper, last = segments[-1][0], len(deltas) - 1
        levels = narrow = 0
        for t, read in reads.items():
            lo, hi = search.levels[t][2]
            assert all(max(start, lo) < min(stop, hi) for start, stop in segments)
            nodes = sorted(read)
            assert nodes == list(range(nodes[0], nodes[-1] + 1))  # one run around the edge
            lower = [i for i in nodes if i < first_upper]
            upper = [i for i in nodes if i >= first_upper]
            for side, end, cap, is_upper in ((lower, lower[0], 0, False),
                                             (upper, upper[-1], last, True)):
                if end == cap:
                    continue
                values = [read[i] for i in side]
                top = max(values)
                assert bound(t, float(deltas[end]), is_upper) <= top
                assert side[int(np.argmax(values))] != end
                if not is_upper and cut:
                    assert deltas[end] <= delta1
                elif not is_upper:
                    assert end == np.flatnonzero(deltas >= edge / 1e2)[0]
            levels += 1
            narrow += (lower[0] > 0 and deltas[lower[0]] >= edge / 1e2 / (1 + 1e-9)
                       and upper[-1] < last and deltas[upper[-1]] <= edge * 1e2 * (1 + 1e-9))
        return levels, narrow

    @DESIGN_SETS
    def test_every_alpha_level_is_certified(self, monkeypatch, designs):
        import recshrink.minimax as mm
        from recshrink.risk import _tail_bound

        searches = self._record(monkeypatch, "_alpha_search")
        for design in designs:
            mm.optimal_alpha(design)
        # both polishes read the solve's own search: one search per solve
        assert [args for args, _, _ in searches] == [(d,) for d in designs]

        levels = narrow = 0
        for (design,), search, reads in searches:
            counts = self._check(search, reads,
                                 lambda a, delta, upper: _tail_bound(design, a, delta, upper),
                                 cut=True)
            levels, narrow = levels + counts[0], narrow + counts[1]
        # most levels stop both sides at 1e2 times the edge, so the checks
        # above do not just read the whole grid
        assert narrow > levels / 2

    @DESIGN_SETS
    def test_every_k_level_is_certified(self, monkeypatch, designs):
        import recshrink.minimax as mm
        from recshrink.risk import _tail_bound

        searches = self._record(monkeypatch, "_shrink_search")
        # tables 2 and 3: K* at alpha = 0.16 and at alpha*
        cells = (mm.generate_tables(mm.TableCase.K_FIXED_ALPHA, designs, alpha=0.16)
                 + mm.generate_tables(mm.TableCase.K_OPTIMAL_ALPHA, designs))
        assert not [c for c in cells if c.error]
        alphas = [0.16] * len(designs) + [c.alpha_star for c in cells[len(designs):]]
        assert [args for args, _, _ in searches] == list(zip(designs + designs, alphas))

        levels = narrow = 0
        for (design, alpha), search, reads in searches:
            counts = self._check(search, reads,
                                 lambda k, delta, upper: _tail_bound(design, alpha, delta, upper),
                                 cut=False)
            levels, narrow = levels + counts[0], narrow + counts[1]
        assert narrow > levels / 2


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

    @pytest.mark.parametrize("variant, n1, n2, fallback", [
        (Variant.KNOWN_LOCATION, 5, 6, None),
        (Variant.LOCATION_SCALE, 7, 2, "K* at alpha=0.16"),
        (Variant.LOCATION_SCALE, 10, 2, "K* at alpha=0.16"),
    ])
    def test_regret_level_is_the_larger_maximum(self, variant, n1, n2, fallback):
        design = DesignPair(n1, n2, variant)
        (cell,) = generate_tables(TableCase.K_FIXED_ALPHA, designs=[design], alpha=0.16)
        sol = optimal_k(design, 0.16)
        assert cell.fallback == fallback
        assert sol.fallback is (fallback is not None)
        assert cell.regret_level == max(sol.regret_at_L, sol.regret_at_U)
        if fallback:
            # no equalizer: the two maxima differ by far more than rounding
            assert sol.regret_at_L > 1.2 * sol.regret_at_U
        else:
            assert cell.regret_level == pytest.approx(sol.regret_at_L, rel=1e-6)

    def test_chained_fallback_flag(self):
        # alpha* equalizes at location-scale (5, 2) but K*(alpha*) does not
        design = DesignPair(5, 2, Variant.LOCATION_SCALE)
        (cell,) = generate_tables(TableCase.K_OPTIMAL_ALPHA, designs=[design])
        assert not optimal_alpha(design).fallback
        assert cell.fallback == "K*(alpha*)"

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
    def test_every_cell_solves(self, case, frozen_table):
        from recshrink.minimax import TABLE_GRID
        from recshrink.records import Variant

        designs = [DesignPair(a, b, Variant.LOCATION_SCALE)
                   for b in TABLE_GRID for a in TABLE_GRID]
        cells = generate_tables(case, designs)
        assert len(cells) == 36
        assert [c for c in cells if c.error] == []
        if case is TableCase.K_OPTIMAL_ALPHA:
            frozen_table("tables 3 --variant locscale", [vars(c) for c in cells])


class TestFrozenTables:
    # the location-scale tables 2 and 3 are checked where test_cli.py and
    # TestLocationScaleTables compute them
    @pytest.mark.parametrize("key, case, variant, grid", [
        ("tables 2 --alpha 0.16 --variant known",
         TableCase.K_FIXED_ALPHA, Variant.KNOWN_LOCATION, None),
        ("tables 3 --variant known", TableCase.K_OPTIMAL_ALPHA, Variant.KNOWN_LOCATION, None),
        ("tables 3 --grid 40,150 --variant known",
         TableCase.K_OPTIMAL_ALPHA, Variant.KNOWN_LOCATION, (40, 150)),
        ("tables 3 --grid 40,150 --variant locscale",
         TableCase.K_OPTIMAL_ALPHA, Variant.LOCATION_SCALE, (40, 150)),
    ], ids=["2-known", "3-known", "3-large-known", "3-large-locscale"])
    def test_cells_match_the_frozen_output(self, key, case, variant, grid, frozen_table):
        from recshrink.minimax import TABLE_GRID

        grid = grid or TABLE_GRID
        cells = generate_tables(case, [DesignPair(a, b, variant) for b in grid for a in grid])
        frozen_table(key, [vars(c) for c in cells])


def _sample_designs(count=8, seed=20261018):
    """Seeded (n1, n2) pairs, log-uniform in [2, 150], plus six fixed ones.

    (5, 2) and (10, 7) are published cells whose alpha* lower sup sits on the
    jump at delta1; (150, 150) is the largest seeded range's corner, and
    (400, 400), (1000, 300) and (600, 1000) are designs whose K* window the
    pre-test risk's rounding against 1/n1 once hid.
    """
    rng = np.random.default_rng(seed)
    sizes = np.rint(np.exp(rng.uniform(np.log(2.0), np.log(150.0), (count, 2))))
    return [tuple(int(n) for n in pair) for pair in sizes] + [
        (5, 2), (10, 7), (150, 150), (400, 400), (1000, 300), (600, 1000)]


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
        from recshrink.records import Variant
        from recshrink.risk import risk_k_coefficients_grid

        d = DesignPair(n1, n2, Variant(variant))
        sol_a = optimal_alpha(d)
        alpha = sol_a.tuned_value
        if not sol_a.fallback:
            def pt_regret(g):
                # from the public kernels: r0 strictly inside the window, h0 = r1 = 1/n1 outside
                h2, h1, h0 = risk_k_coefficients_grid(d, g, alpha)
                inside = (g > sol_a.delta1) & (g < sol_a.delta2)
                ref = np.where(inside, boundary_risks(d, g)[0], h0)
                return np.maximum(0.0, h2 + h1 + h0 - ref)

            _assert_sups_dominate_scan(sol_a, pt_regret)
        sol_k = optimal_k(d, alpha)
        if not sol_k.fallback:
            k = sol_k.tuned_value

            def shrink_regret(g):
                # from the public kernel: rmin is the least of h0, h2 + h1 + h0 and
                # the vertex where the quadratic in k turns inside (0, 1)
                h2, h1, h0 = risk_k_coefficients_grid(d, g, alpha)
                rmin = np.minimum(h0, h2 + h1 + h0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    k0 = -h1 / (2.0 * h2)
                    vertex = h0 - h1 * h1 / (4.0 * h2)
                inside = (h2 > 0.0) & (k0 > 0.0) & (k0 < 1.0)
                rmin = np.where(inside, np.minimum(rmin, vertex), rmin)
                return np.maximum(0.0, h2 * k * k + h1 * k + h0 - rmin)

            _assert_sups_dominate_scan(sol_k, shrink_regret)


def _ternary_max(f, lo, hi, steps=100):
    """Argmax of a unimodal f on [lo, hi] by ternary search, to (2/3)^steps of the width."""
    for _ in range(steps):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(a) < f(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)


class TestPeakPositions:
    """Each reported peak position is the regret's argmax to 1e-7 relative.

    The cells' peaks are interior to their segment of the delta axis and curved
    enough for the regret's rounding to leave the argmax clear at that width: on
    the flattest humps of the 6x6 grids the rounding alone blurs it by about 2e-7.
    """

    @pytest.mark.parametrize("variant, n1, n2, tuning", [
        (Variant.KNOWN_LOCATION, 5, 10, "alpha*"),
        (Variant.KNOWN_LOCATION, 3, 4, "K*"),
        (Variant.KNOWN_LOCATION, 10, 4, "K*"),
        (Variant.LOCATION_SCALE, 7, 2, "alpha*"),
        (Variant.LOCATION_SCALE, 4, 7, "alpha*"),
        (Variant.LOCATION_SCALE, 3, 10, "K*"),
        (Variant.LOCATION_SCALE, 7, 7, "K*"),
    ])
    def test_peaks_lie_within_1e_7_of_the_argmax(self, variant, n1, n2, tuning):
        from recshrink.minimax import _PER_DECADE

        step = 10.0 ** (1 / _PER_DECADE)
        d = DesignPair(n1, n2, variant)
        if tuning == "alpha*":
            sol = optimal_alpha(d)
            regret = lambda delta: regret_pt(d, delta, sol.tuned_value)
            # the lower side is cut at delta1, where the alpha regret jumps
            cuts = (sol.delta1, sol.delta2)
        else:
            sol = optimal_k(d, 0.16)
            regret = lambda delta: regret_shrink(d, delta, 0.16, sol.tuned_value)
            cuts = (sol.delta2,)
        assert not sol.fallback
        for peak in (sol.delta_L, sol.delta_U):
            # two grid steps either side, inside the peak's segment
            lo, hi = peak / step**2, peak * step**2
            assert not any(lo <= cut <= hi for cut in cuts)
            ref = _ternary_max(regret, lo, hi)
            assert lo * step < ref < hi / step
            assert abs(peak - ref) <= 1e-7 * ref


def _count_polishes(monkeypatch):
    """Wrap the polish's golden-section search to record each call's bracket and evaluations."""
    import recshrink.minimax as mm

    golden, calls = mm.golden_section_max, []

    def counted(f, lo, hi):
        calls.append([lo, hi, 0])

        def g(x):
            calls[-1][2] += 1
            return f(x)

        return golden(g, lo, hi)

    monkeypatch.setattr(mm, "golden_section_max", counted)
    return calls


def test_a_polish_reads_at_most_12_scalar_regrets_on_average(monkeypatch):
    """Over one table-3 pass on the {2, 3} grid, each polish of a regret peak averages
    at most 12 scalar regret evaluations (golden section alone took about 27)."""
    calls = _count_polishes(monkeypatch)
    cells = generate_tables(TableCase.K_OPTIMAL_ALPHA,
                            [DesignPair(a, b) for b in (2, 3) for a in (2, 3)])
    # no cell falls back, so every maximization is a polish
    assert [c.fallback for c in cells] == [None] * 4
    assert sum(n for _, _, n in calls) / len(calls) <= 12.0


def test_an_alpha_peak_on_the_jump_is_its_node_unpolished(monkeypatch):
    """On the {2, 3} grid the alpha* lower peaks of (2, 2), (3, 2) and (3, 3) sit on the
    first node past delta1, where the regret falls away from its jump: each is that
    node, and no polish brackets it."""
    import recshrink.minimax as mm

    calls = _count_polishes(monkeypatch)
    solve, solutions = mm.optimal_alpha, {}

    def recorded(design):
        solutions[design.n1, design.n2] = sol = solve(design)
        return sol

    monkeypatch.setattr(mm, "optimal_alpha", recorded)
    generate_tables(TableCase.K_OPTIMAL_ALPHA, [DesignPair(a, b) for b in (2, 3) for a in (2, 3)])
    for n1, n2 in ((2, 2), (3, 2), (3, 3)):
        sol = solutions[n1, n2]
        node = sol.delta1 * (1.0 + 1e-9)
        assert sol.delta_L == node
        assert sol.regret_at_L == regret_pt(DesignPair(n1, n2), node, sol.tuned_value)
        assert not any(lo <= node <= hi for lo, hi, _ in calls), (n1, n2)


@pytest.mark.parametrize("variant", list(Variant))
def test_the_regret_slope_in_delta_matches_central_differences(variant):
    """Each search's delta_slope is the slope of its own scalar regret, inside the alpha
    window and out of it, wherever the regret is positive and smooth."""
    from recshrink.minimax import _alpha_search, _inf_quadratic, _shrink_search
    from recshrink.risk import risk_k_coefficients

    design = DesignPair(5, 6, variant)
    alpha = _alpha_search(design)
    shrink = _shrink_search(design, 0.16)

    def smooth(search, t, lo, hi):
        # no window edge between the two points, and for K* one inner minimizer
        if any(lo <= edge <= hi for edge in search.window):
            return False
        return search is alpha or len({_inf_quadratic(*risk_k_coefficients(design, d, 0.16))[0]
                                       for d in (lo, hi)}) == 1

    checked = 0
    for search, t in ((alpha, 0.16), (alpha, 0.5), (shrink, 0.2), (shrink, 0.6)):
        for delta in np.geomspace(search.window[1] / 30, search.window[1] * 30, 17).tolist():
            h = 1e-6 * delta
            up, down = search.regret(delta + h, t), search.regret(delta - h, t)
            if min(up, down) > 1e-6 and smooth(search, t, delta - h, delta + h):
                assert search.delta_slope(t, delta) == \
                    pytest.approx((up - down) / (2.0 * h), rel=1e-5, abs=1e-9), (t, delta)
                checked += 1
    assert checked >= 30


@pytest.mark.parametrize("variant", list(Variant))
def test_a_kept_segment_end_beats_its_old_polish(monkeypatch, variant):
    """Every segment end a polish keeps for its slope in delta is at least as high as
    golden-section search finds over the bracket it would have polished, for alpha*
    and K*(0.16) on the 6x6 grid."""
    import recshrink.minimax as mm
    from recshrink.minimax import TABLE_GRID
    from recshrink.optim import golden_section_max

    kept = []

    def recording(build):
        def wrapped(*args):
            search = build(*args)
            deltas, segments, _ = search.grid
            inner = search.delta_slope

            def delta_slope(t, delta):
                dr = inner(t, delta)
                _, values, (lo, hi), _ = search.levels[t]
                i = int(np.searchsorted(deltas, delta))
                start, stop = next((max(a, lo), min(b, hi)) for a, b in segments if a <= i < b)
                # the bracket its polish took: the node and its neighbour inside the segment
                if i == start and dr <= 0.0:
                    bracket = deltas[i], deltas[min(i + 1, stop - 1)]
                elif i == stop - 1 and dr >= 0.0:
                    bracket = deltas[max(i - 1, start)], deltas[i]
                else:
                    return dr
                kept.append((search.regret, t, *bracket, values[i]))
                return dr

            search.delta_slope = delta_slope
            return search

        return wrapped

    monkeypatch.setattr(mm, "_alpha_search", recording(mm._alpha_search))
    monkeypatch.setattr(mm, "_shrink_search", recording(mm._shrink_search))
    for n1 in TABLE_GRID:
        for n2 in TABLE_GRID:
            design = DesignPair(n1, n2, variant)
            optimal_alpha(design)
            optimal_k(design, 0.16)
    # 38 nodes at known location, all of them alpha* lower peaks on delta1's jump;
    # under location-scale one K* upper peak on the first node past delta2
    assert len(kept) >= (38 if variant is Variant.KNOWN_LOCATION else 1)
    for regret, t, lo, hi, value in kept:
        assert golden_section_max(lambda d: regret(d, t), lo, hi)[1] <= value, (t, lo, hi)


LARGE_GRID = (400, 600, 1000)


class TestLargeDesigns:
    """From n of about 400 the K* window's excess over 1/n1 is below half an ulp of 1/n1
    at delta = 2, so the crossings are searched on h2 + h1 itself, from delta = 1."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", [400, 600, 1000, 2000])
    def test_crossings_lie_close_to_one(self, n, variant):
        lo, hi = pt_risk_crossings(DesignPair(n, n, variant), 0.16)
        assert 0.9 < lo < 1.0 < hi < 1.1

    def test_table_3_solves_every_cell(self):
        for variant in Variant:
            cells = generate_tables(TableCase.K_OPTIMAL_ALPHA,
                                    [DesignPair(a, b, variant)
                                     for b in LARGE_GRID for a in LARGE_GRID])
            assert [(c.n1, c.n2, c.error, c.fallback) for c in cells
                    if c.error or c.fallback] == []

    @pytest.mark.parametrize("variant", list(Variant))
    def test_k_star_equalizes_at_3000(self, variant):
        # the one Newton step on the polished residual takes the slopes of the
        # two polished peaks, and brings it to about 6e-6 relative here
        sol = optimal_k(DesignPair(3000, 3000, variant), 0.16)
        assert not sol.fallback
        assert abs(sol.regret_at_L - sol.regret_at_U) <= 1e-5 * sol.regret_at_U

    @pytest.mark.parametrize("variant", list(Variant))
    def test_alpha_star_equalizes_at_5000(self, variant):
        # the grid misses the narrow upper hump by 2.4 %, so the first Newton
        # step on the polished residual leaves about 2e-4 relative; a second
        # step brings it to about 1.5e-8
        sol = optimal_alpha(DesignPair(5000, 5000, variant))
        assert not sol.fallback
        assert abs(sol.regret_at_L - sol.regret_at_U) <= 1e-7 * sol.regret_at_U

    def test_k_star_sups_are_the_exact_regret(self):
        from fractions import Fraction

        from exact_risk import exact_coefficients

        from recshrink.estimators import critical_values

        design, alpha = DesignPair(400, 400), 0.16
        sol = optimal_k(design, alpha)
        c1, c2 = critical_values(design, alpha)
        k = Fraction(sol.tuned_value)
        for delta, got in ((sol.delta_L, sol.regret_at_L), (sol.delta_U, sol.regret_at_U)):
            h2, h1, h0 = exact_coefficients(400, 400, True, c1, c2, delta)
            rmin = min(h0, h2 + h1 + h0)
            if h2 > 0 and 0 < -h1 / (2 * h2) < 1:
                rmin = min(rmin, h0 - h1 * h1 / (4 * h2))
            want = h2 * k * k + h1 * k + h0 - rmin
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: a K* sup beyond the grid cap goes unreported")
def test_k_star_sup_beyond_the_grid_cap_is_reported():
    # at alpha = 1e-30 the K* solve falls back to k = 0.01 and its upper side
    # stops at the cap, 1e4 times the edge, where the regret still rises:
    # it reports 7.2e3 there, while the regret at delta = 1e6 is 3.1e7
    alpha = 1e-30
    sol = optimal_k(D56, alpha)
    assert max(sol.regret_at_L, sol.regret_at_U) >= regret_shrink(D56, 1e6, alpha,
                                                                  sol.tuned_value)


class TestSearchErrorsNameInputs:
    def test_optimal_k_error_names_design_and_level(self, monkeypatch):
        import recshrink.minimax as mm

        # polished sups that never equalize
        monkeypatch.setattr(mm, "sup_regret_shrink", lambda *args: (0.5, 0.1, 5.0, 0.3))
        with pytest.raises(SearchError, match=r"K\* at design \(5, 6\) known, alpha=0\.16: "
                                              r"regret maxima not equalized"):
            mm.optimal_k(D56, 0.16)

    def test_a_correction_stays_in_the_domain(self, monkeypatch):
        import recshrink.minimax as mm

        # the Newton step on the polished sups at (2, 2) location-scale,
        # alpha = 0.99, points below k = 0; clamped to _DOMAIN, the solve
        # ends in a SearchError that names the design, not in check_k's
        # ValueError
        sup, levels = mm.sup_regret_shrink, []
        monkeypatch.setattr(mm, "sup_regret_shrink",
                            lambda design, alpha, k, search: levels.append(k)
                            or sup(design, alpha, k, search))
        with pytest.raises(SearchError, match=r"K\* at design \(2, 2\) locscale, alpha=0\.99: "
                                              r"regret maxima not equalized"):
            mm.optimal_k(DesignPair(2, 2, Variant.LOCATION_SCALE), 0.99)
        assert len(levels) == 3
        assert all(mm._DOMAIN[0] <= k <= mm._DOMAIN[1] for k in levels)

    def test_optimal_alpha_error_names_design(self, monkeypatch):
        import recshrink.minimax as mm

        monkeypatch.setattr(mm, "sup_regret_pt", lambda *args: (0.5, 0.1, 5.0, 0.3))
        with pytest.raises(SearchError, match=r"alpha\* at design \(5, 6\) known: "):
            mm.optimal_alpha(D56)
