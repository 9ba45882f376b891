"""Special-function accuracy against frozen high-precision values, scipy, and
quadrature, plus the randomized identities the rest of the package leans on."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special as sp

from recshrink import special
from recshrink.special import (
    f_quantile,
    inv_reg_inc_beta,
    log_beta,
    reg_inc_beta,
    reg_inc_beta_grid,
)

# 40-digit values computed with mpmath ahead of time
LOG_BETA_25_35 = -3.3018352699620526
REG_03_25_35 = 0.29675298929566640
INV_025_5_6 = 0.35068081415624408
FQ_095_10_12 = 2.7533867688358545


class TestLogBeta:
    def test_unit_shapes(self):
        assert log_beta(1.0, 1.0) == 0.0

    def test_integer_shapes(self):
        # B(2,3) = 1!2!/4! = 1/12
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), abs=1e-14)

    def test_frozen_value(self):
        assert log_beta(2.5, 3.5) == pytest.approx(LOG_BETA_25_35, abs=1e-12)

    def test_quadrature_oracle(self):
        val, err = integrate.quad(lambda t: t**1.5 * (1 - t) ** 2.5, 0.0, 1.0,
                                  epsabs=1e-14, epsrel=1e-13)
        assert math.exp(log_beta(2.5, 3.5)) == pytest.approx(val, rel=1e-11)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-2.0, 3.0), (1.0, 0.0), (1.0, -0.5),
                                     (math.nan, 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            log_beta(a, b)

    def test_large_shapes_match_lgamma_identity(self):
        # 12 significant digits up to shapes of 1e4
        for a, b in [(100.0, 2.5), (5000.0, 5000.0), (1e4, 1e4), (1e4, 0.5)]:
            expect = float(sp.betaln(a, b))
            assert log_beta(a, b) == pytest.approx(expect, rel=1e-12)


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 5.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 5.0) == 1.0

    @pytest.mark.parametrize("a", [0.7, 1.0, 3.0, 17.5])
    def test_symmetric_midpoint(self, a):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_analytic_power_case(self):
        # I_x(1, b) = 1 - (1-x)^b
        assert reg_inc_beta(0.3, 1.0, 4.0) == pytest.approx(1.0 - 0.7**4, abs=1e-13)

    def test_frozen_value(self):
        assert reg_inc_beta(0.3, 2.5, 3.5) == pytest.approx(REG_03_25_35, abs=1e-12)

    def test_quadrature_oracle(self):
        val, _ = integrate.quad(lambda t: t**1.5 * (1 - t) ** 2.5, 0.0, 0.3,
                                epsabs=1e-15, epsrel=1e-13)
        assert reg_inc_beta(0.3, 2.5, 3.5) == pytest.approx(
            val / math.exp(log_beta(2.5, 3.5)), abs=1e-12
        )

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_x_domain_errors(self, x):
        with pytest.raises(ValueError):
            reg_inc_beta(x, 2.0, 3.0)

    def test_shape_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 3.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 2.0, -1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(0.0, 1.0),
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
    )
    def test_symmetry_identity(self, x, a, b):
        # build an exactly complementary float pair (Sterbenz: 1-hi is exact
        # for hi >= 0.5) so the identity is tested free of input rounding
        hi = max(x, 1.0 - x)
        lo = 1.0 - hi
        assert reg_inc_beta(lo, a, b) + reg_inc_beta(hi, b, a) == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.5, 50.0), b=st.floats(0.5, 50.0))
    def test_strictly_increasing_on_grid(self, a, b):
        xs = np.linspace(0.01, 0.99, 60)
        vals = reg_inc_beta_grid(xs, a, b)
        assert np.all(np.diff(vals) >= 0.0)
        # strict increase wherever the CDF has not saturated to 0 or 1
        # at double precision
        live = (vals > 1e-14) & (vals < 1.0 - 1e-14)
        interior = live[:-1] & live[1:]
        assert np.all(np.diff(vals)[interior] > 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(1e-4, 1.0 - 1e-4),
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
    )
    def test_matches_scipy(self, x, a, b):
        assert reg_inc_beta(x, a, b) == pytest.approx(float(sp.betainc(a, b, x)), abs=1e-12)

    def test_series_branch_tiny_x(self):
        # small-x path agrees with scipy deep in the lower tail; integer
        # shapes take the binomial sum, the others the continued fraction
        for a, b, x in [(3.0, 4.0, 1e-9), (0.6, 20.0, 1e-6), (12.0, 2.0, 1e-4),
                        (3.5, 4.0, 1e-9)]:
            mine = reg_inc_beta(x, a, b)
            ref = float(sp.betainc(a, b, x))
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
        depth=st.floats(0.0, 300.0, exclude_min=True),
        upper=st.booleans(),
    )
    @example(a=0.5, b=0.5, depth=13.0, upper=True)  # scipy's direct value misses by 2.9e-10
    def test_continued_fraction_deep_in_a_tail(self, a, b, depth, upper):
        # non-integer shapes with x*(a+b+2) < 0.3*(a+1), or the mirror image
        # in the upper tail, all go through the continued fraction
        assume(not (a.is_integer() and b.is_integer()))
        if upper:
            x = 1.0 - 0.3 * (b + 1.0) / (a + b + 2.0) * 10.0**-depth
            # scipy loses digits near x = 1; its mirror is exact there, as 1 - x is
            ref = 1.0 - float(sp.betainc(b, a, 1.0 - x))
        else:
            x = 0.3 * (a + 1.0) / (a + b + 2.0) * 10.0**-depth
            ref = float(sp.betainc(a, b, x))
        assert reg_inc_beta(x, a, b) == pytest.approx(ref, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("a, b", [(0.7, 40.0), (2.5, 3.5), (49.5, 0.5), (3.0, 4.5)])
    def test_endpoints_non_integer_shapes(self, a, b):
        # beta_front is 0 at both ends, so the continued fraction gives 0 and 1 exactly
        assert reg_inc_beta(0.0, a, b) == 0.0
        assert reg_inc_beta(1.0, a, b) == 1.0
        assert reg_inc_beta_grid(np.array([0.0, 1.0]), a, b).tolist() == [0.0, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 1.0), a=st.integers(1, 200), b=st.integers(1, 200))
    @example(x=5 / 10, a=5, b=6)  # branch switch x = a/(a+b-1)
    @example(x=2 / 11, a=2, b=10)
    @example(x=150 / 300, a=150, b=151)
    @example(x=152 / 301, a=152, b=150)
    @example(x=1e-300, a=3, b=4)
    @example(x=1e-300, a=1, b=200)
    @example(x=1.0 - 1e-16, a=4, b=3)
    @example(x=1.0 - 1e-16, a=200, b=1)
    @example(x=0.49, a=152, b=150)
    def test_integer_shapes_binomial_sum(self, x, a, b):
        # integer shapes take the finite binomial sum, as ints or as
        # integer-valued floats (the F quantiles pass df/2 as a float)
        ref = float(sp.betainc(a, b, x))
        scalar = reg_inc_beta(x, a, b)
        grid = float(reg_inc_beta_grid(np.array([x]), float(a), float(b))[0])
        assert scalar == pytest.approx(ref, abs=1e-13)
        assert grid == pytest.approx(ref, abs=1e-13)
        assert grid == pytest.approx(scalar, abs=1e-13)
        hi = max(x, 1.0 - x)
        lo = 1.0 - hi
        assert reg_inc_beta(lo, a, b) + reg_inc_beta(hi, b, a) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_grid_matches_scalar(self):
        xs = np.concatenate([[0.0, 1.0], np.geomspace(1e-8, 0.999, 200)])
        for a, b in [(2.0, 3.0), (0.7, 40.0), (12.0, 13.0)]:
            grid = reg_inc_beta_grid(xs, a, b)
            scal = np.array([reg_inc_beta(float(x), a, b) for x in xs])
            np.testing.assert_allclose(grid, scal, rtol=0.0, atol=1e-13)

    def test_grid_domain_error(self):
        with pytest.raises(ValueError):
            reg_inc_beta_grid(np.array([0.5, 1.5]), 2.0, 3.0)
        for a, b in [(0.0, 3.0), (2.0, -1.0), (math.nan, 3.0)]:
            with pytest.raises(ValueError, match="beta shapes must be positive"):
                reg_inc_beta_grid(np.array([0.5]), a, b)

    @pytest.mark.parametrize("call", [
        lambda: reg_inc_beta(0.5, 1e6 + 0.5, 1e6 + 0.5),
        lambda: reg_inc_beta_grid(np.array([0.5]), 1e6 + 0.5, 1e6 + 0.5),
    ], ids=["scalar", "grid"])
    def test_continued_fraction_that_does_not_converge_raises(self, call):
        # non-integer shapes this large need more than _MAX_CF_ITER steps
        with pytest.raises(ArithmeticError,
                           match=r"did not converge \(a=1000000.5, b=1000000.5, x=0.5\)"):
            call()


class TestInverse:
    def test_endpoints(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    @pytest.mark.parametrize("a", [0.8, 3.0, 25.0])
    def test_symmetric_median(self, a):
        assert inv_reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_analytic_power_case(self):
        assert inv_reg_inc_beta(1.0 - 0.7**4, 1.0, 4.0) == pytest.approx(0.3, abs=1e-12)

    def test_frozen_value(self):
        assert inv_reg_inc_beta(0.25, 5.0, 6.0) == pytest.approx(INV_025_5_6, abs=1e-10)

    def test_residual_contract(self):
        for p, a, b in [(0.25, 5.0, 6.0), (0.999, 2.0, 7.0), (1e-6, 1.5, 30.0)]:
            x = inv_reg_inc_beta(p, a, b)
            assert abs(reg_inc_beta(x, a, b) - p) <= 1e-10

    @pytest.mark.parametrize("p", [-0.1, 1.0001, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            inv_reg_inc_beta(p, 2.0, 3.0)

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (2.0, -1.0), (math.nan, 3.0)])
    def test_shape_domain_errors(self, a, b):
        with pytest.raises(ValueError, match="beta shapes must be positive"):
            inv_reg_inc_beta(0.5, a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(1e-6, 1.0 - 1e-6),
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
    )
    def test_round_trip(self, x, a, b):
        p = reg_inc_beta(x, a, b)
        if p == 0.0 or p == 1.0:
            return  # CDF saturated: the inverse cannot see past float resolution
        # rounding p to a double smears x by about ulp(p)/pdf(x); allow for it
        lpdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
        quant = (1.2e-16 + 1e-13 * min(p, 1.0 - p)) / max(math.exp(lpdf), 1e-300)
        assert inv_reg_inc_beta(p, a, b) == pytest.approx(x, abs=1e-8 + quant)


    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(math.log(1e-323), math.log(0.5)).map(math.exp),
        a=st.integers(1, 200),
        b=st.integers(1, 200),
    )
    @example(p=1e-315, a=1, b=1)  # a subnormal quantile: the stop tests must be relative
    def test_closed_form_shapes_down_to_subnormal_p(self, p, a, b):
        # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b invert in closed form
        for shapes, ref in [((a, 1), math.exp(math.log(p) / a)),
                            ((1, b), -math.expm1(math.log1p(-p) / b))]:
            if ref == 0.0:
                continue  # the quantile itself underflows
            x = inv_reg_inc_beta(p, *shapes)
            assert abs(x - ref) <= 1e-12 * ref + 1e-323, (shapes, x, ref)

    @pytest.mark.parametrize("p, a, b", [(4.3e-238, 0.658, 0.0516), (5e-324, 1.0, 3.0)])
    def test_underflowing_quantile_is_zero(self, p, a, b):
        # the quantiles, 9.2e-360 and 1.6e-324, lie below half the smallest subnormal
        assert inv_reg_inc_beta(p, a, b) == 0.0


class TestShapeRule:
    """``log_beta`` holds the one shape rule, and every route reads it first."""

    @pytest.fixture(autouse=True)
    def no_continued_fraction(self, monkeypatch):
        # a rejected shape is reported at once, before any series is summed
        def fail(*args):
            raise AssertionError(f"continued fraction reached with {args}")
        monkeypatch.setattr(special, "_betacf", fail)

    @pytest.mark.parametrize("call", [
        lambda: log_beta(math.inf, 2.0),
        lambda: log_beta(2.0, math.inf),
        lambda: reg_inc_beta(0.5, math.inf, 3.0),
        lambda: reg_inc_beta_grid([0.5], 2.0, math.inf),
        lambda: inv_reg_inc_beta(0.3, math.inf, 3.0),
    ], ids=["log_beta", "log_beta_b", "reg_inc_beta", "grid", "inverse"])
    def test_infinite_shapes_rejected(self, call):
        with pytest.raises(ValueError, match="beta shapes must be positive"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: reg_inc_beta(1.5, 0.0, 3.0),
        lambda: reg_inc_beta(math.nan, 2.0, -1.0),
        lambda: reg_inc_beta_grid(np.array([]), 0.0, 3.0),
        lambda: reg_inc_beta_grid(np.array([0.5, 1.5]), 2.0, math.nan),
        lambda: inv_reg_inc_beta(0.0, -1.0, 3.0),
        lambda: inv_reg_inc_beta(1.0, -1.0, 3.0),
        lambda: inv_reg_inc_beta(0.9, 3.0, -1.0),
        lambda: inv_reg_inc_beta(-0.5, 2.0, 0.0),
    ], ids=["x_outside", "x_nan", "grid_empty", "grid_x_outside",
            "p_zero", "p_one", "p_mirrored", "p_outside"])
    def test_shape_reported_before_x_or_p(self, call):
        with pytest.raises(ValueError, match="beta shapes must be positive"):
            call()


class TestFQuantile:
    @pytest.mark.parametrize("d", [2.0, 9.0, 24.0])
    def test_equal_df_median(self, d):
        assert f_quantile(0.5, d, d) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert f_quantile(0.95, 10.0, 12.0) == pytest.approx(FQ_095_10_12, rel=1e-10)

    def test_scipy_oracle(self):
        from scipy.stats import f as fdist

        for p, d1, d2 in [(0.95, 10, 12), (0.08, 10, 12), (0.5, 3, 7), (0.99, 1, 1),
                          (0.005, 300, 80), (0.995, 300, 300), (0.08, 298, 78)]:
            assert f_quantile(p, d1, d2) == pytest.approx(
                float(fdist.ppf(p, d1, d2)), rel=1e-9
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_p_domain_errors(self, p):
        with pytest.raises(ValueError):
            f_quantile(p, 4.0, 4.0)

    def test_quantile_beyond_double_precision_is_infinite(self):
        # the beta inverse returns exactly 1 one ulp below p = 1
        assert f_quantile(1.0 - 2.0**-53, 2.0, 1.0) == math.inf

    def test_df_domain_errors(self):
        with pytest.raises(ValueError):
            f_quantile(0.5, 0.0, 4.0)
        with pytest.raises(ValueError):
            f_quantile(0.5, 4.0, -2.0)

    @pytest.mark.parametrize("d1, d2", [(math.inf, 6.0), (6.0, math.inf), (math.nan, 6.0)])
    def test_df_must_be_finite(self, d1, d2):
        with pytest.raises(ValueError, match="degrees of freedom must be positive and finite"):
            f_quantile(0.3, d1, d2)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(0.02, 0.98),
        d1=st.floats(1.0, 60.0),
        d2=st.floats(1.0, 60.0),
    )
    def test_reciprocal_identity(self, p, d1, d2):
        q = f_quantile(p, d1, d2)
        q_flip = f_quantile(1.0 - p, d2, d1)
        assert q * q_flip == pytest.approx(1.0, rel=1e-9)
