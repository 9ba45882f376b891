"""Estimator arithmetic, the pre-test decision, and their invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import f as fdist

from recshrink.estimators import (
    EstimationInput,
    Target,
    critical_values,
    equal_scale_test,
    pooled,
    preliminary_test,
    shrinkage,
)
from recshrink.records import DesignPair, RecordSample, Variant, mle_scale
from recshrink.risk import shrink_risk

# F_{(10,12)} quantiles at 0.08 and 0.92, frozen from mpmath
C1_56_016 = 0.40340319624961880
C2_56_016 = 2.3646477425343958

EXAMPLE = EstimationInput(
    1.0705, 0.72625, DesignPair(8, 8, Variant.LOCATION_SCALE)
)


def _inp(t1, t2, n1, n2, variant=Variant.KNOWN_LOCATION):
    return EstimationInput(t1, t2, DesignPair(n1, n2, variant))


class TestCriticalValues:
    def test_alpha_one_collapses_region(self):
        c1, c2 = critical_values(DesignPair(4, 7), 1.0)
        assert c1 == pytest.approx(c2, rel=1e-12)

    def test_frozen_values(self):
        c1, c2 = critical_values(DesignPair(5, 6), 0.16)
        assert c1 == pytest.approx(C1_56_016, rel=1e-9)
        assert c2 == pytest.approx(C2_56_016, rel=1e-9)

    def test_location_scale_uses_reduced_df(self):
        c1, c2 = critical_values(DesignPair(8, 8, Variant.LOCATION_SCALE), 0.16)
        assert c1 == pytest.approx(float(fdist.ppf(0.08, 14, 14)), rel=1e-9)
        assert c2 == pytest.approx(float(fdist.ppf(0.92, 14, 14)), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            critical_values(DesignPair(3, 3), alpha)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), alpha=st.floats(0.01, 0.99))
    def test_equal_counts_reciprocal(self, n, alpha):
        c1, c2 = critical_values(DesignPair(n, n), alpha)
        assert c1 * c2 == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("alpha", [2**-53, 1e-17, 1e-300])
    @pytest.mark.parametrize("n1, n2, variant", [
        (1, 1, Variant.KNOWN_LOCATION), (5, 6, Variant.KNOWN_LOCATION),
        (150, 150, Variant.KNOWN_LOCATION), (2, 150, Variant.LOCATION_SCALE),
        (40, 40, Variant.LOCATION_SCALE),
    ])
    def test_tiny_alpha(self, alpha, n1, n2, variant):
        # 1 - alpha/2 rounds to 1 at these levels, outside f_quantile's domain
        c1, c2 = critical_values(DesignPair(n1, n2, variant), alpha)
        assert 0.0 < c1 < c2 < math.inf
        if n1 == n2:
            assert c1 * c2 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-315, 1e-320, 1e-323])
    def test_subnormal_alpha_exact(self, alpha):
        # F(2, 2) has the closed-form quantile p/(1 - p), subnormal at these levels
        c1, _ = critical_values(DesignPair(1, 1), alpha)
        ref = (0.5 * alpha) / (1.0 - 0.5 * alpha)
        assert abs(c1 - ref) <= 1e-12 * ref + 1e-323

    @pytest.mark.parametrize("n1, n2, variant", [
        (3, 1, Variant.KNOWN_LOCATION), (4, 2, Variant.LOCATION_SCALE),
        (1, 3, Variant.KNOWN_LOCATION), (2, 4, Variant.LOCATION_SCALE),
    ])
    def test_quantile_underflowing_at_subnormal_alpha(self, n1, n2, variant):
        # at shapes (1, 3) and p = 5e-324 the beta quantile lies below half the
        # smallest subnormal and rounds to 0: c1 is then 0, and c2 = 1/0 is inf
        c1, c2 = critical_values(DesignPair(n1, n2, variant), 1e-323)
        if n2 < n1:
            assert 0.0 < c1 < c2 == math.inf
        else:
            assert c1 == 0.0 < c2 < math.inf

    def test_alpha_whose_half_underflows_is_named(self):
        with pytest.raises(ValueError, match=r"alpha/2 underflows to 0 at alpha=5e-324"):
            critical_values(DesignPair(1, 1), 5e-324)

    @pytest.mark.parametrize("n1", [145, 122])
    def test_upper_quantile_against_scipy(self, n1):
        # df (290, 2) and (244, 2), where the quantile at p = 1 - alpha/2
        # loses ~5e-11 relative to the cancellation in 1 - p
        c1, c2 = critical_values(DesignPair(n1, 1), 3e-4)
        assert c2 == pytest.approx(float(fdist.isf(1.5e-4, 2 * n1, 2)), rel=1e-12)

    def test_ordering(self):
        c1, c2 = critical_values(DesignPair(5, 3), 0.3)
        assert 0.0 < c1 < c2

    @pytest.mark.parametrize("alpha", [1 - 2**-53, 1 - 2**-52, 1 - 1e-14])
    @pytest.mark.parametrize("n1, n2, variant", [
        (2, 41, Variant.LOCATION_SCALE), (5, 6, Variant.KNOWN_LOCATION),
        (26, 100, Variant.KNOWN_LOCATION), (150, 40, Variant.LOCATION_SCALE),
    ])
    def test_ordered_next_to_alpha_one(self, alpha, n1, n2, variant):
        # the two quantiles are within rounding of the median here and used
        # to cross, which made d_bounds and every risk at that level raise
        design = DesignPair(n1, n2, variant)
        c1, c2 = critical_values(design, alpha)
        assert c1 <= c2
        assert shrink_risk(design, 1.3, alpha, 0.5) == pytest.approx(1.0 / n1, abs=1e-12)


class TestPooled:
    def test_equal_estimates_fixed_point(self):
        assert pooled(_inp(2.7, 2.7, 4, 9)) == pytest.approx(2.7, rel=1e-15)

    def test_worked_example(self):
        inp = _inp(1.0705, 0.7262, 8, 8, Variant.LOCATION_SCALE)
        assert pooled(inp) == pytest.approx(0.89835, abs=1e-10)

    def test_count_weighting(self):
        # nearly all weight on the second series when n2 dominates
        assert pooled(_inp(4.0, 1e-300, 1, 3)) == pytest.approx(1.0, rel=1e-12)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            _inp(0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            _inp(1.0, -2.0, 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finiteness_validation(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _inp(bad, 1.0, 2, 2)
        with pytest.raises(ValueError, match="finite"):
            _inp(1.0, bad, 2, 2)

    def test_overflowing_mle_rejected(self):
        # finite records whose range overflows give an infinite scale MLE
        sample = RecordSample((-1.5e308, 1.5e308), Variant.LOCATION_SCALE)
        with pytest.raises(ValueError, match="finite"):
            EstimationInput(mle_scale(sample), 1.0, DesignPair(2, 2, Variant.LOCATION_SCALE))


class TestPreliminaryTest:
    def test_worked_example_accepts_and_pools(self):
        est, dec = preliminary_test(EXAMPLE, 0.16)
        assert dec.accepted
        assert est == pytest.approx(0.8984, abs=5.1e-5)

    def test_alpha_one_always_rejects(self):
        est, dec = preliminary_test(_inp(1.0, 1.0001, 5, 5), 1.0)
        assert not dec.accepted
        assert est == 1.0

    def test_extreme_ratio_rejected(self):
        inp = _inp(100.0, 1.0, 5, 5)
        est, dec = preliminary_test(inp, 0.16)
        assert dec.ratio > float(fdist.ppf(0.92, 10, 10))  # oracle upper critical value
        assert not dec.accepted
        assert est == 100.0

    def test_target_theta2(self):
        inp = _inp(100.0, 1.0, 5, 5)
        est, dec = preliminary_test(inp, 0.16, Target.THETA2)
        assert not dec.accepted
        assert est == 1.0

    def test_decision_consistency(self):
        inp = _inp(1.2, 1.0, 6, 4)
        dec = equal_scale_test(inp, 0.3)
        assert dec.accepted == (dec.c1 < dec.ratio < dec.c2)


class TestShrinkage:
    def test_k_one_equals_pre_test(self):
        for ratio in (0.5, 1.0, 3.0):
            inp = _inp(ratio, 1.0, 4, 6)
            assert shrinkage(inp, 0.2, 1.0) == preliminary_test(inp, 0.2)

    def test_k_zero_is_mle(self):
        est, _ = shrinkage(_inp(1.3, 1.2, 4, 6), 0.2, 0.0)
        assert est == 1.3

    def test_worked_example_with_back_solved_k(self):
        est, dec = shrinkage(EXAMPLE, 0.16, 0.24)
        assert dec.accepted
        assert est == pytest.approx(1.0292, abs=5.1e-5)

    @pytest.mark.parametrize("k", [-0.01, 1.01])
    def test_k_domain(self, k):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 1\], got"):
            shrinkage(_inp(1.0, 1.0, 3, 3), 0.2, k)

    @settings(max_examples=150, deadline=None)
    @given(
        t1=st.floats(0.05, 20.0),
        t2=st.floats(0.05, 20.0),
        k=st.floats(0.0, 1.0),
        alpha=st.floats(0.01, 0.99),
    )
    def test_between_mle_and_pooled_when_accepted(self, t1, t2, k, alpha):
        inp = _inp(t1, t2, 3, 5)
        est, dec = shrinkage(inp, alpha, k)
        if dec.accepted:
            lo = min(t1, pooled(inp))
            hi = max(t1, pooled(inp))
            assert lo - 1e-12 <= est <= hi + 1e-12
        else:
            assert est == t1

    @settings(max_examples=150, deadline=None)
    @given(
        t1=st.floats(0.05, 20.0),
        t2=st.floats(0.05, 20.0),
        s=st.floats(0.01, 100.0),
        k=st.floats(0.0, 1.0),
    )
    def test_scale_equivariance(self, t1, t2, s, k):
        inp = _inp(t1, t2, 4, 7)
        scaled = _inp(s * t1, s * t2, 4, 7)
        est, dec = shrinkage(inp, 0.16, k)
        est_s, dec_s = shrinkage(scaled, 0.16, k)
        assert dec_s.accepted == dec.accepted
        assert est_s == pytest.approx(s * est, rel=1e-12)
