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

    def test_ordering(self):
        c1, c2 = critical_values(DesignPair(5, 3), 0.3)
        assert 0.0 < c1 < c2


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
        with pytest.raises(ValueError):
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
