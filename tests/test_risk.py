"""Closed-form risk and moments against degeneracies and the Monte Carlo oracle."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from recshrink.estimators import critical_values
from recshrink.records import DesignPair, Variant
from recshrink.risk import (
    _SHIFTS,
    RiskParams,
    _beta_bound,
    _brackets,
    _quadratic_constants,
    boundary_risks,
    coefficients_at_bounds,
    d_bounds,
    pooled_risk_quadratic,
    pt_moments,
    pt_risk,
    risk_k_coefficients,
    risk_k_coefficients_grid,
    shrink_moments,
    shrink_risk,
    shrink_risk_grid,
)
from recshrink.sim import _linear_bounds, mc_oracle_risk

from exact_risk import (
    _bound,
    exact_bound_slope,
    exact_brackets,
    exact_coefficients,
    exact_delta_slope_terms,
)

D56 = DesignPair(5, 6)

# frozen F_{(10,12)} quantiles at 0.08 / 0.92
C1 = 0.40340319624961880
C2 = 2.3646477425343958


class TestDBounds:
    def test_ratio_form(self):
        d1, d2 = d_bounds(D56, 1.0, C1, C2)
        assert d1 == pytest.approx(C1 * 5.0 / (C1 * 5.0 + 6.0), rel=1e-12)
        assert d2 == pytest.approx(C2 * 5.0 / (C2 * 5.0 + 6.0), rel=1e-12)

    def test_linear_form_with_clamping(self):
        # the refuted map, kept only in the Monte Carlo validation
        d1, d2 = _linear_bounds(D56, 1.0, C1, C2)
        assert d1 == 0.0  # 1 - 6/(5*c1) < 0 gets clamped
        assert d2 == pytest.approx(1.0 - 6.0 / (5.0 * C2), rel=1e-12)

    @pytest.mark.parametrize("bounds", [d_bounds, _linear_bounds], ids=["ratio", "linear"])
    def test_large_delta_limit(self, bounds):
        d1, d2 = bounds(D56, 1e9, C1, C2)
        assert d1 == pytest.approx(1.0, abs=1e-7)
        assert d2 == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("delta", [5e-324, 1e-310, 1e-300, 1e306, 1.7e308])
    def test_ratio_form_finite_at_extreme_delta(self, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1, d2 = d_bounds(D56, delta, C1, C2)
            g1 = _beta_bound(C1, 5, 6, np.array([delta]))
        assert 0.0 <= d1 <= d2 <= 1.0
        assert g1[0] == d1
        assert d1 == (1.0 if delta > 1.0 else pytest.approx(0.0, abs=1e-299))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float_route_equals_array_route_bit_for_bit(self, variant):
        # a float delta takes plain arithmetic, an array numpy's ufuncs; the
        # formula is the same, so each bound must be the same double
        design = DesignPair(5, 6, variant)
        n1, n2 = design.n1, design.n2
        deltas = [1e-310, *np.geomspace(1e-300, 1e300, 41).tolist(), 1.0,
                  float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))]
        pairs = [critical_values(design, a) for a in (1e-300, 0.16, 1.0)]
        pairs.append((pairs[1][0], math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for delta in deltas:
                for c1, c2 in pairs:
                    for d in (delta, np.float64(delta)):
                        got = d_bounds(design, d, c1, c2)
                        want = tuple(_beta_bound(c, n1, n2, np.array([delta]))[0]
                                     for c in (c1, c2))
                        assert got == want, (delta, c1, c2)

    def test_equal_critical_values(self):
        d1, d2 = d_bounds(D56, 1.3, 1.7, 1.7)
        assert d1 == d2

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            d_bounds(D56, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("c1, c2", [(-1.0, 2.0), (math.nan, C2), (C1, math.nan)],
                             ids=["negative", "nan-c1", "nan-c2"])
    def test_critical_values_nonnegative_and_ordered(self, c1, c2):
        # a negative c1 would give a bound below 0, and a NaN one a NaN bound
        with pytest.raises(ValueError, match=r"need 0 <= c1 <= c2, got"):
            d_bounds(D56, 1.0, c1, c2)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            d_bounds(D56, 0.0, C1, C2)


class TestBrackets:
    @settings(max_examples=300, deadline=None)
    @given(
        m1=st.integers(1, 200),
        m2=st.integers(1, 200),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
    )
    @example(m1=5, m2=6, u=0.0, v=0.4)
    @example(m1=5, m2=6, u=0.3, v=1.0)
    @example(m1=200, m2=1, u=0.0, v=1.0)
    @example(m1=7, m2=3, u=0.37, v=0.37)
    @example(m1=156, m2=138, u=0.52, v=0.54)  # around the mean 156/294
    def test_recurrence_matches_scipy(self, m1, m2, u, v):
        # every shifted-shape bracket comes from one incomplete beta per
        # bound plus the A&S 26.5.16 shift terms, for float bounds and for
        # arrays of bounds alike; at delta = 1 no bracket is scaled
        x1, x2 = sorted((u, v))
        consts = _quadratic_constants(DesignPair(m1, m2))
        scalar = _brackets(consts, 1.0, x1, x2)
        grid = _brackets(consts, 1.0, np.array([x1]), np.array([x2]))
        for (i, j), got, got_grid in zip(_SHIFTS, scalar, grid, strict=True):
            a, b = m1 + i, m2 + j
            ref = float(sp.betainc(a, b, x2) - sp.betainc(a, b, x1))
            assert got == pytest.approx(ref, abs=1e-13), (i, j)
            assert got_grid[0] == pytest.approx(ref, abs=1e-13), (i, j)


class TestDegeneracies:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.5])
    def test_alpha_one_risk_is_mle_risk(self, variant, delta):
        d = DesignPair(5, 6, variant)
        assert abs(pt_risk(d, delta, 1.0) - 1.0 / d.n1) <= 1e-10

    def test_alpha_one_moments(self):
        bias, mse = pt_moments(RiskParams(D56, 1.7, 1.0, theta1=2.0))
        assert abs(bias) <= 1e-12
        assert mse == pytest.approx(4.0 / 5.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.4, 1.0, 3.0])
    def test_k_zero_risk_is_mle_risk(self, delta):
        assert abs(shrink_risk(D56, delta, 0.16, 0.0) - 0.2) <= 1e-10

    def test_k_zero_moments(self):
        bias, mse = shrink_moments(RiskParams(D56, 1.5, 0.16, k=0.0, theta1=3.0))
        assert abs(bias) <= 1e-12
        assert mse == pytest.approx(9.0 / 5.0, abs=1e-12)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.5])
    def test_k_zero_mse_is_exact(self, variant, delta):
        # h0 is 1/n1 itself, so at k = 0 the mse is theta1^2/n1 to the last bit
        d = DesignPair(5, 6, variant)
        _, mse = shrink_moments(RiskParams(d, delta, 0.16, k=0.0, theta1=2.0))
        assert mse == 4.0 / d.n1

    def test_k_one_reduces_to_pre_test(self):
        p = RiskParams(D56, 1.4, 0.22, k=1.0, theta1=1.3)
        assert shrink_moments(p) == pt_moments(p)
        assert shrink_risk(D56, 1.4, 0.22, 1.0) == pt_risk(D56, 1.4, 0.22)

    def test_symmetric_design_unbiased_at_equal_scales(self):
        for n in (2, 5, 9):
            bias, _ = pt_moments(RiskParams(DesignPair(n, n), 1.0, 0.16))
            assert abs(bias) <= 1e-10

    def test_alpha_to_zero_approaches_pooled_risk(self):
        for delta in (0.6, 1.0, 1.8):
            r0, _ = boundary_risks(D56, delta)
            assert pt_risk(D56, delta, 1e-9) == pytest.approx(r0, abs=1e-4)

    def test_infinite_critical_value_always_accepts(self):
        # at alpha = 1e-310 design (1, 1) has c2 = inf, whose bound is exactly
        # 1; an always-accepting test pools, so the risk is r0
        d = DesignPair(1, 1)
        assert critical_values(d, 1e-310)[1] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk = pt_risk(d, 1.0, 1e-310)
            grid = risk_k_coefficients_grid(d, np.array([0.5, 1.0, 2.0]), 1e-310)
            assert _beta_bound(math.inf, 1, 1, 3.0) == 1.0
            assert np.all(_beta_bound(math.inf, 1, 1, np.array([1e-300, 1.0, 1e300])) == 1.0)
        assert risk == pytest.approx(boundary_risks(d, 1.0)[0], abs=1e-12)
        assert grid[0][1] + grid[1][1] + grid[2] == pytest.approx(risk, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-4, 1e4])
    def test_extreme_delta_approaches_mle_risk(self, delta):
        assert pt_risk(D56, delta, 0.16) == pytest.approx(0.2, abs=1e-3)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [1e154, 1e300, 1e306, 1e307, 1.7e308])
    def test_huge_delta_is_mle_risk_exactly(self, variant, delta):
        # both bounds round to 1 and every bracket is 0, so the risk is 1/n1
        # and the moments are those of the single-sample MLE; from ~6e306
        # delta*m1*m2/(n1*n2) and c*n1*delta overflowed into NaN
        d = DesignPair(5, 6, variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h2, h1, h0 = risk_k_coefficients(d, delta, 0.16)
            g2, g1, g0 = risk_k_coefficients_grid(d, np.array([delta]), 0.16)
            risk = shrink_risk(d, delta, 0.16, 0.5)
            bias, mse = shrink_moments(RiskParams(d, delta, 0.16, k=0.5, theta1=2.0))
        assert (h2, h1) == (0.0, 0.0)
        assert (g2[0], g1[0]) == (0.0, 0.0)
        assert g0 == h0
        assert risk == h0 == pytest.approx(0.2, abs=1e-15)
        assert bias == pytest.approx(2.0 * (d.shapes[0] / d.n1 - 1.0), abs=1e-15)
        assert mse == pytest.approx(4.0 * h0, abs=1e-14)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, variant, delta):
        # inf used to give NaN coefficients and moments, and the grid let
        # both through to the incomplete beta's "x values" error
        d = DesignPair(5, 6, variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta must be positive"):
                risk_k_coefficients(d, delta, 0.16)
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                risk_k_coefficients_grid(d, np.array([1.0, delta]), 0.16)
            with pytest.raises(ValueError, match="delta must be positive"):
                shrink_moments(RiskParams(d, delta, 0.16))


class TestRiskParams:
    @pytest.mark.parametrize("field", ["delta", "theta1"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_scales_must_be_positive_and_finite(self, field, value):
        kwargs = {"delta": 1.5, "theta1": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            RiskParams(D56, alpha=0.16, **kwargs)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", 0.0, "alpha must lie in"),
        ("alpha", 1.5, "alpha must lie in"),
        ("k", -0.1, "k must lie in"),
        ("k", 1.1, "k must lie in"),
    ])
    def test_level_and_weight_domains(self, field, value, message):
        kwargs = {"alpha": 0.16, "k": 0.5, field: value}
        with pytest.raises(ValueError, match=message):
            RiskParams(D56, 1.5, **kwargs)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_huge_theta1_scales_the_bias_and_overflows_the_mse(self, variant):
        # theta1^2 overflows, so the mse is +inf; it used to be inf - inf = NaN
        d = DesignPair(5, 6, variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias1, _ = shrink_moments(RiskParams(d, 1.5, 0.16, k=0.5))
            bias, mse = shrink_moments(RiskParams(d, 1.5, 0.16, k=0.5, theta1=1e200))
        assert bias == 1e200 * bias1
        assert mse == math.inf


def _scipy_brackets(design, delta, alpha):
    """The five shifted-shape brackets straight from scipy's incomplete beta."""
    d1, d2 = d_bounds(design, delta, *critical_values(design, alpha))
    m1, m2 = design.shapes
    return {(i, j): float(sp.betainc(m1 + i, m2 + j, d2) - sp.betainc(m1 + i, m2 + j, d1))
            for i, j in _SHIFTS}


class TestMomentsAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.integers(2, 150),
        n2=st.integers(2, 150),
        variant=st.sampled_from(list(Variant)),
        delta=st.floats(0.1, 10.0),
        alpha=st.floats(0.01, 1.0),
        k=st.floats(0.0, 1.0),
        theta1=st.floats(1e-3, 1e3),
    )
    @example(n1=150, n2=150, variant=Variant.KNOWN_LOCATION, delta=1.0, alpha=0.16, k=0.5,
             theta1=1.0)
    @example(n1=150, n2=150, variant=Variant.LOCATION_SCALE, delta=0.1, alpha=0.5, k=1.0,
             theta1=1e3)
    @example(n1=2, n2=41, variant=Variant.LOCATION_SCALE, delta=1.0, alpha=1 - 2**-53, k=0.0,
             theta1=1.0)  # critical values that crossed by rounding
    def test_bias_and_mse(self, n1, n2, variant, delta, alpha, k, theta1):
        # est - theta1 = (mle1 - theta1) + k*lam*(mle2 - mle1) on the acceptance
        # event A; the moments on A, in units of theta1, are scipy brackets
        design = DesignPair(n1, n2, variant)
        m1, m2 = design.shapes
        lam = n2 / (n1 + n2)
        br = _scipy_brackets(design, delta, alpha)
        e1 = m1 / n1 * br[(1, 0)]
        e2 = m2 / n2 * delta * br[(0, 1)]
        e11 = m1 * (m1 + 1) / n1**2 * br[(2, 0)]
        e22 = m2 * (m2 + 1) / n2**2 * delta**2 * br[(0, 2)]
        e12 = m1 * m2 / (n1 * n2) * delta * br[(1, 1)]
        bias_ref = theta1 * (m1 / n1 - 1.0 + k * lam * (e2 - e1))
        risk_ref = (
            m1 * (m1 + 1) / n1**2 - 2.0 * m1 / n1 + 1.0
            + 2.0 * k * lam * (e12 - e11 - e2 + e1)
            + (k * lam) ** 2 * (e22 - 2.0 * e12 + e11)
        )
        bias, mse = shrink_moments(RiskParams(design, delta, alpha, k, theta1))
        assert bias == pytest.approx(bias_ref, abs=1e-13 * theta1)
        assert mse == pytest.approx(theta1**2 * risk_ref, rel=1e-12)


def _mirrored_risk(design, delta, alpha, k):
    """Shrinkage risk from scipy brackets in the mirrored form, for delta >= 1.

    I_{d2}(a, b) - I_{d1}(a, b) = I_{e1}(b, a) - I_{e2}(b, a) with
    e = 1 - d = n2/(c*n1*delta + n2) formed directly, so no bracket is the
    difference of two values near 1; c2 = inf gives e2 = 0.  The brackets
    become a risk as the moments of ``TestMomentsAgainstScipy`` do.
    """
    n1, n2 = design.n1, design.n2
    m1, m2 = design.shapes
    e1, e2 = (n2 / (c * n1 * delta + n2) for c in critical_values(design, alpha))
    br = {(i, j): float(sp.betainc(m2 + j, m1 + i, e1) - sp.betainc(m2 + j, m1 + i, e2))
          for i, j in _SHIFTS}
    lam = n2 / (n1 + n2)
    t1 = m1 / n1 * br[(1, 0)]
    t2 = m2 / n2 * delta * br[(0, 1)]
    t11 = m1 * (m1 + 1) / n1**2 * br[(2, 0)]
    t22 = m2 * (m2 + 1) / n2**2 * delta**2 * br[(0, 2)]
    t12 = m1 * m2 / (n1 * n2) * delta * br[(1, 1)]
    return (
        m1 * (m1 + 1) / n1**2 - 2.0 * m1 / n1 + 1.0
        + 2.0 * k * lam * (t12 - t11 - t2 + t1)
        + (k * lam) ** 2 * (t22 - 2.0 * t12 + t11)
    )


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: brackets lose all precision at large delta")
def test_risk_is_exact_at_every_delta():
    # one item over every design, variant and delta, so it cannot half-pass
    misses = []
    for (n1, n2), variant in itertools.product(((2, 2), (7, 2), (5, 6), (150, 40)), Variant):
        design = DesignPair(n1, n2, variant)
        for delta in np.geomspace(1.0, 1e16, 33).tolist():
            for k, got in ((1.0, pt_risk(design, delta, 0.16)),
                           (0.5, shrink_risk(design, delta, 0.16, 0.5))):
                err = abs(got - _mirrored_risk(design, delta, 0.16, k))
                if not err <= 1e-13:  # a NaN risk misses too
                    misses.append((err, design, delta, k))
    assert not misses, (len(misses), misses[:3])


def test_exact_and_scipy_references_agree():
    # the gate's grid: the integer-arithmetic reference against mirrored scipy brackets
    misses = []
    for (n1, n2), variant in itertools.product(((2, 2), (7, 2), (5, 6), (150, 40)), Variant):
        design = DesignPair(n1, n2, variant)
        c1, c2 = critical_values(design, 0.16)
        for delta in np.geomspace(1.0, 1e16, 33).tolist():
            h2, h1, h0 = exact_coefficients(n1, n2, variant is Variant.KNOWN_LOCATION,
                                            c1, c2, delta)
            for k in (1.0, 0.5):
                exact = h2 * Fraction(k) ** 2 + h1 * Fraction(k) + h0
                err = float(abs(Fraction(_mirrored_risk(design, delta, 0.16, k)) - exact))
                if not err <= 1e-13:
                    misses.append((err, design, delta, k))
    assert not misses, (len(misses), misses[:3])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 12: above the crossing at large n the float "
                          "h2 + h1 keeps absolute but not relative accuracy, until the "
                          "upper-tail brackets are mirrored")
def test_crossing_residual_keeps_relative_accuracy_at_large_n():
    # at (400, 400) the float h2 + h1 has the wrong sign at both points:
    # -8.25e-18 against +1.57e-18 at delta = 2, -1.9e-69 against +8.4e-71 at 4
    design, alpha = DesignPair(400, 400), 0.16
    c1, c2 = critical_values(design, alpha)
    misses = []
    for delta in (2.0, 4.0):
        h2, h1, _ = exact_coefficients(400, 400, True, c1, c2, delta)
        g2, g1, _ = risk_k_coefficients(design, delta, alpha)
        if not abs(Fraction(g2 + g1) - (h2 + h1)) <= Fraction(1e-10) * abs(h2 + h1):
            misses.append((delta, g2 + g1, float(h2 + h1)))
    assert not misses, misses


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: brackets lose all precision at large delta")
@settings(max_examples=100, deadline=None)
@given(
    n1=st.integers(2, 40),
    n2=st.integers(2, 40),
    variant=st.sampled_from(list(Variant)),
    log10_delta=st.floats(-6.0, 16.0),
    alpha=st.sampled_from((0.01, 0.16, 0.5)),
    k=st.floats(0.0, 1.0),
)
# pt_risk returns -24.9 here for a risk of 0.5 (ROADMAP item 1)
@example(n1=2, n2=2, variant=Variant.KNOWN_LOCATION, log10_delta=10.0, alpha=0.16, k=1.0)
def test_risk_matches_the_exact_reference(n1, n2, variant, log10_delta, alpha, k):
    # pt_risk, shrink_risk and the coefficient grid at 1e-13 absolute, at
    # every delta from 1e-6 to 1e16; and h2, a second moment, is never
    # negative in floats where it is positive exactly
    design, delta = DesignPair(n1, n2, variant), 10.0**log10_delta
    c1, c2 = critical_values(design, alpha)
    h2, h1, h0 = exact_coefficients(n1, n2, variant is Variant.KNOWN_LOCATION, c1, c2, delta)

    def miss(got, want):
        return float(abs(Fraction(float(got)) - want))

    assert miss(pt_risk(design, delta, alpha), h2 + h1 + h0) <= 1e-13
    assert miss(shrink_risk(design, delta, alpha, k),
                h2 * Fraction(k) ** 2 + h1 * Fraction(k) + h0) <= 1e-13
    g2, g1, g0 = risk_k_coefficients_grid(design, np.array([delta]), alpha)
    assert all(miss(got, want) <= 1e-13 for got, want in zip((g2[0], g1[0], g0), (h2, h1, h0)))
    if h2 > 0:
        assert risk_k_coefficients(design, delta, alpha)[0] >= 0.0 and g2[0] >= 0.0


def _weighted_brackets(design, delta, alpha, upper):
    """The sum the tail bound bounds: each bracket times delta^j and its weight in |h2| + |h1|.

    Above the edge the brackets are mirrored, as in ``_mirrored_risk``, so
    none is a difference of two values near 1; below it they are plain.
    """
    n1, n2 = design.n1, design.n2
    m1, m2 = design.shapes
    lam = n2 / (n1 + n2)
    c1, c2 = critical_values(design, alpha)
    if upper:
        e1, e2 = (n2 / (c * n1 * delta + n2) for c in (c1, c2))
        br = {(i, j): sp.betainc(m2 + j, m1 + i, e1) - sp.betainc(m2 + j, m1 + i, e2)
              for i, j in _SHIFTS}
    else:
        d1, d2 = (c * n1 * delta / (c * n1 * delta + n2) for c in (c1, c2))
        br = {(i, j): sp.betainc(m1 + i, m2 + j, d2) - sp.betainc(m1 + i, m2 + j, d1)
              for i, j in _SHIFTS}
    weights = {
        (2, 0): (lam * lam + 2.0 * lam) * m1 * (m1 + 1) / n1**2,
        (1, 1): 2.0 * (lam * lam + lam) * m1 * m2 / (n1 * n2),
        (0, 2): lam * lam * m2 * (m2 + 1) / n2**2,
        (1, 0): 2.0 * lam * m1 / n1,
        (0, 1): 2.0 * lam * m2 / n2,
    }
    return float(sum(w * delta**j * br[i, j] for (i, j), w in weights.items()))


class TestTailBound:
    """The closed-form bound on the regret beyond a grid end."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n1,n2", [(2, 2), (7, 2), (5, 6), (10, 3), (40, 150), (150, 40),
                                       (150, 150)])
    def test_bounds_the_brackets_and_is_monotone(self, n1, n2, variant):
        from recshrink.minimax import pooling_region
        from recshrink.risk import _tail_bound

        design = DesignPair(n1, n2, variant)
        delta1, delta2 = pooling_region(design)
        # 17 points from each alpha* grid end at 1e2 times the edge out to
        # 1e4 times beyond it; the lower side only where the reference is r1
        above = np.geomspace(1e2 * delta2, 1e6 * delta2, 17).tolist()
        below = [d for d in np.geomspace(delta2 / 1e6, delta2 / 1e2, 17).tolist() if d < delta1]
        assert below
        for alpha in (0.01, 0.08, 0.16, 0.5, 0.99):
            for upper, deltas in ((True, above), (False, below)):
                bounds = [_tail_bound(design, alpha, d, upper) for d in deltas]
                exact = [_weighted_brackets(design, d, alpha, upper) for d in deltas]
                assert all(b >= e for b, e in zip(bounds, exact)), (alpha, upper)
                # non-increasing away from the edge, so its value at an end
                # bounds everything beyond
                steps = np.diff(bounds) if upper else -np.diff(bounds)
                assert np.all(steps <= 0.0), (alpha, upper)

    def test_infinite_critical_value_gives_no_bound_below(self):
        from recshrink.risk import _tail_bound

        # design (1, 1) has c2 = inf at alpha = 1e-310, as in the risk tests
        assert critical_values(DesignPair(1, 1), 1e-310)[1] == math.inf
        assert _tail_bound(DesignPair(1, 1), 1e-310, 1e-3, upper=False) == math.inf

    @pytest.mark.parametrize("key", [
        "tables 2 --alpha 0.16 --variant known", "tables 2 --alpha 0.16 --variant locscale",
        "tables 3 --variant known", "tables 3 --variant locscale",
        "tables 3 --grid 40,150 --variant known", "tables 3 --grid 40,150 --variant locscale",
    ])
    def test_k_star_whole_grid_is_certified(self, key):
        # the whole grid ends 1e4 times the edge away on each side; on the
        # frozen tables the bound at both of its ends already lies below
        # the reported sups, so no K* sup lies beyond the grid
        import json
        import pathlib

        from recshrink.minimax import pt_risk_crossings, regret_shrink
        from recshrink.risk import _tail_bound

        path = pathlib.Path(__file__).parent / "data" / "tables_frozen.json"
        variant = Variant(key.rsplit(" ", 1)[1])
        for cell in json.loads(path.read_text())[key]:
            design = DesignPair(cell["n1"], cell["n2"], variant)
            alpha, k = cell["alpha_star"], cell["k_star"]
            delta2 = pt_risk_crossings(design, alpha)[1]
            reg_lo = regret_shrink(design, cell["delta_L"], alpha, k)
            reg_hi = regret_shrink(design, cell["delta_U"], alpha, k)
            assert _tail_bound(design, alpha, delta2 / 1e4, upper=False) <= reg_lo, cell
            assert _tail_bound(design, alpha, delta2 * 1e4, upper=True) <= reg_hi, cell


class TestAlphaSlope:
    """d pt_risk/d alpha: the exact slope in each bound, chained through the critical values."""

    DESIGNS = [(2, 2), (2, 40), (40, 2), (3, 7), (10, 3), (17, 29), (25, 6), (40, 40)]
    ALPHAS = (0.01, 0.16, 0.5, 0.9, 0.99)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n1,n2", DESIGNS)
    def test_bound_slope_is_exact(self, n1, n2, variant):
        from recshrink.risk import _bound_slope

        # d(1 - d) times d(h2 + h1)/dd at both bounds, to 1e-12 relative,
        # over delta in [1e-3, 10] and alpha up to 0.99, where c is near 1
        design, known = DesignPair(n1, n2, variant), variant is Variant.KNOWN_LOCATION
        checked = 0
        for alpha in self.ALPHAS:
            for c in critical_values(design, alpha):
                for delta in np.geomspace(1e-3, 10.0, 9).tolist():
                    exact = exact_bound_slope(n1, n2, known, c, delta)
                    if abs(exact) <= 1e-300:
                        continue
                    p, q = _bound(c, n1, n2, delta)
                    want = exact * Fraction(p * (q - p), q * q)
                    got = Fraction(_bound_slope(design, delta, c))
                    assert abs(got - want) <= 1e-12 * abs(want), (alpha, c, delta)
                    checked += 1
        assert checked >= 80

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n1,n2", DESIGNS)
    def test_critical_value_slopes_match_central_differences(self, n1, n2, variant):
        from recshrink.risk import _quantile_fronts

        # dc1/d alpha = c1/(2 t(x1)) and dc2/d alpha = -c2/(2 t(x2))
        design = DesignPair(n1, n2, variant)
        for alpha in self.ALPHAS:
            h = 1e-5 * min(alpha, 1.0 - alpha)
            up, down = critical_values(design, alpha + h), critical_values(design, alpha - h)
            for c, front, half, c_up, c_down in zip(critical_values(design, alpha),
                                                    _quantile_fronts(design, alpha),
                                                    (0.5, -0.5), up, down):
                assert half * c / front == pytest.approx((c_up - c_down) / (2.0 * h), rel=1e-6)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_alpha_slope_matches_central_differences(self, variant):
        from recshrink.risk import pt_risk_alpha_slope

        # where pt_risk keeps its digits: the dip and both sides of the crossing
        design = DesignPair(5, 6, variant)
        for alpha in (0.05, 0.16, 0.5):
            h = 1e-6
            for delta in (0.2, 0.7, 1.0, 1.6, 3.0):
                central = (pt_risk(design, delta, alpha + h)
                           - pt_risk(design, delta, alpha - h)) / (2.0 * h)
                assert pt_risk_alpha_slope(design, delta, alpha) == \
                    pytest.approx(central, rel=1e-6, abs=1e-9), (alpha, delta)

    def test_an_infinite_c2_contributes_nothing(self):
        from recshrink.risk import _quantile_fronts, pt_risk_alpha_slope

        # c2 = inf, as in the tail bound's test; its bound slope would be NaN
        design, alpha = DesignPair(1, 1), 1e-310
        assert critical_values(design, alpha)[1] == math.inf
        assert _quantile_fronts(design, alpha)[1] == 0.0
        assert not math.isnan(pt_risk_alpha_slope(design, 1.0, alpha))


class TestDeltaSlope:
    """d(h2, h1)/d delta: the interior moments plus each bound's front-factor terms."""

    GRID = (2, 3, 4, 5, 7, 10)
    ALPHAS = (0.05, 0.16, 0.5)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n1", GRID)
    def test_delta_slope_is_exact(self, n1, variant):
        from recshrink.risk import coefficients_delta_slope

        # Each slope to 1e-12 relative over delta in [1e-3, 40], on top of the error
        # its float brackets carry in through the interior terms: above delta ~ 10
        # the brackets themselves lose digits (ROADMAP item 1).  Near a zero of the
        # slope, where its terms cancel, 1e-12 of the sum of their magnitudes.
        known = variant is Variant.KNOWN_LOCATION
        checked = 0
        for n2 in self.GRID:
            design = DesignPair(n1, n2, variant)
            consts = _quadratic_constants(design)
            lam2, lam_2, _, q12, q12_2, q2, _, v2, _ = consts[6:]
            for alpha in self.ALPHAS:
                c1, c2 = critical_values(design, alpha)
                for delta in np.geomspace(1e-3, 40.0, 9).tolist():
                    floats = _brackets(consts, delta, *d_bounds(design, delta, c1, c2))
                    exact = exact_brackets(n1, n2, known, c1, c2, delta)
                    _, off01, _, off02, off11 = (abs(Fraction(f) - x)
                                                 for f, x in zip(floats, exact))
                    carried = ((2.0 * lam2 * q2 * off02 + lam2 * q12_2 * off11) / Fraction(delta),
                               (lam_2 * q12 * off11 + lam_2 * v2 * off01) / Fraction(delta))
                    got = coefficients_delta_slope(design, delta, alpha)
                    terms = exact_delta_slope_terms(n1, n2, known, c1, c2, delta)
                    for g, ts, allowed in zip(got, terms, carried):
                        err, want = abs(Fraction(g) - sum(ts)), sum(ts)
                        if err > allowed + 1e-12 * abs(want):
                            assert err <= allowed + 1e-12 * sum(abs(x) for x in ts), \
                                (n2, alpha, delta, float(err / abs(want)))
                        checked += 1
        assert checked == 6 * 3 * 9 * 2

    @pytest.mark.parametrize("variant", list(Variant))
    def test_delta_slope_matches_central_differences(self, variant):
        from recshrink.risk import coefficients_delta_slope

        # where the risk keeps its digits: the dip and both sides of the crossing
        design = DesignPair(5, 6, variant)
        for alpha in self.ALPHAS:
            for delta in (0.2, 0.7, 1.0, 1.6, 3.0):
                h = 1e-6 * delta
                up = risk_k_coefficients(design, delta + h, alpha)
                down = risk_k_coefficients(design, delta - h, alpha)
                for got, hi, lo in zip(coefficients_delta_slope(design, delta, alpha), up, down):
                    assert got == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6, abs=1e-9), \
                        (alpha, delta)

    def test_a_bound_at_0_or_1_contributes_nothing(self):
        from recshrink.risk import coefficients_delta_slope

        # c2 = inf puts d2 at 1, where its front-factor term would be NaN
        design, alpha = DesignPair(1, 1), 1e-310
        assert critical_values(design, alpha)[1] == math.inf
        assert not any(math.isnan(x) for x in coefficients_delta_slope(design, 1.0, alpha))


class TestMomentsAgainstOracle:
    def test_pt_mse_matches_simulation(self):
        # exact MSE vs a 1e6-replicate simulation of the estimator itself
        bias, mse = pt_moments(RiskParams(D56, 1.5, 0.16, theta1=1.0))
        est, se = mc_oracle_risk(D56, 1.5, 0.16, 1.0, 1_000_000, seed=314159)
        assert abs(mse - est) <= 3.0 * se
        assert mse >= bias * bias

    def test_pt_bias_matches_simulation(self):
        from recshrink.estimators import critical_values

        design, delta, alpha = D56, 1.5, 0.16
        rng = np.random.default_rng(271828)
        reps = 1_000_000
        m1, m2 = design.shapes
        t1 = rng.standard_gamma(m1, reps) / design.n1
        t2 = delta * rng.standard_gamma(m2, reps) / design.n2
        c1, c2 = critical_values(design, alpha)
        ratio = t1 / t2
        acc = (ratio > c1) & (ratio < c2)
        pool = (design.n1 * t1 + design.n2 * t2) / (design.n1 + design.n2)
        est = np.where(acc, pool, t1)
        err = est - 1.0
        bias, _ = pt_moments(RiskParams(design, delta, alpha))
        assert abs(bias - err.mean()) <= 3.0 * err.std(ddof=1) / math.sqrt(reps)

    def test_shrink_mse_matches_simulation(self):
        _, mse = shrink_moments(RiskParams(D56, 1.5, 0.16, k=0.21, theta1=1.0))
        est, se = mc_oracle_risk(D56, 1.5, 0.16, 0.21, 1_000_000, seed=161803)
        assert abs(mse - est) <= 3.0 * se

    def test_location_scale_mse_matches_simulation(self):
        d = DesignPair(5, 6, Variant.LOCATION_SCALE)
        _, mse = shrink_moments(RiskParams(d, 1.5, 0.16, k=0.21, theta1=1.0))
        est, se = mc_oracle_risk(d, 1.5, 0.16, 0.21, 1_000_000, seed=141421)
        assert abs(mse - est) <= 3.0 * se


class TestRiskScaleFreeness:
    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(0.2, 4.0),
        alpha=st.floats(0.02, 0.9),
        k=st.floats(0.0, 1.0),
    )
    def test_theta1_invariance(self, delta, alpha, k):
        a = shrink_moments(RiskParams(D56, delta, alpha, k=k, theta1=1.0))[1]
        b = shrink_moments(RiskParams(D56, delta, alpha, k=k, theta1=7.3))[1] / 7.3**2
        assert a == pytest.approx(b, abs=1e-12)
        assert shrink_risk(D56, delta, alpha, k) == pytest.approx(a, abs=1e-12)


class TestQuadraticStructure:
    @settings(max_examples=80, deadline=None)
    @given(
        delta=st.floats(0.2, 4.0),
        alpha=st.floats(0.02, 0.9),
        k=st.floats(0.0, 1.0),
    )
    def test_lagrange_reconstruction_in_k(self, delta, alpha, k):
        r0 = shrink_risk(D56, delta, alpha, 0.0)
        rh = shrink_risk(D56, delta, alpha, 0.5)
        r1 = shrink_risk(D56, delta, alpha, 1.0)
        rebuilt = (
            r0 * (k - 0.5) * (k - 1.0) / 0.5
            - rh * k * (k - 1.0) / 0.25
            + r1 * k * (k - 0.5) / 0.5
        )
        assert shrink_risk(D56, delta, alpha, k) == pytest.approx(rebuilt, abs=1e-12)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_constant_is_mle_risk_exactly(self, variant):
        # h0 is the float 1/n1 itself, the reference risk r1
        deltas = np.array([0.3, 1.0, 4.0])
        for n1 in range(2, 61):
            d = DesignPair(n1, 5, variant)
            assert risk_k_coefficients(d, 1.3, 0.16)[2] == 1.0 / n1
            assert risk_k_coefficients_grid(d, deltas, 0.16)[2] == 1.0 / n1

    def test_coefficients_match_risk(self):
        h2, h1, h0 = risk_k_coefficients(D56, 1.3, 0.2)
        for k in (0.0, 0.37, 1.0):
            assert shrink_risk(D56, 1.3, 0.2, k) == pytest.approx(
                h2 * k * k + h1 * k + h0, abs=1e-14
            )
        assert h0 == pytest.approx(0.2, abs=1e-14)


class TestBoundaryRisks:
    @settings(max_examples=300, deadline=None)
    @given(
        variant=st.sampled_from(list(Variant)),
        n1=st.integers(2, 150),
        n2=st.integers(2, 150),
        delta=st.floats(1e-4, 1e4),
    )
    @example(variant=Variant.LOCATION_SCALE, n1=49, n2=141, delta=1.0104749718743726)
    @example(variant=Variant.KNOWN_LOCATION, n1=67, n2=127, delta=0.9645915130238439)
    def test_pooling_risk_against_exact_arithmetic(self, variant, n1, n2, delta):
        # r0 = E[(G1 + delta*G2)/N - 1]^2 in rationals; the two examples sit
        # near delta = 1, where an expanded polynomial in delta cancels to ~4e-14
        d = DesignPair(n1, n2, variant)
        m1, m2 = d.shapes
        n = n1 + n2
        t = Fraction(delta)
        exact = (m1 + m2 * t * t + (m1 + m2 * t - n) ** 2) / n**2
        r0, r1 = boundary_risks(d, delta)
        assert abs(Fraction(r0) - exact) <= Fraction(1e-14) * exact
        assert r1 == 1.0 / n1

    @pytest.mark.parametrize("variant", list(Variant))
    def test_array_matches_scalar(self, variant):
        d = DesignPair(5, 6, variant)
        deltas = np.geomspace(1e-4, 1e4, 97).reshape(1, 97)
        r0, r1 = boundary_risks(d, deltas)
        assert r0.shape == deltas.shape
        assert r0.reshape(-1).tolist() == [boundary_risks(d, t)[0] for t in deltas.reshape(-1)]
        assert r1 == boundary_risks(d, 1.0)[1] == 0.2

    def test_equal_scales_value(self):
        r0, r1 = boundary_risks(D56, 1.0)
        assert r0 == 1.0 / 11.0
        assert r1 == 0.2

    @pytest.mark.parametrize("n1,n2", [(2, 2), (5, 6), (10, 7), (3, 9), (1, 150), (67, 127)])
    def test_pooling_risk_at_one_is_exact(self, n1, n2):
        r0, _ = boundary_risks(DesignPair(n1, n2), 1.0)
        assert r0 == 1.0 / (n1 + n2)

    def test_quadratic_consistency(self):
        a, b, c = pooled_risk_quadratic(D56)
        for delta in (0.4, 1.0, 2.7):
            r0, _ = boundary_risks(D56, delta)
            assert r0 == pytest.approx(a * delta**2 + b * delta + c, abs=1e-14)

    def test_location_scale_r1(self):
        _, r1 = boundary_risks(DesignPair(5, 6, Variant.LOCATION_SCALE), 2.0)
        assert r1 == 0.2

    def test_location_scale_r0_matches_alpha_zero_limit(self):
        d = DesignPair(5, 6, Variant.LOCATION_SCALE)
        for delta in (0.5, 1.0, 2.0):
            r0, _ = boundary_risks(d, delta)
            assert pt_risk(d, delta, 1e-9) == pytest.approx(r0, abs=1e-4)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            boundary_risks(D56, -1.0)
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                boundary_risks(D56, np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, variant, delta):
        # inf gave r0 = NaN without a warning, where d_bounds rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                boundary_risks(DesignPair(5, 6, variant), delta)


class TestCoefficientsAtBounds:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_at_d_bounds_equals_risk_coefficients(self, variant):
        from recshrink.estimators import critical_values

        d = DesignPair(5, 6, variant)
        for alpha in (0.05, 0.16, 0.6):
            c1, c2 = critical_values(d, alpha)
            for delta in (1e-3, 0.4, 1.0, 2.7, 1e5):
                got = coefficients_at_bounds(d, delta, *d_bounds(d, delta, c1, c2))
                assert got == risk_k_coefficients(d, delta, alpha)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_zero_width_bounds_give_mle_risk(self, variant):
        # an empty acceptance region never pools: the risk is 1/n1 at every k
        d = DesignPair(5, 6, variant)
        for x in (0.0, 0.3, 0.77, 1.0):
            for delta in (0.2, 1.0, 5.0):
                h2, h1, h0 = coefficients_at_bounds(d, delta, x, x)
                assert (h2, h1) == (0.0, 0.0)
                assert h0 == pytest.approx(1.0 / d.n1, abs=1e-15)

    def test_inverted_bounds_rejected(self):
        # they would give a negative h2 (-0.0471)
        with pytest.raises(ValueError, match=r"need d1 <= d2, got \(0.7, 0.3\)"):
            coefficients_at_bounds(D56, 1.0, 0.7, 0.3)


class TestGridPath:
    def test_grid_matches_scalar(self):
        deltas = np.geomspace(0.05, 8.0, 120)
        for k in (0.21, 1.0):
            grid = shrink_risk_grid(D56, deltas, 0.16, k)
            scal = np.array([shrink_risk(D56, float(t), 0.16, k) for t in deltas])
            np.testing.assert_allclose(grid, scal, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(), (37,), (6, 7)])
    def test_coefficients_grid_matches_scalar(self, shape):
        deltas = np.geomspace(0.03, 30.0, max(1, math.prod(shape))).reshape(shape)
        for variant in Variant:
            d = DesignPair(5, 6, variant)
            h2, h1, h0 = risk_k_coefficients_grid(d, deltas, 0.16)
            assert np.shape(h2) == np.shape(h1) == shape
            scal = np.array(
                [risk_k_coefficients(d, float(t), 0.16) for t in deltas.reshape(-1)]
            )
            np.testing.assert_allclose(np.reshape(h2, -1), scal[:, 0], rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(np.reshape(h1, -1), scal[:, 1], rtol=0.0, atol=1e-13)
            assert h0 == pytest.approx(scal[0, 2], abs=1e-15)

    def test_grid_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            shrink_risk_grid(D56, np.array([0.5, -1.0]), 0.16, 1.0)

    @pytest.mark.parametrize("k", [-0.1, 1.1, math.nan])
    def test_k_outside_unit_interval_rejected(self, k):
        with pytest.raises(ValueError, match="k must lie in"):
            shrink_risk(D56, 1.0, 0.16, k)
        with pytest.raises(ValueError, match="k must lie in"):
            shrink_risk_grid(D56, np.array([0.5, 1.0]), 0.16, k)


@pytest.fixture(scope="module")
def validation():
    from recshrink.sim import convention_validation

    return convention_validation(replicates=200_000, seed=987654321)


class TestConventionOracleGrid:
    """Every cell of the validation grid, both conventions, 2e5 replicates."""

    def test_derived_ratio_matches_everywhere(self, validation):
        bad = [
            c for c in validation["cells"]
            if c.convention == "derived" and not c.ok
        ]
        assert not bad, f"derived-ratio cells beyond 3 SE: {bad}"

    def test_paper_linear_is_refuted(self, validation):
        # the linear map disagrees with simulation by far more than noise
        zs = [abs(c.z) for c in validation["cells"] if c.convention == "paper"]
        assert max(zs) > 10.0

    def test_surviving_convention_named(self, validation):
        assert validation["surviving_conventions"] == ["derived"]
        assert validation["default_ok"]
