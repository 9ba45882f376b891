import math

import pytest

from recshrink.optim import brent_root, golden_section_max


class TestGoldenSectionMax:
    def test_interior_parabola(self):
        x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_monotone_resolves_to_edge(self):
        from recshrink.optim import _SQRT_EPS, _XTOL_FLOOR

        # the search reads neither end, so it stops within twice its
        # stopping tolerance of the higher one
        seen = []
        x, fx = golden_section_max(lambda t: seen.append(t) or t, 0.0, 3.0)
        assert 0.0 < 3.0 - x <= 2.0 * (_SQRT_EPS * x + _XTOL_FLOOR)
        assert fx == x
        assert all(0.0 < t < 3.0 for t in seen)

    def test_flat_function(self):
        x, fx = golden_section_max(lambda t: 0.0, 1.0, 2.0)
        assert fx == 0.0
        assert 1.0 <= x <= 2.0

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda t: t, 2.0, 1.0)


class TestBrentRoot:
    def test_polynomial_root(self):
        r = brent_root(lambda t: (t - 1.5) * (t + 4.0), 0.0, 3.0, xtol=1e-13)
        assert r == pytest.approx(1.5, abs=1e-12)

    def test_cosine_root(self):
        r = brent_root(math.cos, 1.0, 2.0, xtol=1e-13)
        assert r == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_exact_endpoint(self):
        assert brent_root(lambda t: t, 0.0, 1.0) == 0.0
        assert brent_root(lambda t: t - 1.0, 0.0, 1.0) == 1.0

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            brent_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_steep_function(self):
        r = brent_root(lambda t: math.tan(t) - 1.0, 0.1, 1.5, xtol=1e-13)
        assert r == pytest.approx(math.pi / 4.0, abs=1e-12)


class TestParabolicSteps:
    """Golden-section search with parabolic steps: few evaluations on a smooth hump,
    golden steps at a kink, and a tolerance relative to x that still ends at 0."""

    GRID_STEP = 10.0 ** (1 / 200)  # one node of the regret grid, 200 a decade

    @staticmethod
    def _counted(f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        return counted, calls

    @pytest.mark.parametrize("peak", [1e-4, 0.3, 7.0, 1e4])
    def test_a_smooth_hump_takes_at_most_16_evaluations(self, peak):
        # a hump in log x, bracketed as the polish brackets a grid node: by
        # its two neighbours, here one grid step either side of the peak;
        # golden section alone, to an absolute width of 1e-6, took 27 a call
        # on table 3's polishes
        f, calls = self._counted(lambda x: math.exp(-0.5 * (math.log(x / peak) / 0.3) ** 2))
        x, fx = golden_section_max(f, peak / self.GRID_STEP, peak * self.GRID_STEP)
        assert len(calls) <= 16
        assert x == pytest.approx(peak, rel=1e-7)
        assert fx == f(x)

    @pytest.mark.parametrize("peak", [1e-4, 0.3, 7.0, 1e4])
    def test_a_kinked_hump_is_found_to_1e_7_relative(self, peak):
        # no parabola fits a kink, so the golden steps close in on it
        node = peak * 1.003
        x, _ = golden_section_max(lambda t: -abs(t - peak), node / self.GRID_STEP,
                                  node * self.GRID_STEP)
        assert abs(x - peak) <= 1e-7 * peak

    def test_a_bracket_at_zero_ends(self):
        from recshrink.optim import _MAXITER, _XTOL_FLOOR

        # the tolerance is relative to x, so near 0 only its absolute floor
        # stops the search, within twice that floor of the higher end
        f, calls = self._counted(lambda t: -t)
        x, fx = golden_section_max(f, 0.0, 1.0)
        assert 0.0 < x <= 2.0 * _XTOL_FLOOR
        assert fx == -x
        assert len(calls) < _MAXITER
        f, calls = self._counted(lambda t: -((t - 1e-9) ** 2))
        x, _ = golden_section_max(f, 0.0, 1e-3)
        assert x == pytest.approx(1e-9, rel=1e-6)
        assert len(calls) < _MAXITER
