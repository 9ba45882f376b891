import math

import pytest

from recshrink.optim import brent_root, golden_section_max


class TestGoldenSectionMax:
    def test_interior_parabola(self):
        x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_monotone_resolves_to_edge(self):
        x, fx = golden_section_max(lambda t: t, 0.0, 3.0)
        assert x == 3.0
        assert fx == 3.0

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
