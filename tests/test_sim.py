"""Monte Carlo harness: determinism, cross-route agreement, degeneracies."""

import math

import numpy as np
import pytest

from recshrink.records import DesignPair, Variant
from recshrink.sim import (
    SimConfig,
    convention_validation,
    mc_compare,
    mc_oracle_risk,
)

D22 = DesignPair(2, 2)


def _config(**kw):
    base = dict(
        design=D22,
        theta2_grid=(0.5, 1.0, 2.0),
        seed=1234,
        alpha=0.16,
        k=0.17,
        replicates=20_000,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(theta2_grid=())
        with pytest.raises(ValueError):
            _config(theta2_grid=(1.0, -2.0))
        with pytest.raises(ValueError):
            _config(alpha=0.0)
        with pytest.raises(ValueError):
            _config(k=1.5)
        with pytest.raises(ValueError):
            _config(replicates=0)
        with pytest.raises(ValueError):
            _config(theta1=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scales_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _config(theta2_grid=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            _config(theta1=bad)


class TestMcCompare:
    def test_bit_identical_reruns(self):
        a = mc_compare(_config())
        b = mc_compare(_config())
        assert a == b

    def test_seed_changes_results(self):
        a = mc_compare(_config())
        b = mc_compare(_config(seed=4321))
        assert a != b

    def test_seed_independent_conclusions(self):
        a = mc_compare(_config(seed=11, replicates=50_000))
        b = mc_compare(_config(seed=22, replicates=50_000))
        for ra, rb in zip(a.rows, b.rows):
            gap = abs(ra.eff_pt - rb.eff_pt)
            assert gap <= 6.0 * math.hypot(ra.se_eff_pt, rb.se_eff_pt)

    def test_k_zero_shrinkage_is_mle(self):
        report = mc_compare(_config(k=0.0))
        for row in report.rows:
            assert row.eff_s == 1.0
            assert row.bias_s == row.bias_mle
            assert row.mse_s == row.mse_mle

    def test_unbiased_mle_known_location(self):
        report = mc_compare(_config(replicates=100_000))
        for row in report.rows:
            assert abs(row.bias_mle) <= 4.0 * row.se_bias_mle

    def test_matches_closed_form_risk(self):
        from recshrink.risk import shrink_risk

        config = _config(replicates=100_000)
        report = mc_compare(config)
        for row in report.rows:
            exact = shrink_risk(D22, row.theta2, config.alpha, config.k)
            assert abs(row.mse_s - exact) <= 3.0 * row.se_mse_s

    def test_csv_rows_layout(self):
        report = mc_compare(_config())
        rows = report.to_csv_rows()
        assert rows[0] == list(
            ("n1", "n2", "theta2", "bias_mle", "bias_pt", "bias_s", "eff_pt", "eff_s")
        )
        assert len(rows) == 1 + 3
        assert rows[1][:3] == [2, 2, 0.5]

    def test_json_includes_standard_errors(self):
        payload = mc_compare(_config()).to_json_dict()
        assert payload["seed"] == 1234
        assert {"se_eff_pt", "se_mse_s", "se_bias_mle"} <= set(payload["rows"][0])


class TestMcOracleRisk:
    def test_alpha_one_gives_mle_risk(self):
        est, se = mc_oracle_risk(D22, 1.5, 1.0, 1.0, 200_000, seed=5)
        assert abs(est - 0.5) <= 3.0 * se

    def test_k_zero_gives_mle_risk(self):
        est, se = mc_oracle_risk(D22, 0.7, 0.16, 0.0, 200_000, seed=6)
        assert abs(est - 0.5) <= 3.0 * se

    def test_deterministic(self):
        assert mc_oracle_risk(D22, 1.5, 0.16, 0.21, 10_000, seed=7) == mc_oracle_risk(
            D22, 1.5, 0.16, 0.21, 10_000, seed=7
        )

    def test_record_route_agrees_with_pivot_route(self):
        # mc_compare samples records; the oracle samples chi-square pivots.
        design = DesignPair(3, 3)
        config = SimConfig(
            design=design, theta2_grid=(1.0,), seed=77, alpha=0.16, k=1.0,
            replicates=200_000,
        )
        row = mc_compare(config).rows[0]
        est, se = mc_oracle_risk(design, 1.0, 0.16, 1.0, 200_000, seed=78)
        # theta1 = 1, so the plain MSE of the pre-test rule is its weighted risk
        assert abs(row.mse_pt - est) <= 3.0 * math.hypot(row.se_mse_pt, se)

    def test_location_scale_uses_reduced_df(self):
        d = DesignPair(3, 3, Variant.LOCATION_SCALE)
        est, se = mc_oracle_risk(d, 1.0, 1.0, 1.0, 200_000, seed=9)
        assert abs(est - 1.0 / 3.0) <= 3.0 * se

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mc_oracle_risk(D22, -1.0, 0.16, 1.0, 100, seed=0)
        with pytest.raises(ValueError):
            mc_oracle_risk(D22, 1.0, 0.16, 2.0, 100, seed=0)
        with pytest.raises(ValueError):
            mc_oracle_risk(D22, 1.0, 0.16, 1.0, 1, seed=0)


class TestConventionValidation:
    def test_small_run_structure(self):
        result = convention_validation(replicates=20_000, seed=3)
        assert result["default_convention"] == "derived"
        assert result["default_ok"]
        assert result["surviving_conventions"] == ["derived"]
        # 3 designs x 3 deltas x 2 alphas x 2 ks x 2 conventions
        assert len(result["cells"]) == 72
        derived = [c for c in result["cells"] if c.convention == "derived"]
        assert all(c.ok for c in derived)

    def test_linear_map_closed_forms_are_frozen(self):
        # full-precision closed forms of the linear ("paper") map at (5,6),
        # alpha = 0.16, as computed when the map was still an option of
        # ``risk``; delta = 0.5 clamps both bounds to 0, so the risk is 1/n1
        result = convention_validation(replicates=2000, seed=1)
        got = {
            (c.delta, c.k): c.closed_form
            for c in result["cells"]
            if c.convention == "paper" and (c.n1, c.n2) == (5, 6) and c.alpha == 0.16
        }
        assert got == {
            (0.5, 0.21): 0.19999999999999996,
            (0.5, 1.0): 0.19999999999999996,
            (1.0, 0.21): 0.18474405535825553,
            (1.0, 1.0): 0.1694250526758979,
            (2.0, 0.21): 0.1826061464728909,
            (2.0, 1.0): 0.5507207938785065,
        }
