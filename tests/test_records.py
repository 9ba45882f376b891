"""Record extraction, the record sampler, and the scale MLEs.

Distributional checks run the sampler itself (not a vectorized stand-in) so
they exercise the code path users call.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from recshrink.records import (
    DesignPair,
    RecordSample,
    Variant,
    extract_upper_records,
    mle_scale,
    sample_exponential_records,
)

X_RECORDS = (3.105, 6.158, 6.296, 6.824, 7.282, 10.200, 10.240, 11.669)
Y_RECORDS = (1.177, 2.430, 4.090, 4.349, 4.624, 5.655, 6.021, 6.987)


class TestExtractUpperRecords:
    def test_mixed_stream(self):
        out = extract_upper_records([3, 1, 4, 1, 5, 9, 2, 6])
        assert out.values == (3.0, 4.0, 5.0, 9.0)

    def test_increasing_stream_is_identity(self):
        out = extract_upper_records([1.0, 2.5, 7.0])
        assert out.values == (1.0, 2.5, 7.0)

    def test_decreasing_stream_keeps_first(self):
        out = extract_upper_records([9.0, 5.0, 1.0])
        assert out.values == (9.0,)

    def test_tie_is_not_a_record(self):
        assert extract_upper_records([2.0, 2.0, 2.0]).values == (2.0,)

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            extract_upper_records([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_non_finite_stream_rejected(self, bad, where):
        stream = [1.0, 2.0, 3.0]
        stream.insert(where, bad)
        with pytest.raises(ValueError, match="finite"):
            extract_upper_records(stream)

    def test_first_element_always_kept(self):
        stream = [5.0, 1.0, 9.0]
        out = extract_upper_records(stream)
        assert out.values[0] == stream[0]
        assert all(b > a for a, b in zip(out.values, out.values[1:]))


class TestRecordSample:
    def test_count(self):
        assert RecordSample((1.0, 2.0, 4.0)).n == 3

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            RecordSample((1.0, 1.0, 2.0))

    def test_known_location_requires_positive(self):
        with pytest.raises(ValueError):
            RecordSample((-1.0, 2.0), Variant.KNOWN_LOCATION)
        RecordSample((-1.0, 2.0), Variant.LOCATION_SCALE)  # fine without known location

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, variant, bad):
        with pytest.raises(ValueError, match="finite"):
            RecordSample((1.0, bad, 3.0), variant)
        with pytest.raises(ValueError, match="finite"):
            RecordSample((1.0, 3.0, bad), variant)

    def test_location_scale_needs_two(self):
        with pytest.raises(ValueError):
            RecordSample((3.0,), Variant.LOCATION_SCALE)


class TestDesignPair:
    def test_weight_and_df_known(self):
        d = DesignPair(5, 6)
        assert d.lam == pytest.approx(6.0 / 11.0)
        assert d.df == (10, 12)
        assert d.shapes == (5, 6)

    def test_df_location_scale(self):
        d = DesignPair(5, 6, Variant.LOCATION_SCALE)
        assert d.df == (8, 10)
        assert d.shapes == (4, 5)

    def test_minimum_counts(self):
        DesignPair(1, 1)
        with pytest.raises(ValueError):
            DesignPair(0, 3)
        with pytest.raises(ValueError):
            DesignPair(1, 3, Variant.LOCATION_SCALE)
        with pytest.raises(ValueError):
            DesignPair(2.5, 3)


class TestSampler:
    def test_single_record_is_one_draw(self):
        rng = np.random.default_rng(7)
        s = sample_exponential_records(1, 2.0, rng=rng)
        rng2 = np.random.default_rng(7)
        expect = -2.0 * np.log1p(-rng2.random(1))[0]
        assert s.values == (pytest.approx(expect),)

    def test_reproducible(self):
        a = sample_exponential_records(5, 1.3, rng=np.random.default_rng(42))
        b = sample_exponential_records(5, 1.3, rng=np.random.default_rng(42))
        assert a == b

    def test_variant_inferred_from_location(self):
        rng = np.random.default_rng(0)
        assert sample_exponential_records(3, 1.0, rng=rng).variant is Variant.KNOWN_LOCATION
        assert (
            sample_exponential_records(3, 1.0, 2.5, rng=rng).variant
            is Variant.LOCATION_SCALE
        )

    def test_argument_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_exponential_records(0, 1.0, rng=rng)
        with pytest.raises(ValueError):
            sample_exponential_records(3, 0.0, rng=rng)

    def test_mean_of_last_record(self):
        # X_{U(n)} - location is a sum of n Exp(scale) gaps
        n, scale, reps = 4, 1.7, 30_000
        rng = np.random.default_rng(11)
        tops = np.array(
            [sample_exponential_records(n, scale, rng=rng).values[-1] for _ in range(reps)]
        )
        se = scale * np.sqrt(n / reps)
        assert abs(tops.mean() - n * scale) < 3.0 * se


def _pivot_draws(variant, n, scale, location, reps, seed):
    rng = np.random.default_rng(seed)
    out = np.empty(reps)
    for i in range(reps):
        s = sample_exponential_records(n, scale, location, rng=rng, variant=variant)
        out[i] = 2.0 * n * mle_scale(s) / scale
    return out


@pytest.mark.parametrize(
    "variant,location",
    [(Variant.KNOWN_LOCATION, 0.0), (Variant.LOCATION_SCALE, 3.0)],
)
def test_pivot_matches_chi_square_moments(variant, location):
    # 2*n*mle/scale ~ chi2 with the variant's df, checked in mean and variance
    n, scale, reps = 4, 1.7, 100_000
    draws = _pivot_draws(variant, n, scale, location, reps, seed=2024)
    nu = 2 * n if variant is Variant.KNOWN_LOCATION else 2 * n - 2
    mean_se = np.sqrt(2.0 * nu / reps)
    assert abs(draws.mean() - nu) < 3.0 * mean_se
    mu4 = 12.0 * nu * (nu + 4.0)
    var_se = np.sqrt((mu4 - (2.0 * nu) ** 2) / reps)
    assert abs(draws.var(ddof=1) - 2.0 * nu) < 3.0 * var_se


def test_extracted_records_match_sampler_distribution():
    # third record from raw-stream extraction vs the memoryless shortcut,
    # two-sample Kolmogorov-Smirnov at 1e4 replicates each
    n, reps = 3, 10_000
    rng = np.random.default_rng(90125)
    extracted = np.empty(reps)
    for i in range(reps):
        records = []
        top = -np.inf
        while len(records) < n:
            chunk = -np.log1p(-rng.random(512))
            for v in chunk:
                if v > top:
                    top = v
                    records.append(v)
                    if len(records) == n:
                        break
        extracted[i] = records[-1]
    sampled = np.array(
        [
            sample_exponential_records(n, 1.0, rng=rng).values[-1]
            for _ in range(reps)
        ]
    )
    assert ks_2samp(extracted, sampled).pvalue > 1e-3


class TestMleScale:
    def test_known_location(self):
        assert mle_scale(RecordSample((2.0, 5.0, 9.0))) == pytest.approx(3.0)

    def test_worked_example_values(self):
        x = RecordSample(X_RECORDS, Variant.LOCATION_SCALE)
        y = RecordSample(Y_RECORDS, Variant.LOCATION_SCALE)
        assert mle_scale(x) == pytest.approx(1.0705, abs=5.1e-5)
        assert mle_scale(y) == pytest.approx(0.7262, abs=5.1e-5)
