"""Tests for domain types, moments, ECDFs, and kernel continuization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localeq.core import (
    ECDF,
    ExamineeRecord,
    KernelCDF,
    LinearTransform,
    TransformFamily,
    WeightedSample,
    inverse_cdf,
    unweighted_moments,
    weighted_moments,
)
from localeq.errors import (
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidProbabilityError,
    InvalidWeightError,
)


class TestExamineeRecord:
    def test_valid_record(self):
        r = ExamineeRecord(form=1, score=17, anchor=9, covariates=(2, 0.5))
        assert r.form == 1
        assert r.covariates == (2, 0.5)

    def test_anchor_optional(self):
        assert ExamineeRecord(form=0, score=3).anchor is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"form": 2, "score": 1},
            {"form": 0, "score": -1},
            {"form": 0, "score": 1, "anchor": -2},
        ],
    )
    def test_invalid_record(self, kwargs):
        with pytest.raises(ValueError):
            ExamineeRecord(**kwargs)


class TestLinearTransform:
    def test_known_value(self):
        # slope 1.5 around mu_y=10, mu_x=12: 12 + 1.5*(14-10) = 18
        t = LinearTransform(slope=1.5, mu_y=10.0, mu_x=12.0)
        assert t(14.0) == pytest.approx(18.0)

    def test_maps_mean_to_mean(self):
        t = LinearTransform(slope=0.7, mu_y=23.0, mu_x=19.5)
        assert t(23.0) == pytest.approx(19.5, abs=1e-10)

    def test_inverse_composition_is_identity(self):
        t = LinearTransform(slope=1.3, mu_y=8.0, mu_x=11.0)
        back = t.inverse()
        for y in (0.0, 4.5, 8.0, 40.0):
            assert back(t(y)) == pytest.approx(y, abs=1e-10)

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            LinearTransform(slope=0.0, mu_y=0.0, mu_x=0.0)

    def test_vectorized_call(self):
        t = LinearTransform(slope=2.0, mu_y=1.0, mu_x=0.0)
        np.testing.assert_allclose(t(np.array([1.0, 2.0])), [0.0, 2.0])


class TestTransformFamily:
    def test_disjoint_entries_and_omitted(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TransformFamily(index_kind="stratum", entries={1: t}, omitted=[1])

    def test_nearest_prefers_exact_then_low(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        fam = TransformFamily(
            index_kind="anchor_score", entries={2: t, 6: t}, omitted=[4]
        )
        assert fam.nearest(6) == 6
        assert fam.nearest(3) == 2
        assert fam.nearest(4) == 2  # tie between 2 and 6 goes low
        assert fam.nearest(5) == 6

    def test_len_and_indices(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        fam = TransformFamily(index_kind="stratum", entries={3: t, 1: t})
        assert len(fam) == 2
        assert fam.indices == [1, 3]


class TestMoments:
    def test_weighted_moments_frozen_oracle(self):
        # values {0,1}, weights {1,3}: mean 3/4, var = (1*(3/4)^2 + 3*(1/4)^2)/4
        sample = WeightedSample(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        mean, sd = weighted_moments(sample)
        assert mean == pytest.approx(0.75)
        assert sd == pytest.approx(math.sqrt(0.1875))

    def test_weighted_reduces_to_population_moments(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        mean, sd = weighted_moments(WeightedSample(v))
        assert mean == pytest.approx(v.mean())
        assert sd == pytest.approx(v.std(ddof=0))

    def test_unweighted_moments_use_n_minus_1(self):
        mean, sd = unweighted_moments([2.0, 4.0])
        assert mean == pytest.approx(3.0)
        assert sd == pytest.approx(math.sqrt(2.0))

    def test_unweighted_empty_raises(self):
        with pytest.raises(EmptyInputError):
            unweighted_moments([])

    def test_unweighted_single_value_raises(self):
        with pytest.raises(InsufficientDataError):
            unweighted_moments([5.0])

    def test_weight_replication_equivalence(self):
        # integer weights equal explicit replication
        w_mean, w_sd = weighted_moments(
            WeightedSample(np.array([2.0, 5.0]), np.array([2.0, 3.0]))
        )
        r = np.array([2.0, 2.0, 5.0, 5.0, 5.0])
        assert w_mean == pytest.approx(r.mean())
        assert w_sd == pytest.approx(r.std(ddof=0))


class TestWeightedSample:
    def test_empty_values(self):
        with pytest.raises(EmptyInputError):
            WeightedSample(np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            WeightedSample(np.array([1.0, 2.0]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_weights(self, bad):
        with pytest.raises(InvalidWeightError):
            WeightedSample(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_arrays_read_only(self):
        s = WeightedSample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestECDF:
    def test_weighted_step_values(self):
        f = ECDF(WeightedSample(np.array([0.0, 1.0]), np.array([1.0, 3.0])))
        assert f(-0.5) == 0.0
        assert f(0.0) == pytest.approx(0.25)
        assert f(0.5) == pytest.approx(0.25)
        assert f(1.0) == 1.0
        assert f(2.0) == 1.0

    def test_right_continuity_at_jump(self):
        f = ECDF(WeightedSample(np.array([1.0, 2.0, 3.0])))
        assert f(2.0) == pytest.approx(2.0 / 3.0)
        assert f(2.0 - 1e-12) == pytest.approx(1.0 / 3.0)

    def test_quantile_is_smallest_qualifying_value(self):
        f = ECDF(WeightedSample(np.array([1.0, 2.0, 3.0])))
        # F(1)=1/3 < 0.5, F(2)=2/3 >= 0.5
        assert f.quantile(0.5) == 2.0
        assert f.quantile(1.0 / 3.0) == 1.0

    def test_quantile_zero_returns_minimum(self):
        f = ECDF(WeightedSample(np.array([4.0, 7.0, 9.0])))
        assert f.quantile(0.0) == 4.0

    def test_quantile_bounds(self):
        f = ECDF(WeightedSample(np.array([1.0])))
        with pytest.raises(InvalidProbabilityError):
            f.quantile(1.5)

    def test_ties_collapse(self):
        f = ECDF(WeightedSample(np.array([2.0, 2.0, 5.0])))
        assert f(2.0) == pytest.approx(2.0 / 3.0)
        assert f.support == (2.0, 5.0)

    @given(
        values=st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30
        ),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_generalized_inverse_property(self, values, p):
        f = ECDF(WeightedSample(np.array(values)))
        q = f.quantile(p)
        assert f(q) >= p or p == 0.0
        # no smaller observed value qualifies
        smaller = [v for v in values if v < q]
        if smaller and p > 0.0:
            assert f(max(smaller)) < p


class TestKernelCDF:
    def test_rejects_non_positive_bandwidth(self):
        s = WeightedSample(np.array([1.0, 2.0]))
        with pytest.raises(InvalidBandwidthError):
            KernelCDF(s, 0.0)

    def test_preserves_mean_and_variance(self):
        rng = np.random.default_rng(5)
        s = WeightedSample(rng.integers(0, 30, 40).astype(float), rng.uniform(0.5, 2, 40))
        mu, sigma = weighted_moments(s)
        for h in (0.3, 1.0, 5.0, 50.0):
            f = KernelCDF(s, h)
            # integrate moments of the smooth CDF numerically
            lo, hi = f.support
            x = np.linspace(lo, hi, 20001)
            pdf = np.gradient(f(x), x)
            mean = np.trapezoid(x * pdf, x)
            var = np.trapezoid((x - mean) ** 2 * pdf, x)
            assert mean == pytest.approx(mu, abs=1e-6)
            assert var == pytest.approx(sigma**2, rel=1e-4)

    def test_small_bandwidth_approaches_step_ecdf(self):
        s = WeightedSample(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 1.0]))
        step = ECDF(s)
        smooth = KernelCDF(s, 1e-4)
        for x in (-0.5, 0.4, 1.6, 3.4):
            assert smooth(x) == pytest.approx(step(x), abs=1e-6)

    def test_infinite_bandwidth_is_gaussian_with_sample_moments(self):
        s = WeightedSample(np.array([2.0, 4.0, 9.0]), np.array([1.0, 1.0, 2.0]))
        mu, sigma = weighted_moments(s)
        f = KernelCDF(s, math.inf)
        assert f(mu) == pytest.approx(0.5, abs=1e-12)
        # one sample-sd above the mean: standard normal at z=1
        assert f(mu + sigma) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_monotone_nondecreasing(self):
        s = WeightedSample(np.array([1.0, 4.0, 6.0]))
        f = KernelCDF(s, 2.0)
        x = np.linspace(-5, 12, 500)
        assert np.all(np.diff(f(x)) >= 0)

    def test_degenerate_sample_is_step(self):
        f = KernelCDF(WeightedSample(np.array([3.0, 3.0])), 1.0)
        assert f(2.999) == 0.0
        assert f(3.0) == 1.0


class TestInverseCDF:
    def test_exact_for_step_cdfs(self):
        f = ECDF(WeightedSample(np.array([1.0, 2.0, 3.0])))
        assert inverse_cdf(f, 0.5) == 2.0

    def test_bisection_roundtrip_on_smooth_cdf(self):
        s = WeightedSample(np.array([0.0, 2.0, 5.0, 9.0]))
        f = KernelCDF(s, 1.5)
        for p in (0.05, 0.3, 0.5, 0.92):
            x = inverse_cdf(f, p)
            assert f(x) == pytest.approx(p, abs=1e-6)

    def test_out_of_range_probability(self):
        f = ECDF(WeightedSample(np.array([1.0])))
        with pytest.raises(InvalidProbabilityError):
            inverse_cdf(f, -0.1)

    def test_boundary_probabilities_on_smooth_cdf(self):
        s = WeightedSample(np.array([0.0, 1.0]))
        f = KernelCDF(s, 1.0)
        lo, hi = f.support
        assert inverse_cdf(f, 0.0) == lo
        assert inverse_cdf(f, 1.0) <= hi
