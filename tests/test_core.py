"""Tests for domain types, moments, ECDFs, and kernel continuization."""

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from localeq.core import (
    ECDF,
    KernelCDF,
    LinearTransform,
    ScoreTable,
    TransformFamily,
    WeightedSample,
    inverse_cdf,
    _mean_var,
    sorted_quantiles,
    weighted_moments,
)
from localeq.errors import (
    DimensionError,
    EmptyFamilyError,
    EmptyInputError,
    InvalidBandwidthError,
    InvalidProbabilityError,
    InvalidWeightError,
)


class TestScoreTable:
    def test_valid_table(self):
        t = ScoreTable(form=[1, 0], score=[17, 4], anchor=[9, 2],
                       covariates=[[2, 0.5], [1, 0.25]])
        assert t.form.tolist() == [1, 0]
        assert t.covariates[0].tolist() == [2, 0.5]
        assert len(t) == 2

    def test_anchor_optional(self):
        t = ScoreTable(form=[0], score=[3])
        assert t.anchor is None
        assert t.covariates.shape == (1, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"form": [2], "score": [1]},
            {"form": [0], "score": [-1]},
            {"form": [0], "score": [1], "anchor": [-2]},
        ],
    )
    def test_invalid_table(self, kwargs):
        with pytest.raises(ValueError):
            ScoreTable(**kwargs)

    def test_first_invalid_value_named(self):
        with pytest.raises(ValueError) as exc:
            ScoreTable(form=[0, 1, 0], score=[3, -4, -7])
        assert str(exc.value) == f"total scores must be whole numbers in 0..{2**63 - 1}, got -4"

    @pytest.mark.parametrize("column, what, high", [
        ("form", "form indicator", 1), ("score", "total score", 2**63 - 1),
        ("anchor", "anchor score", 2**63 - 1),
    ])
    @pytest.mark.parametrize(
        "bad", [1e19, 2.0**63, np.uint64(2**64 - 1), 2**70, math.nan, math.inf, -math.inf, 0.5]
    )
    def test_value_named_as_given_before_the_int64_cast(self, column, what, high, bad):
        # cast first, 1e19 and 2.0**63 raised numpy's invalid-cast RuntimeWarning,
        # a uint64 2**64 - 1 was named as the -1 it wraps to, and 2**70 (an
        # object array) failed in np.isfinite with a TypeError
        columns = {"form": [0, 1], "score": [1, 2], "anchor": [3, 4]}
        columns[column] = np.array([1, bad], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError) as exc:
            ScoreTable(**columns)
        value = np.asarray(bad).item()
        assert str(exc.value) == f"{what}s must be whole numbers in 0..{high}, got {value}"

    def test_the_bounds_are_read_exactly(self):
        t = ScoreTable(form=np.array([0.0, 1.0]), score=np.array([0, 2**63 - 1], np.uint64),
                       anchor=np.array([2.0**62, 0.0]))
        assert t.score.tolist() == [0, 2**63 - 1]
        assert t.anchor.tolist() == [2**62, 0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariate_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ScoreTable(form=[0, 1], score=[1, 2], covariates=[[0.5], [value]])

    def test_fractional_score_rejected(self):
        with pytest.raises(ValueError) as exc:
            ScoreTable(form=[0, 1], score=[1, 2.5])
        assert str(exc.value) == f"total scores must be whole numbers in 0..{2**63 - 1}, got 2.5"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"form": [0, 1], "score": [1]},
            {"form": [0, 1], "score": [1, 2], "anchor": [3]},
            {"form": [0, 1], "score": [1, 2], "covariates": [[1.0]]},
            {"form": [[0, 1]], "score": [1, 2]},
        ],
    )
    def test_ragged_columns_rejected(self, kwargs):
        with pytest.raises(DimensionError):
            ScoreTable(**kwargs)

    def test_columns_are_read_only_views(self):
        form = np.array([0, 1, 1])
        t = ScoreTable(form=form, score=np.array([4, 5, 6]))
        assert np.shares_memory(t.form, form)
        assert form.flags.writeable and not t.form.flags.writeable
        with pytest.raises(ValueError):
            t.score[0] = 9

    def test_equality_compares_every_column(self):
        t = ScoreTable(form=[0, 1], score=[3, 4], anchor=[1, 2])
        assert t == ScoreTable(form=[0, 1], score=[3, 4], anchor=[1, 2])
        assert t != ScoreTable(form=[0, 1], score=[3, 4])
        assert t != ScoreTable(form=[0, 1], score=[3, 5], anchor=[1, 2])


class TestLinearTransform:
    def test_known_value(self):
        # slope 1.5 around mu_y=10, mu_x=12: 12 + 1.5*(14-10) = 18
        t = LinearTransform(slope=1.5, mu_y=10.0, mu_x=12.0)
        assert t(14.0) == pytest.approx(18.0)

    def test_maps_mean_to_mean(self):
        t = LinearTransform(slope=0.7, mu_y=23.0, mu_x=19.5)
        assert t(23.0) == pytest.approx(19.5, abs=1e-10)

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            LinearTransform(slope=0.0, mu_y=0.0, mu_x=0.0)

    def test_vectorized_call(self):
        t = LinearTransform(slope=2.0, mu_y=1.0, mu_x=0.0)
        np.testing.assert_allclose(t(np.array([1.0, 2.0])), [0.0, 2.0])

    def test_columnar_maps_compare_by_their_arrays(self):
        def columns(mu_x):
            return LinearTransform(np.ones((2, 1)), np.array([[1.0], [2.0]]), np.array(mu_x))

        assert columns([[0.0], [3.0]]) == columns([[0.0], [3.0]])
        assert columns([[0.0], [3.0]]) != columns([[0.0], [4.0]])
        assert columns([[0.0], [3.0]]) != columns([[0.0], [3.0]])[0]

    def test_one_cell_maps_compare_and_hash_by_value(self):
        t = LinearTransform(1.5, 10.0, 12.0)
        assert t == LinearTransform(1.5, 10.0, 12.0) and t != LinearTransform(1.5, 10.0, 12.5)
        assert t != (1.5, 10.0, 12.0)
        assert hash(t) == hash(LinearTransform(1.5, 10.0, 12.0))
        assert len({t, LinearTransform(1.5, 10.0, 12.0), LinearTransform(2.0, 10.0, 12.0)}) == 2

    def test_a_nan_score_raises(self):
        one = LinearTransform(1.5, 10.0, 12.0)
        columns = LinearTransform(np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))
        for t in (one, columns):
            for y in (math.nan, np.array([3.0, math.nan])):
                with pytest.raises(ValueError, match="NaN score"):
                    t(y)

    def test_a_columnar_map_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(LinearTransform(np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))))


class TestTransformFamily:
    def test_disjoint_entries_and_omitted(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TransformFamily(index_kind="stratum", cells=[1], maps=[t], omitted=[1])

    def test_nearest_prefers_exact_then_low(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        fam = TransformFamily(
            index_kind="anchor_score", cells=[2, 6], maps=[t, t], omitted=[4]
        )
        assert fam.nearest(6) == 6
        assert fam.nearest(3) == 2
        assert fam.nearest(4) == 2  # tie between 2 and 6 goes low
        assert fam.nearest(5) == 6

    def test_len(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        fam = TransformFamily(index_kind="stratum", cells=[1, 3], maps=[t, t])
        assert len(fam) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 2**62), min_size=1, max_size=30, unique=True),
        extra=st.lists(st.integers(0, 2**62), max_size=10),
    )
    @example(cells=[2, 6], extra=[4])
    @example(cells=[0, 2**62], extra=[2**61])
    def test_nearest_matches_the_scalar_rule(self, cells, extra):
        cells = sorted(cells)
        t = LinearTransform(1.0, 0.0, 0.0)
        fam = TransformFamily("anchor_score", cells, [t] * len(cells))
        # exact hits and their neighbours, beyond either end too; each midpoint
        # between neighbours, a tie where their gap is even, and the next value
        mids = [(a + b) // 2 for a, b in zip(cells, cells[1:])]
        queries = cells + [c - 1 for c in cells] + [c + 1 for c in cells] + mids
        queries += [m + 1 for m in mids] + extra
        want = [min(cells, key=lambda v: (abs(v - i), v)) for i in queries]
        assert fam.nearest(np.array(queries)).tolist() == want

    def test_cells_are_ascending_and_at_least_one(self):
        t = LinearTransform(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="ascending"):
            TransformFamily("stratum", [3, 1], [t, t])
        with pytest.raises(EmptyFamilyError, match="no stratum cell qualified"):
            TransformFamily("stratum", [], [], omitted=[2])

    def test_columns_broadcast_and_index_per_cell(self):
        slope, mu_y, mu_x = np.array([[0.5, 1.0, 4.0], [2.0, 3.0, 0.0]]).T[..., None]
        fam = TransformFamily("stratum", [1, 3], LinearTransform(slope, mu_y, mu_x))
        table = fam.maps(np.arange(5.0))
        assert table.shape == (2, 5)
        assert fam.entries is fam.entries  # built once per family
        for i, (cell, t) in enumerate(fam.entries.items()):
            assert type(t.slope) is float and t == fam.maps[i]
            assert table[i].tobytes() == t(np.arange(5.0)).tobytes()
        assert list(fam.entries) == [1, 3]
        with pytest.raises(ValueError, match="positive"):
            LinearTransform(np.array([[1.0], [np.nan]]), mu_y, mu_x)


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

    def test_constant_weighted_sample_has_zero_sd(self):
        # the weighted mean of a constant sample can round an ulp off the
        # value, which left an sd near 1e-15 instead of 0
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            values = np.full(n, float(rng.integers(0, 41)))
            sample = WeightedSample(values, rng.uniform(0.2, 5.0, n))
            assert weighted_moments(sample)[1] == 0.0
        assert weighted_moments(WeightedSample([7.0] * 3, [0.4, 1.3, 2.2]))[1] == 0.0

    def test_mean_var_matches_numpy_bit_for_bit(self):
        # every length from 2 to 3000, so both sides of numpy's 8-element
        # unrolled and 128-element pairwise-sum blocks, at three value scales
        rng = np.random.default_rng(13)
        for n in range(2, 3001):
            for v in (
                rng.integers(0, 41, n).astype(float),
                rng.normal(20.0, 5.0, n),
                rng.uniform(0.0, 1e6, n),
            ):
                assert _mean_var(v) == (v.mean(), v.var(ddof=1)), n

    def test_weighted_moments_take_no_blas_dot(self, monkeypatch):
        # np.dot is BLAS ddot, whose bits follow the kernel OpenBLAS picks
        # for the CPU; a kernel CDF's moments must not
        def no_dot(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        sample = WeightedSample([3.0, 5.0, 5.0, 9.0], [0.5, 1.5, 2.0, 1.0])
        v, w = sample.values, sample.weights
        mean = np.add.reduce(w * v) / np.add.reduce(w)
        sd = math.sqrt(np.add.reduce(w * (v - mean) ** 2) / np.add.reduce(w))
        assert weighted_moments(sample) == (mean, sd)

    def test_weight_replication_equivalence(self):
        # integer weights equal explicit replication
        w_mean, w_sd = weighted_moments(
            WeightedSample(np.array([2.0, 5.0]), np.array([2.0, 3.0]))
        )
        r = np.array([2.0, 2.0, 5.0, 5.0, 5.0])
        assert w_mean == pytest.approx(r.mean())
        assert w_sd == pytest.approx(r.std(ddof=0))


class TestSortedQuantiles:
    def test_each_run_matches_np_quantile_bit_for_bit(self):
        # runs of 1 to 60 values back to back, some tied, some with an
        # infinite end; q at both ends, at halves and at random points
        rng = np.random.default_rng(5)
        q = np.concatenate([[0.0, 0.005, 0.25, 0.5, 0.995, 1.0], rng.random(6)])
        for trial in range(200):
            counts = rng.integers(1, 61, rng.integers(1, 6))
            runs = [np.sort(rng.choice(rng.exponential(1.0, 4), c) if trial % 3 == 0
                            else rng.exponential(1.0, c)) for c in counts]
            if trial % 10 == 0:
                runs[0][-1] = np.inf
            values = np.concatenate(runs)
            with np.errstate(invalid="ignore"):  # inf - inf on both sides
                got = sorted_quantiles(values, np.cumsum(counts) - counts, counts, q)
                expected = np.array([np.quantile(run, q) for run in runs])
            assert got.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, bad):
        # a NaN would read as a value above every other in the ECDF
        with pytest.raises(ValueError, match="sample values must be finite"):
            WeightedSample(np.array([1.0, bad, 2.0]))

    def test_arrays_read_only(self):
        s = WeightedSample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_later_writes_to_the_inputs_do_not_reach_the_sample(self):
        # the sample holds copies: a NaN or a negative weight written after
        # construction must not get past its checks
        values, weights = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0])
        s = WeightedSample(values, weights)
        values[0], weights[0] = np.nan, -1.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert s.weights.tolist() == [1.0, 1.0, 2.0]


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

    def test_nan_at_a_nan_score(self):
        # searchsorted sorts a NaN past every point, where F would read 1
        f = ECDF(WeightedSample(np.arange(1.0, 5.0)))
        assert math.isnan(f(math.nan))
        out = f(np.array([0.5, 2.0, math.nan, math.inf]))
        assert out[[0, 1, 3]].tolist() == [0.0, 0.5, 1.0] and math.isnan(out[2])

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

    def test_never_exceeds_one(self):
        # nine unit weights: the fractions 1/9 sum to one ulp above 1
        f = KernelCDF(WeightedSample(np.arange(9.0)), 0.6)
        assert f(1e3) == 1.0
        assert np.all(f(np.linspace(-10.0, 1e3, 50)) <= 1.0)
        assert inverse_cdf(f, f(1e3)) <= f.support[1]

    def test_cdf_and_survival_sum_to_one(self):
        rng = np.random.default_rng(11)
        s = WeightedSample(rng.integers(0, 20, 50).astype(float), rng.uniform(0.1, 5, 50))
        for h in (0.3, 2.0, math.inf):
            f = KernelCDF(s, h)
            x = np.linspace(*f.support, 400)
            np.testing.assert_allclose(f(x) + f.sf(x), 1.0, rtol=0, atol=1e-14)

    def test_survival_keeps_the_upper_tail(self):
        f = KernelCDF(WeightedSample(np.array([0.0, 1.0, 4.0])), 0.6)
        x = f.support[1]
        assert 1.0 - f(x) == 0.0
        assert f.sf(x) > 0.0
        # the far tail in closed form: the top center's share times Phi(-9)
        assert f.sf(x) == pytest.approx(ndtr(-9.0) / 3.0, rel=1e-9)

    def test_degenerate_sample_survival_is_step(self):
        f = KernelCDF(WeightedSample(np.array([3.0, 3.0])), 1.0)
        assert f.scale == 0.0
        assert f.sf(2.999) == 1.0
        assert f.sf(3.0) == 0.0
        assert f.sf(np.array([2.0, 4.0])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("values", [[3.0, 3.0], [0.0, 3.0]], ids=["step", "smooth"])
    def test_nan_at_a_nan_score(self, values):
        f = KernelCDF(WeightedSample(np.array(values)), 1.0)
        for evaluate in (f, f.sf):
            assert math.isnan(evaluate(math.nan))
            out = evaluate(np.array([-math.inf, math.nan, math.inf]))
            assert math.isnan(out[1]) and not np.isnan(out[[0, 2]]).any()

    def test_ties_pooled_like_premerged_sample(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 12, 300).astype(float)
        weights = rng.uniform(0.1, 3.0, 300)
        distinct, tie = np.unique(values, return_inverse=True)
        merged = WeightedSample(distinct, np.bincount(tie, weights=weights))
        for h in (0.2, 0.6, 3.0):
            tied, pooled = KernelCDF(WeightedSample(values, weights), h), KernelCDF(merged, h)
            assert tied.centers.size == distinct.size
            x = np.linspace(-3.0, 15.0, 250)
            np.testing.assert_allclose(tied(x), pooled(x), rtol=0, atol=1e-15)
            np.testing.assert_allclose(tied.sf(x), pooled.sf(x), rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize(
        "make, p, named",
        [
            (lambda: KernelCDF(WeightedSample(np.array([0.0, 3.0])), 1.0), math.nan, "nan"),
            (lambda: KernelCDF(WeightedSample(np.array([0.0, 3.0])), 1.0), [0.2, 1.1], "1.1"),
            (lambda: ECDF(WeightedSample(np.array([1.0, 2.0]))), [-0.1], "-0.1"),
            (lambda: ECDF(WeightedSample(np.array([1.0, 2.0]))), [0.5, -0.3, 2.0], "-0.3"),
        ],
    )
    def test_invalid_probability_named(self, make, p, named):
        with pytest.raises(InvalidProbabilityError, match=f"got {named}$"):
            inverse_cdf(make(), p)

    def test_survival_checked_too(self):
        f = KernelCDF(WeightedSample(np.array([0.0, 3.0])), 1.0)
        with pytest.raises(InvalidProbabilityError, match="survival .* got 1.5$"):
            inverse_cdf(f, [0.5], survival=[1.5])
        with pytest.raises(DimensionError):
            inverse_cdf(f, [0.5, 0.6], survival=[0.5])

    def test_scalar_returns_float_array_keeps_shape(self):
        kernel = KernelCDF(WeightedSample(np.array([0.0, 2.0, 5.0])), 0.8)
        step = ECDF(WeightedSample(np.array([0.0, 2.0, 5.0])))
        for f in (kernel, step):
            assert type(inverse_cdf(f, 0.3)) is float
            assert inverse_cdf(f, np.array([[0.1, 0.9]])).shape == (1, 2)

    def test_array_matches_one_at_a_time(self):
        s = WeightedSample(np.array([0.0, 2.0, 5.0, 9.0]), np.array([1.0, 3.0, 0.5, 2.0]))
        f = KernelCDF(s, 1.5)
        p = np.array([0.0, 1e-12, 0.05, 0.3, 0.5, 0.92])
        batched = inverse_cdf(f, p)
        single = [inverse_cdf(f, v) for v in p]
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-8)
        assert np.all(np.diff(batched) >= 0.0)
        step = ECDF(s)
        assert inverse_cdf(step, p).tolist() == [step.quantile(v) for v in p]

    def test_survival_form_recovers_the_upper_tail(self):
        f = KernelCDF(WeightedSample(np.array([0.0, 1.0, 4.0])), 0.6)
        x = np.array([f.support[1] - 0.3, f.support[1] - 0.1])
        # f(x) has rounded to 1 here, so only the survival form can invert it
        assert np.all(f(x) == 1.0)
        np.testing.assert_allclose(inverse_cdf(f, f(x), survival=f.sf(x)), x, atol=1e-8)

    def test_boundary_probabilities_on_smooth_cdf(self):
        s = WeightedSample(np.array([0.0, 1.0]))
        f = KernelCDF(s, 1.0)
        lo, hi = f.support
        assert inverse_cdf(f, 0.0) == lo
        assert inverse_cdf(f, 1.0) <= hi

    def test_matches_the_bisection_oracle(self):
        for cdf, p, q in oracle_maps():
            for survival in (q, None):
                np.testing.assert_allclose(inverse_cdf(cdf, p, survival=survival),
                                           reference_inverse(cdf, p, survival), rtol=0, atol=1e-8)

    def test_each_answer_is_the_first_qualifying_grid_point(self):
        for cdf, p, q in oracle_maps():
            for survival in (q, None):
                assert_first_qualifying(cdf, p, survival, inverse_cdf(cdf, p, survival=survival))

    def test_curves_are_non_decreasing_in_the_score(self):
        # p rises and q falls along each map's score grid, as bench/checks.py's
        # check_curve requires of the equated scores
        for cdf, p, q in oracle_maps():
            assert np.all(np.diff(inverse_cdf(cdf, p, survival=q)) >= 0.0)

    def test_zero_scale_kernel_bisects_the_grid(self):
        f = KernelCDF(WeightedSample(np.array([3.0, 3.0])), 1.0)
        p = np.array([0.0, 0.5, 1.0])
        x = inverse_cdf(f, p, survival=1.0 - p)
        assert x.tolist() == [f.support[0], f.support[1], f.support[1]]

    def test_support_of_large_magnitude_is_inverted_in_bounded_time(self):
        # a fixed 1e-8 bisection never ended once the support's float spacing
        # passed 1e-8; a subprocess keeps such a regression from hanging the suite
        probe = (
            "import json, sys, numpy as np\n"
            "from localeq.core import KernelCDF, WeightedSample, inverse_cdf\n"
            "c = float(sys.argv[1])\n"
            "f = KernelCDF(WeightedSample(np.array([c, c + 3, c + 5])), 0.6)\n"
            "p = np.array(json.loads(sys.argv[2]))\n"
            "print(json.dumps(inverse_cdf(f, p, survival=1.0 - p).tolist()))\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        p = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
        for center in (1e8, 1e12):
            run = subprocess.run(
                [sys.executable, "-c", probe, repr(center), json.dumps(p)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert run.returncode == 0, run.stderr
            f = KernelCDF(WeightedSample(np.array([center, center + 3, center + 5])), 0.6)
            x = np.array(json.loads(run.stdout))
            assert_first_qualifying(f, np.array(p), 1.0 - np.array(p), x)
            assert np.all(np.abs(x - inverse_cdf(f, 0.5)) < 20.0)


def reference_inverse(cdf, p, survival=None):
    """The batched bisection inverse_cdf once ran, kept as an oracle: one
    evaluation at the support's midpoint splits the entries, and each half
    bisects all its entries in step to absolute tolerance 1e-8."""

    def bisect(qualifies, lo, hi, size):
        a, b = np.full(size, lo), np.full(size, hi)
        at_lo = qualifies(a)
        while (b - a > 1e-8).any():
            mid = 0.5 * (a + b)
            ok = qualifies(mid)
            a, b = np.where(ok, a, mid), np.where(ok, mid, b)
        return np.where(at_lo, lo, b)

    lo, hi = cdf.support
    half = 0.5 * (lo + hi)
    out = np.empty(p.shape)
    upper = p > cdf(half)
    p_low, p_up = p[~upper], p[upper]
    out[~upper] = bisect(lambda x: cdf(x) >= p_low, lo, half, p_low.size)
    if survival is None:
        out[upper] = bisect(lambda x: cdf(x) >= p_up, half, hi, p_up.size)
    else:
        q_up = survival[upper]
        out[upper] = bisect(lambda x: cdf.sf(x) <= q_up, half, hi, q_up.size)
    return out


def assert_first_qualifying(cdf, p, q, x):
    """Each x is a point of inverse_cdf's grid at which its entry qualifies, and
    the grid point below it does not, within the entry's half of the grid."""
    lo, hi = cdf.support
    step = max(2.0**-27, 4.0 * np.spacing(max(abs(lo), abs(hi))))
    top = math.ceil((hi - lo) / step)  # the grid's last point is hi
    k = np.where(x == hi, top, np.round((x - lo) / step))
    assert np.array_equal(x, np.minimum(lo + k * step, hi))
    mid = math.ceil((0.5 * (lo + hi) - lo) / step)
    upper = p > cdf(0.5 * (lo + hi))
    first, last = np.where(upper, mid, 0), np.where(upper, top, mid)

    def qualifies(x):
        if q is None:
            return cdf(x) >= p
        return np.where(upper, cdf.sf(x) <= q, cdf(x) >= p)

    assert np.all(qualifies(x) | (k == last))
    assert not np.any(qualifies(np.minimum(lo + (k - 1) * step, hi)) & (k > first))


@functools.cache
def oracle_maps(count=2000):
    """(form-X kernel CDF, p, q) of ``count`` random equipercentile maps: binomial
    scores on 1-40 items, 2-3000 records, bandwidths 0.05-2.5, weighted or not,
    some with a gap mid-scale and some read on a score grid past the support.
    p and q are the form-Y CDF and survival function, as EquipercentileMap
    passes them."""
    rng = np.random.default_rng(20240)
    maps = []
    for _ in range(count):
        items, n = int(rng.integers(1, 41)), int(rng.integers(2, 3001))
        bandwidth = rng.uniform(0.05, 2.5)

        def sample():
            scores = rng.binomial(items, rng.uniform(0.2, 0.8), n).astype(float)
            if rng.random() < 0.3:
                kept = scores[(scores < 0.3 * items) | (scores > 0.6 * items)]
                scores = kept if kept.size else scores
            weights = rng.uniform(0.2, 5.0, scores.size) if rng.random() < 0.5 else None
            return WeightedSample(scores, weights)

        cdf_y, cdf_x = KernelCDF(sample(), bandwidth), KernelCDF(sample(), bandwidth)
        grid = np.arange(-3.0, items + 4.0) if rng.random() < 0.3 else np.arange(items + 1.0)
        p = np.maximum.accumulate(cdf_y(grid))
        maps.append((cdf_x, p, np.minimum.accumulate(cdf_y.sf(grid))))
    return maps
