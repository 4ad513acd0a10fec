"""Tests for domain types, moments, ECDFs, and kernel continuization."""

import math

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
    cell_runs,
    inverse_cdf,
    sorted_quantiles,
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
        with pytest.raises(ValueError, match="non-negative, got -4"):
            ScoreTable(form=[0, 1, 0], score=[3, -4, -7])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariate_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ScoreTable(form=[0, 1], score=[1, 2], covariates=[[0.5], [value]])

    def test_fractional_score_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            ScoreTable(form=[0, 1], score=[1, 2.5])

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

    def test_unweighted_moments_use_n_minus_1(self):
        mean, sd = unweighted_moments([2.0, 4.0])
        assert mean == pytest.approx(3.0)
        assert sd == pytest.approx(math.sqrt(2.0))

    def test_unweighted_moments_match_numpy_bit_for_bit(self):
        # every length from 2 to 3000, so both sides of numpy's 8-element
        # unrolled and 128-element pairwise-sum blocks, at three value scales
        rng = np.random.default_rng(13)
        for n in range(2, 3001):
            for v in (
                rng.integers(0, 41, n).astype(float),
                rng.normal(20.0, 5.0, n),
                rng.uniform(0.0, 1e6, n),
            ):
                assert unweighted_moments(v) == (float(v.mean()), float(v.std(ddof=1))), n

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


class TestCellRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 300),
        top=st.sampled_from([0, 1, 127, 128, 2**15, 2**31, 2**62, 2**63 - 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=0, top=2**63 - 1, seed=0)
    @example(n=300, top=2**63 - 1, seed=1)
    def test_matches_lexsort(self, n, top, seed):
        # cells from a few values up to ``top`` give ties within and across
        # forms; above 2**62 a key of 2 cell + form would wrap in int64, and
        # from 128 and 2**15 on it needs a wider unsigned dtype
        rng = np.random.default_rng(seed)
        pool = np.append(rng.integers(0, top, 3, endpoint=True), top)
        cells, forms = rng.choice(pool, n), rng.integers(0, 2, n)
        got = cell_runs(cells, forms)[0]
        assert got.tobytes() == np.lexsort((forms, cells)).tobytes()

    @pytest.mark.parametrize("cells", [[3, -1], [-(2**63), 5], [2.0, 1.5], [1e30, 1.0]])
    def test_rejects_a_cell_the_key_cannot_hold(self, cells):
        with pytest.raises(ValueError, match="whole numbers"):
            cell_runs(np.array(cells), np.zeros(2, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 200),
        top=st.sampled_from([0, 3, 200, 2**40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_run_holds_its_cells_records_of_one_form(self, n, top, seed):
        rng = np.random.default_rng(seed)
        cells, forms = rng.integers(0, top, n, endpoint=True), rng.integers(0, 2, n)
        order, cell, start, split, stop = cell_runs(cells, forms)
        assert cell.tolist() == np.unique(cells).tolist()
        assert (start[1:] == stop[:-1]).all() and stop[-1:].tolist() == [n] * bool(n)
        for c, a, b, e in zip(cell.tolist(), start, split, stop):
            assert order[a:b].tolist() == np.flatnonzero((cells == c) & (forms == 0)).tolist()
            assert order[b:e].tolist() == np.flatnonzero((cells == c) & (forms == 1)).tolist()

    def test_one_form_for_all_records(self):
        order, cell, start, split, stop = cell_runs([4, 1, 4, 4], 0)
        assert order.tolist() == [1, 0, 2, 3]
        assert (cell.tolist(), start.tolist(), split.tolist(), stop.tolist()) == (
            [1, 4], [0, 1], [1, 4], [1, 4]
        )


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
