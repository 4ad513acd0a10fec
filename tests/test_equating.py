"""Tests for the transform families and the equipercentile generalization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localeq.core import KernelCDF, LinearTransform, ScoreTable, TransformFamily, WeightedSample
from localeq.equating import (
    EquipercentileMap,
    anchor_family,
    equipercentile_family,
    family_at_percentiles,
    ipw_family,
    ipw_weights,
    pooled_transform,
    strat_family,
)
from localeq.errors import (
    DimensionError,
    EmptyFamilyError,
    InvalidWeightError,
)
from localeq.propensity import StratumAssignment, stratify_quantile


def rec(form, score, anchor=None, cov=()):
    return form, score, anchor, cov


def table(records):
    """A ScoreTable from rec() rows; the anchor column only if every row has one."""
    form, score, anchor, cov = zip(*records)
    return ScoreTable(
        form=form,
        score=score,
        anchor=None if all(a is None for a in anchor) else anchor,
        covariates=np.array(cov, dtype=float).reshape(len(records), -1),
    )


# every family that conditions on the anchor score, linear and equipercentile
ANCHOR_FAMILIES = {
    "anchor_family": anchor_family,
    "step": lambda records: equipercentile_family(records, "anchor"),
    "kernel": lambda records: equipercentile_family(records, "anchor", 1.0),
    "inf": lambda records: equipercentile_family(records, "anchor", math.inf),
}


@pytest.fixture
def shifted_records():
    # at anchor 1: X scores {2,4}, Y scores {1,3} -> slope 1, shift +1
    return [
        rec(0, 2, anchor=1),
        rec(0, 4, anchor=1),
        rec(1, 1, anchor=1),
        rec(1, 3, anchor=1),
    ]


class TestAnchorFamily:
    def test_hand_computed_shift(self, shifted_records):
        fam = anchor_family(table(shifted_records))
        t = fam.entries[1]
        assert t.slope == pytest.approx(1.0)
        assert t(1.0) == pytest.approx(2.0)
        assert t(3.0) == pytest.approx(4.0)

    def test_symmetric_data_gives_identity(self):
        records = []
        for a in (3, 5):
            for s in (10, 12, 17):
                records.append(rec(0, s, anchor=a))
                records.append(rec(1, s, anchor=a))
        fam = anchor_family(table(records))
        for a in (3, 5):
            t = fam.entries[a]
            for y in (10.0, 13.5, 17.0):
                assert t(y) == pytest.approx(y, abs=1e-10)

    def test_one_sided_anchor_value_omitted(self, shifted_records):
        records = shifted_records + [rec(0, 7, anchor=9), rec(0, 8, anchor=9)]
        fam = anchor_family(table(records))
        assert 9 in fam.omitted
        assert 9 not in fam.entries

    def test_single_record_cell_omitted(self, shifted_records):
        # anchor 2: one record per form; anchor 3: one X, three Y
        records = shifted_records + [rec(0, 5, anchor=2), rec(1, 6, anchor=2)]
        records += [rec(0, 7, anchor=3)] + [rec(1, s, anchor=3) for s in (5, 6, 8)]
        for name, build in ANCHOR_FAMILIES.items():
            fam = build(table(records))
            assert fam.omitted == [2, 3], name
            assert list(fam.entries) == [1], name

    def test_zero_sd_cell_omitted(self):
        records = [
            rec(0, 4, anchor=1),
            rec(0, 4, anchor=1),
            rec(1, 1, anchor=1),
            rec(1, 3, anchor=1),
        ]
        with pytest.raises(EmptyFamilyError):
            anchor_family(table(records))

    def test_missing_anchor_rejected(self):
        with pytest.raises(InvalidWeightError):
            anchor_family(table([rec(0, 2), rec(1, 3)]))

    def test_mean_maps_to_mean(self, shifted_records):
        t = anchor_family(table(shifted_records)).entries[1]
        assert t(2.0) == pytest.approx(3.0, abs=1e-10)  # mu_y=2 -> mu_x=3

    def test_direction_symmetry(self, shifted_records):
        t = anchor_family(table(shifted_records)).entries[1]
        for y in (0.0, 2.0, 11.0):
            assert t.inverse()(t(y)) == pytest.approx(y, abs=1e-10)


class TestStratFamily:
    def test_single_stratum_matches_anchor_oracle(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        t = strat_family(table(records), assignment).entries[1]
        assert t.slope == pytest.approx(1.0)
        assert t(1.0) == pytest.approx(2.0)

    def test_identity_within_strata(self):
        records = [rec(0, 5), rec(0, 9), rec(1, 5), rec(1, 9)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        t = strat_family(table(records), assignment).entries[1]
        assert t(7.0) == pytest.approx(7.0, abs=1e-10)

    def test_thin_stratum_omitted(self):
        # stratum 2 holds a single form-Y record
        records = [
            rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3),
            rec(0, 5), rec(0, 6), rec(0, 7), rec(1, 9),
        ]
        assignment = stratify_quantile(
            np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]), 2
        )
        fam = strat_family(table(records), assignment)
        assert 2 in fam.omitted
        assert 1 in fam.entries

    def test_assignment_must_cover_records(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        with pytest.raises(DimensionError):
            strat_family(table(records), assignment)


class TestIPWWeights:
    def test_stabilization_identity(self):
        records = [rec(1, 5), rec(1, 6), rec(0, 7), rec(0, 8)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5), trim_alpha=0.01)
        np.testing.assert_array_equal(w.raw, 1.0)
        np.testing.assert_array_equal(w.trimmed, 1.0)

    def test_direct_formula_value(self):
        # p_k = 0.5; the T=1 record with pi = 0.25 gets w = 2.0
        records = [rec(1, 5), rec(0, 6)]
        assignment = stratify_quantile(np.full(2, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.array([0.25, 0.5]), trim_alpha=0.0)
        assert w.raw[0] == pytest.approx(2.0)
        assert w.raw[1] == pytest.approx(1.0)

    def test_trimming_against_quantile_oracle(self):
        # untrimmed weights {0.5, 1, 1, 4}; alpha 0.25 clips at the sample
        # 12.5% / 87.5% linear-interpolation quantiles = 0.6875 and 2.875
        records = [rec(1, 5), rec(0, 6), rec(0, 7), rec(0, 8)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        pi = np.array([0.5, 0.25, 0.25, 0.8125])
        w = ipw_weights(table(records), assignment, pi, trim_alpha=0.25)
        np.testing.assert_allclose(w.raw, [0.5, 1.0, 1.0, 4.0])
        np.testing.assert_allclose(w.trimmed, [0.6875, 1.0, 1.0, 2.875])

    def test_trimmed_within_quantile_bounds(self):
        rng = np.random.default_rng(2)
        n = 40
        records = [rec(int(t), 5) for t in rng.integers(0, 2, n)]
        pi = rng.uniform(0.2, 0.8, n)
        assignment = stratify_quantile(pi, 4)
        w = ipw_weights(table(records), assignment, pi, trim_alpha=0.1)
        for k in range(1, 5):
            members = assignment.members(k)
            raw = w.raw[members]
            lo, hi = np.quantile(raw, [0.05, 0.95])
            assert np.all(w.trimmed[members] >= lo - 1e-12)
            assert np.all(w.trimmed[members] <= hi + 1e-12)

    def test_all_weights_positive(self):
        rng = np.random.default_rng(7)
        n = 60
        records = [rec(int(t), 3) for t in rng.integers(0, 2, n)]
        pi = rng.uniform(0.1, 0.9, n)
        assignment = stratify_quantile(pi, 3)
        w = ipw_weights(table(records), assignment, pi)
        assert np.all(w.raw[~np.isnan(w.raw)] > 0)

    def test_single_form_stratum_is_violation(self):
        records = [rec(1, 5), rec(1, 6), rec(0, 7), rec(0, 8)]
        assignment = stratify_quantile(np.array([0.1, 0.2, 0.8, 0.9]), 2)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5))
        assert w.overlap_violations == [1, 2]
        assert np.all(np.isnan(w.raw))

    def test_alpha_validation(self):
        records = [rec(1, 5), rec(0, 6)]
        assignment = stratify_quantile(np.full(2, 0.5), 1)
        with pytest.raises(ValueError):
            ipw_weights(table(records), assignment, np.full(2, 0.5), trim_alpha=0.5)

    def test_propensity_bounds(self):
        records = [rec(1, 5), rec(0, 6)]
        assignment = stratify_quantile(np.full(2, 0.5), 1)
        with pytest.raises(InvalidWeightError):
            ipw_weights(table(records), assignment, np.array([0.0, 0.5]))


class TestIPWFamily:
    def test_unit_weight_oracle(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5))
        t = ipw_family(table(records), w).entries[1]
        # population sds are 1 and 1: slope 1, shift +1
        assert t.slope == pytest.approx(1.0)
        assert t(1.0) == pytest.approx(2.0)

    def test_identical_weighted_distributions_identity(self):
        records = [rec(0, 3), rec(0, 8), rec(1, 3), rec(1, 8)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5))
        t = ipw_family(table(records), w).entries[1]
        assert t(5.5) == pytest.approx(5.5, abs=1e-10)

    def test_violating_stratum_omitted(self):
        # stratum 1 is all form Y (overlap violation), stratum 2 qualifies
        records = [
            rec(1, 5), rec(1, 6), rec(1, 7), rec(1, 8),
            rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3),
        ]
        assignment = stratify_quantile(
            np.array([0.1, 0.15, 0.2, 0.25, 0.7, 0.75, 0.8, 0.85]), 2
        )
        w = ipw_weights(table(records), assignment, np.full(8, 0.5))
        fam = ipw_family(table(records), w)
        assert fam.omitted == [1]
        assert 2 in fam.entries

    def test_sd_convention_difference_shrinks_with_n(self):
        # all weights 1: ipw uses the weight-sum sd, strat the n-1 sd; the
        # transforms should agree within 1e-2 score points for n ~ 1e3
        rng = np.random.default_rng(9)
        n = 1500
        records = [
            rec(0, int(s)) for s in rng.normal(20, 5, n).clip(0).round()
        ] + [rec(1, int(s)) for s in rng.normal(18, 4, n).clip(0).round()]
        assignment = stratify_quantile(np.full(2 * n, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(2 * n, 0.5))
        t_ipw = ipw_family(table(records), w).entries[1]
        t_strat = strat_family(table(records), assignment).entries[1]
        for y in np.linspace(5, 35, 7):
            assert abs(t_ipw(y) - t_strat(y)) < 1e-2


class TestEquipercentileFamily:
    def test_identical_distributions_identity_on_support(self):
        scores = [4, 7, 7, 11, 15]
        records = [rec(0, s) for s in scores] + [rec(1, s) for s in scores]
        assignment = stratify_quantile(np.full(len(records), 0.5), 1)
        fam = equipercentile_family(table(records), assignment)
        m = fam.entries[1]
        for y in scores:
            assert m(float(y)) == pytest.approx(float(y))

    def test_matches_brute_force_percentile_ranks(self):
        rng = np.random.default_rng(31)
        x_scores = rng.integers(0, 21, 10)
        y_scores = rng.integers(0, 21, 10)
        records = [rec(0, int(s)) for s in x_scores] + [
            rec(1, int(s)) for s in y_scores
        ]
        assignment = stratify_quantile(np.full(20, 0.5), 1)
        m = equipercentile_family(table(records), assignment).entries[1]
        xs = np.sort(x_scores)
        for y in np.unique(y_scores):
            p = np.mean(y_scores <= y)
            # smallest x value whose cumulative fraction reaches p
            cum = np.arange(1, 11) / 10.0
            oracle = xs[np.argmax(cum >= p - 1e-12)]
            assert m(float(y)) == pytest.approx(float(oracle))

    def test_large_bandwidth_approaches_linear(self):
        rng = np.random.default_rng(17)
        records = [rec(0, int(s)) for s in rng.binomial(30, 0.55, 150)] + [
            rec(1, int(s)) for s in rng.binomial(30, 0.45, 150)
        ]
        assignment = stratify_quantile(np.full(300, 0.5), 1)
        y_vals = np.array([r[1] for r in records if r[0] == 1], dtype=float)
        sd = y_vals.std()
        smooth = equipercentile_family(table(records), assignment, bandwidth=1e4 * sd)
        linear = equipercentile_family(table(records), assignment, bandwidth=math.inf)
        lo, hi = np.quantile(y_vals, [0.05, 0.95])
        for y in np.linspace(lo, hi, 15):
            assert abs(smooth.entries[1](y) - linear.entries[1](y)) < 0.05

    def test_infinite_bandwidth_dispatches_to_linear(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        fam = equipercentile_family(table(records), assignment, bandwidth=math.inf)
        assert isinstance(fam.entries[1], LinearTransform)

    @pytest.mark.parametrize("conditioning", ["anchor", "strata", "ipw"])
    def test_infinite_bandwidth_is_the_linear_family(self, conditioning):
        # cell 1 has unequal per-form sizes, so n-1 and weight-sum sds
        # differ; cell 2 holds a single form-X record
        records = [rec(0, s, anchor=1) for s in (2, 4, 6)]
        records += [rec(1, s, anchor=1) for s in (1, 3)]
        records += [rec(0, 5, anchor=2), rec(1, 6, anchor=2), rec(1, 9, anchor=2)]
        strata = StratumAssignment(
            K=2, labels=table(records).anchor, boundaries=np.array([0.5])
        )
        if conditioning == "anchor":
            by, linear = "anchor", anchor_family(table(records))
        elif conditioning == "strata":
            by, linear = strata, strat_family(table(records), strata)
        else:
            pi = np.array([0.3, 0.5, 0.6, 0.4, 0.7, 0.5, 0.45, 0.55])
            by = ipw_weights(table(records), strata, pi, trim_alpha=0.0)
            linear = ipw_family(table(records), by)
        fam = equipercentile_family(table(records), by, bandwidth=math.inf)
        assert fam.index_kind == linear.index_kind
        assert fam.omitted == linear.omitted == [2]
        assert list(fam.entries) == list(linear.entries) == [1]
        got, want = fam.entries[1], linear.entries[1]
        for attr in ("slope", "mu_y", "mu_x"):
            assert getattr(got, attr) == pytest.approx(getattr(want, attr), abs=1e-12)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(23)
        records = [rec(0, int(s)) for s in rng.integers(0, 40, 25)] + [
            rec(1, int(s)) for s in rng.integers(0, 40, 25)
        ]
        assignment = stratify_quantile(np.full(50, 0.5), 1)
        for bw in (None, 2.0):
            m = equipercentile_family(table(records), assignment, bandwidth=bw).entries[1]
            grid = np.linspace(0, 40, 81)
            vals = m(grid)
            assert np.all(np.diff(vals) >= -1e-9)

    def test_ipw_weights_enter_the_cdfs(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5))
        fam = equipercentile_family(table(records), w)
        assert fam.entries[1](1.0) == pytest.approx(2.0)

    def test_anchor_conditioning(self):
        records = [
            rec(0, 2, anchor=1),
            rec(0, 4, anchor=1),
            rec(1, 1, anchor=1),
            rec(1, 3, anchor=1),
        ]
        fam = equipercentile_family(table(records), "anchor")
        assert fam.index_kind == "anchor_score"
        assert 1 in fam.entries

    def test_empty_cell_omitted(self):
        records = [
            rec(0, 2, anchor=1),
            rec(0, 4, anchor=1),
            rec(1, 1, anchor=1),
            rec(1, 3, anchor=1),
            rec(0, 9, anchor=5),
        ]
        for name, build in ANCHOR_FAMILIES.items():
            assert 5 in build(table(records)).omitted, name

    def test_unknown_conditioning(self):
        with pytest.raises(ValueError):
            equipercentile_family(table([rec(0, 1), rec(1, 2)]), "percentile")


class TestKernelMapProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 3000),
        items=st.integers(1, 40),
        unit_weights=st.booleans(),
        bandwidth=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_map_is_finite_monotone_and_inside_support(
        self, n, items, unit_weights, bandwidth, seed
    ):
        rng = np.random.default_rng(seed)

        def sample(p):
            scores = rng.binomial(items, p, n).astype(float)
            return WeightedSample(scores, None if unit_weights else rng.uniform(0.01, 10.0, n))

        x, y = sample(rng.uniform(0.2, 0.8)), sample(rng.uniform(0.2, 0.8))
        cdf_x = KernelCDF(x, bandwidth)
        equated = EquipercentileMap(KernelCDF(y, bandwidth), cdf_x)(
            np.arange(items + 1, dtype=float)
        )
        lo, hi = cdf_x.support
        assert np.all(np.isfinite(equated))
        assert np.all(np.diff(equated) >= 0.0)
        assert np.all((equated >= lo) & (equated <= hi))


class TestFamilyAtPercentiles:
    def make_family(self, indices):
        entries = {
            i: LinearTransform(1.0, 0.0, float(i)) for i in indices
        }
        return entries

    def test_median_of_symmetric_distribution(self):
        fam = TransformFamily("anchor_score", self.make_family([1, 2, 3]))
        picks = family_at_percentiles(fam, [50], np.array([1, 2, 3]))
        assert picks[0].index == 2

    def test_decile_fixture(self):
        fam = TransformFamily(
            "anchor_score", self.make_family([5, 8, 11, 14, 18])
        )
        values = np.repeat([5, 8, 11, 14, 18], 2)
        picks = family_at_percentiles(fam, [10, 30, 50, 70, 90], values)
        assert [p.index for p in picks] == [5, 8, 11, 14, 18]

    def test_single_entry_family(self):
        fam = TransformFamily("stratum", self.make_family([4]))
        picks = family_at_percentiles(fam, [10, 50, 90], np.array([4, 4, 4]))
        assert all(p.index == 4 for p in picks)

    def test_omitted_index_resolves_to_nearest_with_warning(self):
        fam = TransformFamily(
            "anchor_score", self.make_family([1]), omitted=[2]
        )
        with pytest.warns(UserWarning, match="omitted"):
            picks = family_at_percentiles(fam, [90], np.array([1, 2, 2, 2]))
        assert picks[0].requested_index == 2
        assert picks[0].index == 1


class TestPooledTransform:
    def test_matches_moment_computation(self):
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        t = pooled_transform(table(records))
        assert t.slope == pytest.approx(1.0)
        assert t(1.0) == pytest.approx(2.0)

    def test_degenerate_pool(self):
        with pytest.raises(EmptyFamilyError):
            pooled_transform(table([rec(0, 2), rec(1, 1)]))


class TestConvergenceToPooled:
    def test_independent_covariates_give_pooled_transform(self):
        # covariates carry no signal: every stratum estimates the same
        # population transform, so stratum slopes track the pooled slope
        rng = np.random.default_rng(100)
        n = 20000
        forms = rng.integers(0, 2, n)
        scores = np.where(
            forms == 1,
            rng.normal(18, 4, n),
            rng.normal(20, 5, n),
        ).clip(0).round().astype(int)
        noise = rng.normal(size=(n, 2))
        records = [
            rec(int(f), int(s), cov=tuple(c))
            for f, s, c in zip(forms, scores, noise)
        ]
        from localeq.propensity import (
            encode_covariates,
            estimate_propensity,
            fit_logistic,
        )

        enc = encode_covariates(table(records), ["numeric", "numeric"])
        model = fit_logistic(enc, forms)
        p = estimate_propensity(model, enc)
        assignment = stratify_quantile(p, 4)
        pooled = pooled_transform(table(records))
        fam_s = strat_family(table(records), assignment)
        w = ipw_weights(table(records), assignment, p)
        fam_w = ipw_family(table(records), w)
        for fam in (fam_s, fam_w):
            for t in fam.entries.values():
                assert abs(t.slope - pooled.slope) < 0.05
