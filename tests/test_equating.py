"""Tests for the transform families and the equipercentile generalization."""

import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localeq.core import (
    ECDF,
    KernelCDF,
    LinearTransform,
    ScoreTable,
    TransformFamily,
    WeightedSample,
)
from localeq.equating import (
    EquipercentileMap,
    IPWWeights,
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
    LocalEqError,
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

    def test_empty_table_has_no_cell(self):
        with pytest.raises(EmptyFamilyError):
            anchor_family(ScoreTable(form=[], score=[], anchor=[]))

    def test_missing_anchor_rejected(self):
        with pytest.raises(InvalidWeightError):
            anchor_family(table([rec(0, 2), rec(1, 3)]))

    def test_mean_maps_to_mean(self, shifted_records):
        t = anchor_family(table(shifted_records)).entries[1]
        assert t(2.0) == pytest.approx(3.0, abs=1e-10)  # mu_y=2 -> mu_x=3


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
            members = np.flatnonzero(assignment.labels == k)
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

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan])
    def test_propensity_bounds(self, bad):
        records = [rec(1, 5), rec(0, 6)]
        assignment = stratify_quantile(np.full(2, 0.5), 1)
        with pytest.raises(InvalidWeightError, match="propensities"):
            ipw_weights(table(records), assignment, np.array([0.5, bad]))


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

    def test_stratum_with_constant_form_y_scores_omitted(self):
        # stratum 1's form-Y scores are all 7; with these weights the
        # rounded weighted mean is 7 - 1 ulp, which once gave a slope near 1e15
        records = [rec(0, 2), rec(0, 4), rec(0, 6), rec(1, 7), rec(1, 7), rec(1, 7)]
        records += [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        strata = StratumAssignment(K=2, labels=np.array([1] * 6 + [2] * 4))
        w = np.array([1.0, 1.0, 1.0, 0.4, 1.3, 2.2, 1.0, 1.0, 1.0, 1.0])
        weights = IPWWeights(raw=w, trimmed=w, assignment=strata, trim_alpha=0.0)
        fam = ipw_family(table(records), weights)
        assert fam.omitted == [1]
        assert fam.entries[2].slope == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-1, -3, 1.5, math.nan])
    def test_hand_built_strata_outside_the_key_rejected(self, bad):
        # a negative or fractional stratum would wrap or truncate in the
        # unsigned (cell, form) key and fall into another stratum's run, so
        # it is rejected where the stratification the weights take is built
        strata = np.array([bad] * 4 + [127] * 4)
        with pytest.raises(DimensionError, match="whole numbers"):
            StratumAssignment(K=127, labels=strata)

    def test_hand_built_list_labels_are_stored_as_an_array(self):
        # a list once passed construction and failed later in both consumers
        # with "'list' object has no attribute 'size'"
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        strata = StratumAssignment(K=1, labels=[1, 1, 1, 1])
        assert isinstance(strata.labels, np.ndarray)
        assert strat_family(table(records), strata).entries[1].slope == pytest.approx(1.0)
        weights = ipw_weights(table(records), strata, np.full(4, 0.5), trim_alpha=0.0)
        np.testing.assert_array_equal(weights.trimmed, np.ones(4))

    @pytest.mark.parametrize("labels", [np.ones((2, 2)), np.ones((4, 1)), np.array(1)])
    def test_hand_built_labels_must_be_one_dimensional(self, labels):
        with pytest.raises(DimensionError, match="1-d"):
            StratumAssignment(K=1, labels=labels)

    @pytest.mark.parametrize("column", ["raw", "trimmed", "strata"])
    @pytest.mark.parametrize("size", [7, 9])
    def test_hand_built_weights_need_one_entry_per_record(self, column, size):
        # a short or long column once reached ipw_family as a bare IndexError
        columns = {"raw": np.ones(8), "trimmed": np.ones(8), "strata": np.repeat([1, 2], 4)}
        columns[column] = columns[column][:size] if size < 8 else np.resize(columns[column], size)
        strata = StratumAssignment(K=2, labels=columns.pop("strata"))
        with pytest.raises(DimensionError, match="one entry per record"):
            IPWWeights(**columns, assignment=strata, trim_alpha=0.0)

    def test_weights_cannot_be_reassigned(self):
        # a reassigned column skipped the length check: a short trimmed
        # column reached ipw_family as a bare IndexError
        records = [rec(0, 2), rec(0, 4), rec(1, 1), rec(1, 3)]
        assignment = stratify_quantile(np.full(4, 0.5), 1)
        w = ipw_weights(table(records), assignment, np.full(4, 0.5))
        with pytest.raises(FrozenInstanceError):
            w.trimmed = np.ones(3)
        assert ipw_family(table(records), w).entries[1].slope == pytest.approx(1.0)

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

    @pytest.mark.parametrize("conditioning", ["anchor", "strata", "ipw"])
    def test_large_bandwidth_slope_against_the_linear_slope(self, conditioning):
        # one cell with n_x = 4, n_y = 40: the kernel CDF takes the n sd, the
        # linear anchor and strata maps the n-1 sd, the IPW map the weight-sum sd
        rng = np.random.default_rng(29)
        n_x, n_y = 4, 40
        records = [rec(0, int(s), anchor=1) for s in rng.binomial(30, 0.55, n_x)]
        records += [rec(1, int(s), anchor=1) for s in rng.binomial(30, 0.45, n_y)]
        strata = stratify_quantile(np.full(n_x + n_y, 0.5), 1)
        factor = math.sqrt((n_x - 1) / n_x * n_y / (n_y - 1))
        if conditioning == "anchor":
            by, linear = "anchor", anchor_family(table(records))
        elif conditioning == "strata":
            by, linear = strata, strat_family(table(records), strata)
        else:
            pi = rng.uniform(0.3, 0.7, n_x + n_y)
            by = ipw_weights(table(records), strata, pi, trim_alpha=0.0)
            linear, factor = ipw_family(table(records), by), 1.0
        sd = np.std([r[1] for r in records if r[0] == 1])
        smooth = equipercentile_family(table(records), by, bandwidth=1e4 * sd).entries[1]
        mid, slope = linear.entries[1].mu_y, linear.entries[1].slope
        assert factor == 1.0 or factor < 0.88
        assert (smooth(mid + 1.0) - smooth(mid - 1.0)) / 2.0 == pytest.approx(
            slope * factor, rel=1e-6
        )

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
        strata = StratumAssignment(K=2, labels=table(records).anchor)
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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 3000),
        items=st.integers(1, 40),
        unit_weights=st.booleans(),
        bandwidth=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_sample_maps_back(self, n, items, unit_weights, bandwidth, seed):
        rng = np.random.default_rng(seed)
        scores = rng.binomial(items, rng.uniform(0.2, 0.8), n).astype(float)
        weights = None if unit_weights else rng.uniform(0.01, 10.0, n)
        assert_shift_maps_back(scores, weights, bandwidth, items)


def assert_shift_maps_back(scores, weights, bandwidth, items, shift=3.0):
    """Equating Y = X + shift (same weights) onto X returns y - shift, to 1e-6,
    at every grid point whose answer x = y - shift lies inside the support and
    is well conditioned. Returns the masks of the points checked and of the
    points inside the support.

    Well conditioned: f_X(x) > 1e-6 min(F_X(x), S_X(x)), so moving x by 1e-6
    changes min(F_X, S_X) by more than 1e-12 of itself and a few ulps of
    rounding in F_Y(y) or S_Y(y) cannot move the answer by 1e-6. Tail points qualify (there S_X / f_X and
    F_X / f_X shrink with the distance); points in a gap between distant
    scores, where F_X is flat to the last digit, do not.
    """
    cdf_x = KernelCDF(WeightedSample(scores, weights), bandwidth)
    cdf_y = KernelCDF(WeightedSample(scores + shift, weights), bandwidth)
    y = np.arange(-10.0, items + shift + 11.0)
    equated = EquipercentileMap(cdf_y, cdf_x)(y)
    lo, hi = cdf_x.support
    x = y - shift
    inside = (x >= lo) & (x <= hi)
    checked = inside.copy()
    if cdf_x.scale > 0:
        z = (x[:, None] - cdf_x.centers) / cdf_x.scale
        density = np.exp(-0.5 * z**2) @ cdf_x.fractions / (math.sqrt(2 * math.pi) * cdf_x.scale)
        checked &= density > 1e-6 * np.minimum(cdf_x(x), cdf_x.sf(x))
    np.testing.assert_allclose(equated[checked], x[checked], rtol=0, atol=1e-6)
    return checked, inside


class TestKernelMapTails:
    @pytest.mark.parametrize("bandwidth", [0.3, 0.6, 2.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_shifted_sample_maps_back(self, seed, bandwidth):
        rng = np.random.default_rng(seed)
        scores = rng.binomial(40, rng.uniform(0.3, 0.7), 1000).astype(float)
        checked, inside = assert_shift_maps_back(
            scores, rng.uniform(0.1, 5.0, scores.size), bandwidth, 40
        )
        # both tails are judged: the outermost points inside the support
        assert checked[np.flatnonzero(inside)[[0, -1]]].all()
        assert checked.sum() >= 0.9 * inside.sum()


class TestEquipercentileMapInput:
    @pytest.mark.parametrize(
        "cdf", [ECDF, partial(KernelCDF, bandwidth=0.6)], ids=["step", "kernel"]
    )
    def test_a_nan_score_is_rejected_and_infinities_map_to_the_support_ends(self, cdf):
        # one rule for every map kind, checked before F_Y, so no message names
        # a probability the caller never passed
        cdf_x = cdf(WeightedSample(np.arange(1.0, 5.0)))
        equate = EquipercentileMap(cdf(WeightedSample(np.arange(2.0, 6.0))), cdf_x)
        for y in (math.nan, np.array([3.0, math.nan])):
            with pytest.raises(ValueError, match="NaN score"):
                equate(y)
        assert equate(np.array([-math.inf, math.inf])).tolist() == list(cdf_x.support)


class TestFamilyAtPercentiles:
    def make_family(self, indices):
        """The cells and the columnar map of slope 1 from mu_y 0 to mu_x i."""
        column = np.asarray(indices, dtype=float)[:, None]
        return indices, LinearTransform(np.ones_like(column), np.zeros_like(column), column)

    def test_median_of_symmetric_distribution(self):
        fam = TransformFamily("anchor_score", *self.make_family([1, 2, 3]))
        picks = family_at_percentiles(fam, [50], np.array([1, 2, 3]))
        assert picks[0].index == 2

    def test_decile_fixture(self):
        fam = TransformFamily(
            "anchor_score", *self.make_family([5, 8, 11, 14, 18])
        )
        values = np.repeat([5, 8, 11, 14, 18], 2)
        picks = family_at_percentiles(fam, [10, 30, 50, 70, 90], values)
        assert [p.index for p in picks] == [5, 8, 11, 14, 18]

    def test_single_entry_family(self):
        fam = TransformFamily("stratum", *self.make_family([4]))
        picks = family_at_percentiles(fam, [10, 50, 90], np.array([4, 4, 4]))
        assert all(p.index == 4 for p in picks)

    def test_omitted_index_resolves_to_nearest_with_warning(self):
        fam = TransformFamily(
            "anchor_score", *self.make_family([1]), omitted=[2]
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


def reference_fit_cells(t, by, fit):
    """The cell engine's oracle, computed plainly per cell: four masks per
    cell, a validated WeightedSample per form, and its histogram row, the
    distinct scores with their record counts or weight totals (summed in
    record order). ``fit(x, y, weighted)`` maps the form-Y row onto the
    form-X row, each a (values, mass) pair."""
    weights, skip, kind = None, (), "stratum"
    if isinstance(by, IPWWeights):
        cells, weights, skip = by.assignment.labels, by.trimmed, by.overlap_violations
    elif isinstance(by, StratumAssignment):
        cells = by.labels
    else:
        cells, kind = t.anchor, "anchor_score"
    forms, scores = t.form, t.score.astype(float)
    entries, omitted = {}, []
    for index in sorted(set(cells.tolist())):
        in_cell = cells == index
        selections = [in_cell & (forms == 0), in_cell & (forms == 1)]
        transform = None
        if index not in skip and min(s.sum() for s in selections) >= 2:
            rows = []
            for s in selections:
                sample = WeightedSample(scores[s], None if weights is None else weights[s])
                values, bin_of = np.unique(sample.values, return_inverse=True)
                mass = np.bincount(bin_of, None if weights is None else sample.weights)
                rows.append((values, mass.astype(float)))
            transform = fit(*rows, weights is not None)
        if transform is None:
            omitted.append(index)
        else:
            entries[index] = transform
    if not entries:
        raise EmptyFamilyError(f"no {kind} cell qualified for a transform")
    return TransformFamily(
        index_kind=kind, cells=list(entries), maps=list(entries.values()), omitted=omitted
    )


def plain_sum(terms):
    """Left to right from 0.0, one rounding per term."""
    total = 0.0
    for term in terms:
        total += float(term)
    return total


def histogram_moments(values, mass, weighted):
    """Mean and sd of a histogram row: S1 / n, then the centred second pass
    over the weight sum (IPW) or n - 1; one distinct score has sd 0."""
    n = plain_sum(mass)
    mean = plain_sum(mass * values) / n
    var = plain_sum(mass * (values - mean) ** 2) / (n if weighted else n - 1)
    return mean, 0.0 if values.size == 1 else math.sqrt(var)


def reference_linear(x, y, weighted):
    (mu_x, sd_x), (mu_y, sd_y) = (histogram_moments(*row, weighted) for row in (x, y))
    if sd_x <= 0.0 or sd_y <= 0.0:
        return None
    return LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)


def reference_cdf_map(cdf):
    return lambda x, y, weighted: EquipercentileMap(
        cdf(WeightedSample(*y)), cdf(WeightedSample(*x))
    )


# the bandwidth of each fit (None for the linear one) and its reference
REFERENCE_FITS = {
    None: reference_linear,
    "step": reference_cdf_map(ECDF),
    0.7: reference_cdf_map(lambda sample: KernelCDF(sample, 0.7)),
}


def snapshot(transform):
    """A linear map as itself (== on every field); an equipercentile map as the
    type and the bytes of every array of both of its CDFs."""
    if isinstance(transform, LinearTransform):
        return transform
    return tuple(
        (type(cdf).__name__, [(k, np.asarray(v).tobytes()) for k, v in sorted(vars(cdf).items())])
        for cdf in (transform.cdf_y, transform.cdf_x)
    )


def family_outcome(build):
    """(entry keys in order, entry snapshots, omitted) of a family, or the error raised."""
    try:
        family = build()
    except LocalEqError as exc:
        return type(exc).__name__, str(exc)
    return list(family.entries), [snapshot(t) for t in family.entries.values()], family.omitted


def assert_engine_matches_reference(t, assignment, propensities, bad_weight=None):
    """Every family and fit of the cell engine against its per-cell oracle:
    the same entries bit for bit, the same omitted list, or the same error.
    ``bad_weight`` replaces one finite trimmed IPW weight."""
    weights = ipw_weights(t, assignment, propensities)
    fitted = np.flatnonzero(np.isfinite(weights.trimmed))
    if bad_weight is not None and fitted.size:
        weights.trimmed[fitted[fitted.size // 2]] = bad_weight
    everyone = StratumAssignment(K=1, labels=np.ones(len(t), dtype=int))
    conditionings = {
        "anchor": ("anchor", lambda: anchor_family(t)),
        "strata": (assignment, lambda: strat_family(t, assignment)),
        "ipw": (weights, lambda: ipw_family(t, weights)),
        "pooled": (everyone, lambda: TransformFamily("stratum", [1], [pooled_transform(t)])),
    }
    for name, (by, linear) in conditionings.items():
        for fit, reference in REFERENCE_FITS.items():
            bandwidth = None if fit == "step" else fit
            engine = linear if fit is None else partial(equipercentile_family, t, by, bandwidth)
            expected = family_outcome(partial(reference_fit_cells, t, by, reference))
            assert family_outcome(engine) == expected, (name, fit)


class TestCellEngineOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 160),
        score_max=st.sampled_from([0, 1, 3, 40]),
        anchor_max=st.integers(0, 8),
        strata=st.integers(1, 6),
        bad_weight=st.sampled_from([None, None, None, 0.0, -1.0, math.nan, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_histogram_engine_matches_the_per_cell_sums(
        self, n, score_max, anchor_max, strata, bad_weight, seed
    ):
        rng = np.random.default_rng(seed)
        t = ScoreTable(
            form=rng.integers(0, 2, n),
            score=rng.integers(0, score_max + 1, n),
            anchor=rng.integers(0, anchor_max + 1, n),
        )
        assignment = StratumAssignment(K=strata, labels=rng.integers(1, strata + 1, n))
        assert_engine_matches_reference(t, assignment, rng.uniform(0.02, 0.98, n), bad_weight)

    def test_pinned_cell_sizes(self):
        # (form X, form Y) records per anchor value and stratum: every size
        # 0, 1 and 2 in either form, a constant-score cell, tied scores, and
        # a one-form stratum (an overlap violation with NaN weights)
        sizes = {0: (0, 2), 1: (1, 2), 2: (2, 2), 3: (2, 1), 4: (2, 0), 5: (3, 3), 6: (9, 12)}
        records = []
        for cell, (n_x, n_y) in sizes.items():
            for form, count in ((0, n_x), (1, n_y)):
                for i in range(count):
                    score = 7 if cell == 5 else (3 * i + cell) % 5 + form
                    records.append(rec(form, score, anchor=cell))
        t = table(records)
        assignment = StratumAssignment(K=7, labels=t.anchor + 1)
        propensities = np.linspace(0.1, 0.9, len(t))
        assert 5 in ipw_weights(t, assignment, propensities).overlap_violations
        for bad_weight in (None, 0.0, math.nan):
            assert_engine_matches_reference(t, assignment, propensities, bad_weight)
        fam = anchor_family(t)
        assert sorted(fam.entries) == [2, 6] and fam.omitted == [0, 1, 3, 4, 5]


def ulps(a, b):
    """The distance of two floats in units in the last place of the larger."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestHistogramEngine:
    def test_moments_against_numpy_within_a_stated_ulp_bound(self):
        # unit-weight means are S1 / n with S1 an exact integer, so they equal
        # numpy's mean bit for bit; the sds and the weighted sums run in score
        # order, numpy's std and np.dot in their own orders. Measured over these
        # 200 draws (n up to 2000, up to 1000 score points): slopes at most 6
        # ulp from numpy's std(ddof=1) ratio, IPW means 14 and slopes 13 ulp
        # from np.dot's; the bound is 32
        rng = np.random.default_rng(27)
        worst = {"unit mean": 0.0, "unit slope": 0.0, "ipw mean": 0.0, "ipw slope": 0.0}
        for _ in range(200):
            n, items, k = int(rng.integers(8, 2000)), int(rng.choice([3, 40, 1000])), 3
            form, score = rng.integers(0, 2, n), rng.integers(0, items + 1, n)
            cells = rng.integers(0, k, n)
            t = ScoreTable(form=form, score=score, anchor=cells)
            w = rng.uniform(0.2, 5.0, n)
            strata = StratumAssignment(K=k, labels=cells + 1)
            weights = IPWWeights(raw=w, trimmed=w, assignment=strata, trim_alpha=0.0)
            for kind, family, offset in (("unit", anchor_family(t), 0),
                                         ("ipw", ipw_family(t, weights), 1)):
                for cell, fitted in family.entries.items():
                    moments = []
                    for f in (0, 1):
                        pick = (cells == cell - offset) & (form == f)
                        v, ww = score[pick].astype(float), w[pick]
                        if kind == "unit":
                            moments.append((v.mean(), v.std(ddof=1)))
                        else:
                            mean = np.dot(ww, v) / ww.sum()
                            var = np.dot(ww, (v - mean) ** 2) / ww.sum()
                            moments.append((mean, math.sqrt(var)))
                    (mu_x, sd_x), (mu_y, sd_y) = moments
                    worst[f"{kind} mean"] = max(
                        worst[f"{kind} mean"], ulps(fitted.mu_x, mu_x), ulps(fitted.mu_y, mu_y)
                    )
                    worst[f"{kind} slope"] = max(
                        worst[f"{kind} slope"], ulps(fitted.slope, sd_x / sd_y)
                    )
        assert worst["unit mean"] == 0.0
        assert max(worst.values()) <= 32, worst

    def test_scores_and_anchors_near_2_to_the_63_take_ranks(self):
        # the dense grid of anchors near 2**62 and scores near 10**12 would
        # overflow int64; their ranks give the reference's bits, and a cell
        # whose scores round to one float is a one-value cell
        rng = np.random.default_rng(3)
        n = 120
        anchor = 2**62 + rng.integers(0, 4, n) * (2**40 + 1)
        score = 10**12 + rng.integers(0, 9, n) * 10**9
        score[anchor == 2**62] = 2**62 + rng.integers(0, 2, int(np.sum(anchor == 2**62)))
        t = ScoreTable(form=rng.integers(0, 2, n), score=score, anchor=anchor)
        assignment = StratumAssignment(K=3, labels=rng.integers(1, 4, n))
        assert_engine_matches_reference(t, assignment, rng.uniform(0.05, 0.95, n))
        assert 2**62 in anchor_family(t).omitted

    def test_ranked_and_dense_grids_give_the_same_bits(self):
        # one record at anchor 2**62 sends the other cells through the ranks;
        # each of their sums sees the same bins in the same order
        rng = np.random.default_rng(8)
        form, score = rng.integers(0, 2, 400), rng.integers(0, 41, 400)
        anchor = rng.integers(0, 9, 400)
        w = rng.uniform(0.2, 5.0, 400)
        big = ScoreTable(form=np.append(form, 1), score=np.append(score, 7),
                         anchor=np.append(anchor, 2**62))
        small = ScoreTable(form=form, score=score, anchor=anchor)
        for fit in (anchor_family, partial(equipercentile_family, by="anchor", bandwidth=0.7)):
            dense, ranked = family_outcome(lambda: fit(small)), family_outcome(lambda: fit(big))
            assert ranked[:2] == dense[:2] and ranked[2] == dense[2] + [2**62]
        strata = StratumAssignment(K=2**62 + 1, labels=big.anchor + 1)
        weights = IPWWeights(raw=np.append(w, 1.0), trimmed=np.append(w, 1.0),
                             assignment=strata, trim_alpha=0.0)
        dense_strata = StratumAssignment(K=9, labels=anchor + 1)
        dense_weights = IPWWeights(raw=w, trimmed=w, assignment=dense_strata, trim_alpha=0.0)
        assert family_outcome(lambda: ipw_family(big, weights))[:2] == family_outcome(
            lambda: ipw_family(small, dense_weights))[:2]

    def test_ranked_grid_memory_is_per_record(self):
        # distinct anchors and scores: a dense grid would hold 2 n**2 bins;
        # measured peak 215 B per record at n = 4000 (the 1000 fitted
        # transforms included), bound 400 B
        n = 4000
        t = ScoreTable(form=np.arange(n) % 2, score=np.arange(n) * 3, anchor=np.arange(n) // 4)
        tracemalloc.start()
        try:
            family = anchor_family(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family) == n // 4
        assert peak <= 400 * n

    def test_nan_weights_of_a_one_form_stratum_touch_no_other_cell(self):
        # stratum 2 holds form Y only: ipw_weights gives its records NaN, which
        # must not raise and must leave the other strata's sums as they are
        rng = np.random.default_rng(11)
        labels = rng.integers(1, 4, 300)
        form = np.where(labels == 2, 1, rng.integers(0, 2, 300))
        t = ScoreTable(form=form, score=rng.integers(0, 41, 300))
        assignment = StratumAssignment(K=3, labels=labels)
        weights = ipw_weights(t, assignment, rng.uniform(0.05, 0.95, 300))
        assert weights.overlap_violations == [2] and np.isnan(weights.trimmed[labels == 2]).all()
        keep = labels != 2
        rest = IPWWeights(
            raw=weights.raw[keep], trimmed=weights.trimmed[keep], trim_alpha=0.01,
            assignment=StratumAssignment(K=3, labels=labels[keep]),
        )
        t_rest = ScoreTable(form=form[keep], score=t.score[keep])
        for fit in (ipw_family, partial(equipercentile_family, bandwidth=0.7)):
            with_nan = family_outcome(lambda: fit(t, weights))
            assert with_nan[2] == [2]
            assert with_nan[:2] == family_outcome(lambda: fit(t_rest, rest))[:2]

    def test_unit_weight_step_ecdf_keeps_the_sorted_build_bits(self):
        # cumulative counts are exact integers, so the ECDF of a histogram row
        # is the ECDF of its records, bit for bit
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(1, 400))
            values = rng.integers(0, int(rng.choice([1, 5, 41, 200])) + 1, n).astype(float)
            distinct, counts = np.unique(values, return_counts=True)
            records, row = ECDF(WeightedSample(values)), ECDF(WeightedSample(distinct, counts))
            for name in ("points", "cum_fractions"):
                assert getattr(records, name).tobytes() == getattr(row, name).tobytes()


def reference_ipw_weights(table, assignment, propensities, trim_alpha=0.01):
    """The per-stratum loop the one-sort ipw_weights replaced, kept as its
    oracle: one selection and one ``np.quantile`` call per stratum."""
    if not 0.0 <= trim_alpha < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {trim_alpha}")
    pi = np.asarray(propensities, dtype=float).reshape(-1)
    if pi.size != len(table) or assignment.labels.size != len(table):
        raise DimensionError("propensities/assignment do not cover the records")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise InvalidWeightError("propensities must lie strictly inside (0, 1)")
    raw = np.full(pi.size, np.nan)
    trimmed = np.full(pi.size, np.nan)
    violations = []
    for k in range(1, assignment.K + 1):
        members = np.flatnonzero(assignment.labels == k)
        if members.size == 0:
            continue
        t = table.form[members]
        n_y = int(t.sum())
        if n_y == 0 or n_y == members.size:
            violations.append(k)
            continue
        p_k = n_y / members.size
        w = np.where(t == 1, p_k / pi[members], (1.0 - p_k) / (1.0 - pi[members]))
        lo, hi = np.quantile(w, [trim_alpha / 2.0, 1.0 - trim_alpha / 2.0])
        raw[members] = w
        trimmed[members] = np.clip(w, lo, hi)
    return IPWWeights(
        raw=raw,
        trimmed=trimmed,
        assignment=assignment,
        trim_alpha=trim_alpha,
        overlap_violations=violations,
    )


def assert_ipw_weights_match_reference(t, assignment, propensities, trim_alpha):
    got = ipw_weights(t, assignment, propensities, trim_alpha)
    want = reference_ipw_weights(t, assignment, propensities, trim_alpha)
    for name in ("raw", "trimmed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.assignment is assignment
    assert got.trim_alpha == want.trim_alpha
    assert got.overlap_violations == want.overlap_violations
    assert all(type(k) is int for k in got.overlap_violations)


class TestIPWWeightsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 300),
        strata=st.integers(1, 9),
        used=st.integers(1, 9),
        distinct=st.sampled_from([1, 2, 5, None]),
        trim_alpha=st.one_of(st.sampled_from([0.0, 0.49]), st.floats(0.0, 0.49)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sorted_pass_matches_the_stratum_loop(
        self, n, strata, used, distinct, trim_alpha, seed
    ):
        # strata above ``used`` stay empty; each stratum's form-Y share is
        # 0, 1 (one-form strata), small or even; a few distinct propensities
        # tie the weights
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, min(used, strata) + 1, n)
        share = rng.choice([0.0, 1.0, 0.05, 0.5], strata)[labels - 1]
        t = ScoreTable(form=(rng.random(n) < share).astype(int), score=rng.integers(0, 40, n))
        pool = rng.uniform(0.01, 0.99, n if distinct is None else distinct)
        propensities = pool[rng.integers(0, pool.size, n)] if n else np.empty(0)
        assignment = StratumAssignment(K=strata, labels=labels)
        assert_ipw_weights_match_reference(t, assignment, propensities, trim_alpha)

    @pytest.mark.parametrize("trim_alpha", [0.0, 0.01, 0.49])
    def test_pinned_strata(self, trim_alpha):
        # stratum sizes 0, 1 (form X only), 2 (one per form), 3 with tied
        # weights, a one-form stratum of 4, and 40 with spread weights
        groups = [(2, [0]), (3, [0, 1]), (4, [1, 0, 1]), (5, [1] * 4), (6, [0, 1] * 20)]
        labels = np.concatenate([[k] * len(forms) for k, forms in groups])
        forms = np.concatenate([forms for _, forms in groups])
        propensities = np.where(labels == 4, 0.5, np.linspace(0.05, 0.95, labels.size))
        t = ScoreTable(form=forms, score=np.arange(labels.size))
        assignment = StratumAssignment(K=6, labels=labels)
        assert_ipw_weights_match_reference(t, assignment, propensities, trim_alpha)
        assert ipw_weights(t, assignment, propensities, trim_alpha).overlap_violations == [2, 5]

    def test_empty_table(self):
        t = ScoreTable(form=np.empty(0, dtype=int), score=np.empty(0, dtype=int))
        assignment = StratumAssignment(K=3, labels=np.empty(0, dtype=int))
        assert_ipw_weights_match_reference(t, assignment, np.empty(0), 0.01)
