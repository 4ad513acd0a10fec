"""Tests for the logistic model, stratification, and balance diagnostics."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from localeq.core import ScoreTable
from localeq.equating import ipw_weights
from localeq.errors import (
    DegenerateColumnWarning,
    DimensionError,
    InvalidProbabilityError,
    SeparationWarning,
    TooManyStrataError,
)
from localeq.propensity import (
    PROPENSITY_CLIP,
    SEPARATION_BOUND,
    PropensityModel,
    StratumAssignment,
    asmd,
    balance_report,
    encode_covariates,
    estimate_propensity,
    fit_logistic,
    sigmoid,
    stratify_quantile,
)


def table_from_matrix(matrix, forms):
    return ScoreTable(form=forms, score=np.zeros(len(forms), dtype=int), covariates=matrix)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_analytic_value(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75)

    def test_extreme_arguments_stay_finite(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)

    def test_monotone(self):
        eta = np.linspace(-8, 8, 200)
        assert np.all(np.diff(sigmoid(eta)) > 0)

    def test_symmetry(self):
        eta = np.array([-3.2, -0.5, 0.9, 4.4])
        np.testing.assert_allclose(sigmoid(eta) + sigmoid(-eta), 1.0, atol=1e-14)


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        # three successes out of four: logit(3/4) = log 3
        design = np.empty((4, 0))
        model = fit_logistic(design, np.array([1, 1, 1, 0]))
        assert model.converged
        # gradient stopping rule leaves ~1e-6 coefficient slack
        assert model.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-5)

    def test_matches_direct_likelihood_search(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((60, 2))
        truth = np.array([0.3, -0.6, 0.9])
        p = sigmoid(truth[0] + x @ truth[1:])
        y = (rng.random(60) < p).astype(float)
        model = fit_logistic(x, y)

        design = np.column_stack([np.ones(60), x])

        def neg_ll(beta):
            eta = design @ beta
            return -np.sum(y * eta - np.logaddexp(0.0, eta))

        res = minimize(
            neg_ll,
            np.zeros(3),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        np.testing.assert_allclose(model.coefficients, res.x, atol=1e-3)

    def test_fit_improves_on_null_likelihood(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 1))
        y = (rng.random(40) < sigmoid(1.5 * x[:, 0])).astype(float)
        model = fit_logistic(x, y)

        def ll(beta):
            eta = beta[0] + x[:, 0] * beta[1]
            return np.sum(y * eta - np.logaddexp(0.0, eta))

        assert model.final_log_likelihood >= ll(np.zeros(2)) - 1e-12

    def test_separation_is_clamped_and_warned(self):
        # unit-scale covariates: a separated slope must pass the +-15 bound
        # before the gradient can reach its tolerance
        x = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.warns(SeparationWarning):
            model = fit_logistic(x, y)
        assert not model.converged
        assert np.max(np.abs(model.coefficients)) <= SEPARATION_BOUND + 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((3, 1)), np.array([0, 1, 2]))

    def test_singular_hessian_falls_back_to_least_squares(self, monkeypatch):
        # a repeated column makes every Hessian exactly singular: the step is
        # the least-squares solution, and the fitted propensities are those of
        # the fit without the repeat
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 2))
        y = (rng.random(500) < sigmoid(x @ np.array([0.8, -0.5]))).astype(int)
        lstsq, calls = np.linalg.lstsq, []

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        repeated = np.column_stack([x, x[:, 0]])
        model = fit_logistic(repeated, y)
        monkeypatch.undo()
        reference = fit_logistic(x, y)
        assert calls and model.converged
        np.testing.assert_allclose(
            estimate_propensity(model, repeated), estimate_propensity(reference, x), atol=1e-12
        )

    def test_peak_memory_is_two_design_copies_plus_two_columns(self):
        # live at the Hessian step: the design with its intercept and its
        # weighted copy, p + 1 columns each, and the weights; the labels are
        # read as given, and the second column covers numpy's 64 kB broadcast
        # buffers. Measured 949,496 B against this bound's 992,000 B; with a
        # float copy of the labels, 1,028,560 B; before the weights were
        # computed in place, 1,188,768 B
        n, p = 10_000, 4
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, p))
        y = (rng.random(n) < sigmoid(x @ np.array([0.5, -0.3, 0.2, 0.1]))).astype(int)
        tracemalloc.start()
        try:
            fit_logistic(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (2 * (p + 1) + 2) + 32_000


class TestEstimatePropensity:
    def test_probabilities_clipped(self):
        x = np.array([[-40.0], [40.0]])
        forced = PropensityModel(
            coefficients=np.array([0.0, 5.0]),
            converged=True,
            iterations=1,
            final_log_likelihood=0.0,
        )
        p = estimate_propensity(forced, x)
        assert p.min() >= PROPENSITY_CLIP
        assert p.max() <= 1.0 - PROPENSITY_CLIP

    def test_dimension_mismatch(self):
        model = fit_logistic(np.zeros((4, 1)), np.array([0, 1, 0, 1.0]))
        with pytest.raises(DimensionError):
            estimate_propensity(model, np.zeros((4, 2)))

    def test_single_row(self):
        model = fit_logistic(np.zeros((4, 1)), np.array([0, 1, 0, 1.0]))
        p = estimate_propensity(model, np.array([0.0]))
        assert p == pytest.approx(0.5)


class TestStratifyQuantile:
    def test_even_split(self):
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        a = stratify_quantile(p, 2)
        np.testing.assert_array_equal(a.labels, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_the_labels_are_the_whole_assignment(self):
        # rank * K // n + 1: 0.4 shares stratum 2 with 0.3, though a 2/3
        # quantile cut (0.3667) would fall between them
        a = stratify_quantile([0.1, 0.2, 0.3, 0.4, 0.5], 3)
        np.testing.assert_array_equal(a.labels, [1, 1, 2, 2, 3])
        assert [f.name for f in fields(a)] == ["K", "labels"]

    def test_all_equal_propensities_split_by_position(self):
        a = stratify_quantile(np.full(8, 0.5), 4)
        np.testing.assert_array_equal(a.labels, [1, 1, 2, 2, 3, 3, 4, 4])

    def test_too_many_strata(self):
        with pytest.raises(TooManyStrataError):
            stratify_quantile(np.array([0.4, 0.6]), 3)

    @given(
        p=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1e-6, 0.25, 0.5, 1.0]),  # heavy ties
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=400,
        ),
        k=st.integers(1, 400),
    )
    @settings(max_examples=300, deadline=None)
    @example(p=[0.0, -0.0, 0.5, -0.0, 0.0, 0.5, 0.0], k=7)
    def test_labels_follow_the_stable_argsort(self, p, k):
        # the tie-keyed order is np.argsort(kind="stable"), tied signed zeros
        # included; at K = n every label is a record's rank, so the labels
        # pin the whole order
        p = np.array(p)
        for strata in {min(k, p.size), p.size}:
            expected = np.empty(p.size, dtype=int)
            expected[np.argsort(p, kind="stable")] = np.arange(p.size) * strata // p.size + 1
            assert stratify_quantile(p, strata).labels.tolist() == expected.tolist()

    @pytest.mark.parametrize("bad", [math.nan, -0.25, 1.5, math.inf])
    def test_rejects_a_propensity_outside_the_unit_interval(self, bad):
        p = np.array([0.2, 0.4, bad, 0.6, math.nan])
        with pytest.raises(InvalidProbabilityError, match=f"got {bad}"):
            stratify_quantile(p, 2)

    @pytest.mark.parametrize("bad", [0, 4, -1, 2.5])
    def test_assignment_rejects_labels_outside_one_to_k(self, bad):
        labels = np.array([1, 2, 3, bad, 0, 1])
        with pytest.raises(DimensionError, match=f"got {bad}"):
            StratumAssignment(K=3, labels=labels)
        StratumAssignment(K=3, labels=np.array([1, 2, 3, 3]))

    @pytest.mark.parametrize("labels", [[1, 1, 1, 1], np.array([0, 9, 1, 1])])
    def test_assignment_fields_cannot_be_reassigned(self, labels):
        # a reassignment skipped the label checks: a list reached strat_family
        # as a bare AttributeError, labels outside 1..K as an EmptyFamilyError
        a = stratify_quantile(np.full(4, 0.5), 1)
        with pytest.raises(FrozenInstanceError):
            a.labels = labels
        np.testing.assert_array_equal(a.labels, [1, 1, 1, 1])

    def test_assignment_labels_are_read_only(self):
        a = stratify_quantile(np.full(4, 0.5), 1)
        with pytest.raises(ValueError, match="read-only"):
            a.labels[0] = 0
        np.testing.assert_array_equal(a.labels, [1, 1, 1, 1])

    def test_labels_follow_rank(self):
        a = stratify_quantile(np.array([0.9, 0.1, 0.5, 0.3]), 2)
        # ranks: 0.1, 0.3 -> stratum 1; 0.5, 0.9 -> stratum 2
        np.testing.assert_array_equal(a.labels, [2, 1, 2, 1])

    @given(
        p=st.lists(st.floats(0.01, 0.99), min_size=4, max_size=60),
        k=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_stratum_sizes_balanced(self, p, k):
        if k > len(p):
            return
        a = stratify_quantile(np.array(p), k)
        sizes = [np.count_nonzero(a.labels == j) for j in range(1, k + 1)]
        assert sum(sizes) == len(p)
        assert max(sizes) - min(sizes) <= 1
        # sorted by propensity rank, labels are non-decreasing
        order = np.argsort(np.array(p), kind="stable")
        assert np.all(np.diff(a.labels[order]) >= 0)


class TestASMD:
    def test_hand_oracle(self):
        x = [1.0, 2.0, 3.0]  # mean 2, var 1
        y = [1.0 - math.sqrt(3), 1.0, 1.0 + math.sqrt(3)]  # mean 1, var 3
        assert asmd(x, y) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_equal_groups_zero(self):
        assert asmd([3.0, 4.0], [4.0, 3.0]) == 0.0

    def test_degenerate_equal_means(self):
        assert asmd([2.0, 2.0], [2.0, 2.0]) == 0.0

    def test_degenerate_different_means(self):
        assert asmd([1.0, 1.0], [2.0, 2.0]) == math.inf


class TestEncodeCovariates:
    def test_numeric_standardized(self):
        recs = table_from_matrix([[1.0], [2.0], [3.0], [6.0]], [0, 1, 0, 1])
        enc = encode_covariates(recs, ["numeric"])
        assert enc.shape == (4, 1)
        assert enc[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert enc[:, 0].std(ddof=1) == pytest.approx(1.0)

    def test_categorical_indicators_against_lowest(self):
        recs = table_from_matrix([[0], [1], [2], [1]], [0, 1, 0, 1])
        enc = encode_covariates(recs, ["categorical"])
        np.testing.assert_array_equal(enc, [[0, 0], [1, 0], [0, 1], [1, 0]])

    @pytest.mark.parametrize("kind", ["numeric", "categorical"])
    @pytest.mark.parametrize("level", [(5.0, 5.0), (-0.0, 0.0)])  # -0.0 == 0.0: one level
    def test_degenerate_column_dropped_with_warning(self, kind, level):
        recs = table_from_matrix([[level[0], 1.0], [level[1], 2.0]], [0, 1])
        with pytest.warns(DegenerateColumnWarning, match="covariate 0 has a single"):
            enc = encode_covariates(recs, [kind, "numeric"])
        assert enc.shape == (2, 1)

    def test_unknown_kind(self):
        recs = table_from_matrix([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            encode_covariates(recs, ["ordinal"])

    def test_arity_mismatch(self):
        recs = table_from_matrix([[1.0], [2.0]], [0, 1])
        with pytest.raises(DimensionError):
            encode_covariates(recs, ["numeric", "numeric"])


def per_stratum_asmd(table, assignment):
    """The balance table as it was before the (stratum, form) sort, kept as a
    reference: a member scan per stratum and numpy's mean / var per pair."""

    def reference_asmd(x, y):
        var_x = x.var(ddof=1) if x.size > 1 else 0.0
        var_y = y.var(ddof=1) if y.size > 1 else 0.0
        diff = abs(float(x.mean()) - float(y.mean()))
        denom = math.sqrt((var_x + var_y) / 2.0)
        if denom == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / denom

    raw, forms = table.covariates, table.form
    out = np.full((assignment.K, raw.shape[1]), np.nan)
    violations = []
    for k in range(1, assignment.K + 1):
        members = np.flatnonzero(assignment.labels == k)
        in_x = members[forms[members] == 0]
        in_y = members[forms[members] == 1]
        if in_x.size == 0 or in_y.size == 0:
            if members.size:
                violations.append(k)
            continue
        for j in range(raw.shape[1]):
            out[k - 1, j] = reference_asmd(raw[in_x, j], raw[in_y, j])
    return out, violations


class TestBalanceReport:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        K=st.one_of(st.integers(1, 12), st.integers(120, 300)),
        n_cov=st.integers(1, 4),
        share_y=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        levels=st.sampled_from([2, 5, None]),
        float_labels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=400, K=128, n_cov=2, share_y=0.5, levels=None, float_labels=False, seed=1)
    @example(n=400, K=300, n_cov=1, share_y=0.5, levels=2, float_labels=True, seed=2)
    def test_sorted_slices_match_the_per_stratum_loop(
        self, n, K, n_cov, share_y, levels, float_labels, seed
    ):
        # few form-Y records or few levels give one-form strata and constant samples;
        # from K = 128 on, the (stratum, form) key 2 k + form needs 16 bits
        rng = np.random.default_rng(seed)
        K = min(K, n)
        forms = (rng.random(n) < share_y).astype(int)
        cov = rng.normal(size=(n, n_cov)) * 10.0 ** rng.integers(-3, 4, n_cov)
        if levels is not None:
            cov = rng.integers(0, levels, (n, n_cov)).astype(float)
        table = table_from_matrix(cov, forms)
        assignment = stratify_quantile(rng.random(n), K)
        if float_labels:  # whole numbers as floats, as a hand-built assignment may hold them
            assignment = StratumAssignment(K, assignment.labels.astype(float))
        report = balance_report(table, assignment, [f"c{j}" for j in range(n_cov)])
        want, violations = per_stratum_asmd(table, assignment)
        assert report.asmd.tobytes() == want.tobytes()
        assert report.overlap_violations == violations

    def test_single_stratum_oracle(self):
        x_vals = [1.0, 2.0, 3.0]
        y_vals = [1.0 - math.sqrt(3), 1.0, 1.0 + math.sqrt(3)]
        recs = table_from_matrix(
            [[v] for v in x_vals + y_vals], [0, 0, 0, 1, 1, 1]
        )
        a = stratify_quantile(np.full(6, 0.5), 1)
        report = balance_report(recs, a, ["verbal"])
        assert report.asmd.shape == (1, 1)
        assert report.asmd[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert report.satisfactory_fraction[0] == 0.0
        assert report.covariate_names == ["verbal"]

    def test_overlap_violation_flagged(self):
        # stratum 1 holds only form-X records
        recs = table_from_matrix([[1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1])
        a = stratify_quantile(np.array([0.1, 0.2, 0.8, 0.9]), 2)
        report = balance_report(recs, a, ["verbal"])
        assert report.overlap_violations == [1]
        assert math.isnan(report.asmd[0, 0])

    def test_empty_stratum_is_no_overlap_violation(self):
        # stratum 2 holds no record and stratum 3 only form Y: the balance
        # table lists the strata ipw_weights lists
        labels = np.array([1, 1, 1, 1, 3, 3])
        recs = table_from_matrix([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]], [0, 1, 0, 1, 1, 1])
        a = StratumAssignment(K=3, labels=labels)
        report = balance_report(recs, a, ["verbal"])
        weights = ipw_weights(recs, a, np.full(6, 0.5))
        assert report.overlap_violations == weights.overlap_violations == [3]
        assert np.isnan(report.asmd[1:, 0]).all() and not np.isnan(report.asmd[0, 0])

    def test_labels_must_cover_the_records(self):
        # one label for four records: it must not broadcast over them
        recs = table_from_matrix([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        a = StratumAssignment(K=1, labels=np.array([1]))
        with pytest.raises(DimensionError, match="do not cover the records"):
            balance_report(recs, a, ["verbal"])

    @pytest.mark.parametrize("names", [[], ["verbal"], ["verbal", "math", "age"]])
    def test_one_name_per_covariate_column(self, names):
        recs = table_from_matrix([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]], [0, 1, 0, 1])
        a = stratify_quantile(np.array([0.1, 0.2, 0.8, 0.9]), 2)
        with pytest.raises(DimensionError, match=f"{len(names)} covariate names for 2 columns"):
            balance_report(recs, a, names)

    def test_balanced_data_satisfies_threshold(self):
        rng = np.random.default_rng(11)
        n = 4000
        cov = rng.normal(size=(n, 2))
        forms = (rng.random(n) < 0.5).astype(int)
        recs = table_from_matrix(cov, forms)
        a = stratify_quantile(np.full(n, 0.5), 4)
        report = balance_report(recs, a, ["verbal", "math"])
        assert np.all(report.satisfactory_fraction == 1.0)
