"""Tests for the synthetic 2PL data generator and its analytic oracles."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from localeq.core import LinearTransform
from localeq.errors import OmittedBinError
from localeq.propensity import sigmoid
from localeq.simulation import (
    BLOCK_SIZE,
    ItemParams,
    SimulationConfig,
    conditional_score_moments,
    covariates_from_design,
    draw_covariate_design,
    draw_design,
    draw_items,
    gen_population,
    mixture_score_distribution,
    normal_quadrature,
    prob_2pl,
    score_distribution,
    true_transform,
)
from localeq.simulation import _draw_counts, _legendre


def masked_sigmoid(eta):
    """The two-branch sigmoid the one-exp form replaced, kept as a reference."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expeta = np.exp(eta[~pos])
    out[~pos] = expeta / (1.0 + expeta)
    return out if out.ndim else float(out)


def reference_population(config, rng):
    """The draw as it was written before the taken-form 2PL evaluation.

    Same draw order as ``gen_population``; both forms' probabilities are
    evaluated for every examinee and the taken one picked with np.where.
    """

    def p2pl(theta, a, b):
        return masked_sigmoid(np.asarray(a, dtype=float) * (theta - np.asarray(b, dtype=float)))

    design = draw_design(config, rng)
    n = config.n
    group = (rng.random(n) < 0.5).astype(int)
    means = np.asarray(config.group_theta_means, dtype=float)
    theta = means[group] + config.theta_sd * rng.standard_normal(n)
    p_anchor = p2pl(theta[:, None], design.anchor_items.a, design.anchor_items.b)
    anchor_score = (rng.random(p_anchor.shape) < p_anchor).sum(axis=1)
    columns = []
    for c in design.covariates:
        p = p2pl(theta[:, None], c.a, c.b)
        columns.append((rng.random(p.shape) < p).sum(axis=1))
    covariates = np.column_stack(columns).astype(float)
    beta = np.asarray(config.beta, dtype=float)
    raw = np.column_stack([anchor_score, covariates]).astype(float)
    sds = raw.std(axis=0, ddof=1) if n > 1 else np.zeros(raw.shape[1])
    keep = sds > 0.0
    proxies = (raw[:, keep] - raw[:, keep].mean(axis=0)) / sds[keep]
    propensity = masked_sigmoid(beta[0] + proxies @ beta[1:][keep])
    form = (rng.random(n) < propensity).astype(int)
    p_x = p2pl(theta[:, None], design.form_x_items.a, design.form_x_items.b)
    p_y = p2pl(theta[:, None], design.form_y_items.a, design.form_y_items.b)
    p_taken = np.where(form[:, None] == 1, p_y, p_x)
    score = (rng.random(p_taken.shape) < p_taken).sum(axis=1)
    return dict(theta=theta, group=group, anchor_score=anchor_score, covariates=covariates,
                proxies=proxies, propensity=propensity, form=form, score=score)


def unblocked_moments(items, theta):
    """conditional_score_moments on the whole theta x items matrix at once."""
    theta = np.asarray(theta, dtype=float)
    p = masked_sigmoid(items.a * (theta[..., None] - items.b))
    return p.sum(axis=-1), (p * (1.0 - p)).sum(axis=-1)


# rows per block of the taken-form draw (40 items by default)
TAKEN_BLOCK = BLOCK_SIZE // SimulationConfig().items


def per_node_score_distribution(items, nodes, weights):
    """The Lord-Wingersky recursion one node at a time, kept as a reference."""
    out = np.zeros(items.n_items + 1)
    for theta, w in zip(nodes, weights):
        p = prob_2pl(float(theta), items.a, items.b)
        dist = np.array([1.0])
        for p_l in p:
            nxt = np.empty(dist.size + 1)
            nxt[0] = dist[0] * (1.0 - p_l)
            nxt[-1] = dist[-1] * p_l
            nxt[1:-1] = dist[1:] * (1.0 - p_l) + dist[:-1] * p_l
            dist = nxt
        out += w * dist
    return out


def broadcast_score_distribution(items, nodes, weights):
    """The recursion over one broadcast nodes x items ``prob_2pl`` matrix, all
    nodes at once, kept as a reference."""
    p = prob_2pl(nodes[:, None], items.a, items.b)
    dist = np.ones((nodes.size, 1))
    for p_l in p.T[:, :, None]:
        q_l = 1.0 - p_l
        nxt = np.empty((nodes.size, dist.shape[1] + 1))
        nxt[:, :1] = dist[:, :1] * q_l
        nxt[:, -1:] = dist[:, -1:] * p_l
        nxt[:, 1:-1] = dist[:, 1:] * q_l + dist[:, :-1] * p_l
        dist = nxt
    out = np.zeros(items.n_items + 1)
    for w, row in zip(weights, dist):
        out += w * row
    return out


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSigmoidPinned:
    def test_edge_values_match_the_masked_form_bit_for_bit(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.0, -745.0, 1e-300, -5e-324]
        for value in edges:
            assert same_bytes(sigmoid(value), masked_sigmoid(value)), value
        assert isinstance(sigmoid(0.25), float)
        assert same_bytes(sigmoid(np.array(edges)), masked_sigmoid(np.array(edges)))

    def test_normal_draws_match_the_masked_form_bit_for_bit(self):
        eta = np.random.default_rng(0).standard_normal(100_000)
        assert same_bytes(sigmoid(eta), masked_sigmoid(eta))
        wide = 8.0 * eta.reshape(250, 400)
        assert same_bytes(sigmoid(wide), masked_sigmoid(wide))


class TestProb2PL:
    def test_half_at_difficulty(self):
        assert prob_2pl(0.7, 1.3, 0.7) == pytest.approx(0.5)

    def test_log_odds_three(self):
        # a(theta - b) = ln 3  ->  p = 3/4
        assert prob_2pl(math.log(3.0), 1.0, 0.0) == pytest.approx(0.75)

    def test_frozen_value(self):
        # sigmoid(2) with a=2, theta-b=1
        assert prob_2pl(1.0, 2.0, 0.0) == pytest.approx(
            0.8807970779778823, abs=1e-15
        )

    def test_symmetry_about_difficulty(self):
        for d in (0.3, 1.7):
            total = prob_2pl(0.5 + d, 1.2, 0.5) + prob_2pl(0.5 - d, 1.2, 0.5)
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_theta(self):
        grid = np.linspace(-4, 4, 41)
        p = prob_2pl(grid, 0.8, -0.2)
        assert np.all(np.diff(p) > 0)

    def test_vectorized_over_items(self):
        p = prob_2pl(np.zeros(3)[:, None], np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert p.shape == (3, 2)


class TestItemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ItemParams(a=np.array([1.0, -0.5]), b=np.zeros(2))
        with pytest.raises(ValueError):
            ItemParams(a=np.ones(3), b=np.zeros(2))

    def test_arrays_read_only(self):
        a = np.ones(2)
        items = ItemParams(a=a, b=np.zeros(2))
        with pytest.raises(ValueError):
            items.a[0] = 2.0
        # the frozen arrays are copies: the caller's stays writable, and unshared
        assert a.flags.writeable
        a[0] = 2.0
        np.testing.assert_array_equal(items.a, [1.0, 1.0])

    def test_draw_ranges(self):
        items = draw_items(200, np.random.default_rng(0))
        assert items.n_items == 200
        assert np.all(items.a >= 0.5) and np.all(items.a <= 2.0)
        assert np.all(np.isfinite(items.b))


def row_major_covariates(theta, design, rng):
    """The covariate draw as it was before the items x rows evaluation, kept as
    a reference: p is rows x items, compared with the uniforms in row order."""
    columns = []
    for c in design:
        p = masked_sigmoid((theta[:, None] - c.b) * c.a)
        columns.append((rng.random(p.shape) < p).sum(axis=1))
    return np.column_stack(columns)


class TestCovariates:
    @pytest.mark.parametrize("items", [1, 2, 3, 4, 5, 6])
    def test_items_by_rows_matches_the_row_major_draw(self, items):
        # every n that ends a block early, exactly, or one row into the next;
        # the second covariate holds the other 7 - items indicators
        block = BLOCK_SIZE // items
        rng = np.random.default_rng(items)
        design = (
            ItemParams(a=np.full(items, rng.uniform(0.1, 1.5)),
                       b=np.sort(rng.standard_normal(items))),
            ItemParams(a=np.full(7 - items, 0.7), b=np.sort(rng.standard_normal(7 - items))),
        )
        for n in (0, 1, 2, block - 1, block, block + 1, 2 * block + 1):
            theta = 2.0 * rng.standard_normal(n)
            got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = covariates_from_design(theta, design, got_rng)
            want = row_major_covariates(theta, design, want_rng)
            assert same_bytes(got, want), n
            assert got_rng.random() == want_rng.random(), n

    def test_an_item_set_larger_than_one_block(self):
        # more shared items than a block holds probabilities: one row per block
        rng = np.random.default_rng(21)
        items, theta = draw_items(BLOCK_SIZE + 1, rng), rng.standard_normal(3)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _draw_counts(theta, items.a, items.b, got_rng)
        want = row_major_covariates(theta, (items,), want_rng)[:, 0]
        assert same_bytes(got, want)
        assert got_rng.random() == want_rng.random()

    def test_values_within_category_range(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(500)
        design = draw_covariate_design((3, 4, 5), (0.5, 1.5), rng)
        cov = covariates_from_design(theta, design, rng)
        assert cov.shape == (500, 3)
        for j, m in enumerate((3, 4, 5)):
            assert cov[:, j].min() >= 0
            assert cov[:, j].max() <= m - 1

    def test_difficulties_sorted(self):
        design = draw_covariate_design((5, 6), (0.5, 1.5), np.random.default_rng(3))
        assert [c.n_items for c in design] == [4, 5]
        for c in design:
            assert np.all(np.diff(c.b) >= 0)
            assert np.all(c.a == c.a[0])  # one discrimination per covariate

    def test_too_few_categories(self):
        with pytest.raises(ValueError):
            draw_covariate_design((3, 1), (0.5, 1.5), np.random.default_rng(0))

    def test_near_zero_discrimination_is_independent(self):
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(100_000)
        design = (ItemParams(a=np.full(2, 1e-9), b=np.zeros(2)),)
        cov = covariates_from_design(theta, design, rng)
        assert abs(np.corrcoef(theta, cov[:, 0])[0, 1]) < 0.02

    def test_medium_strength_rank_correlation(self):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(20_000)
        design = draw_covariate_design((3, 4, 5), (0.5, 1.5), rng)
        cov = covariates_from_design(theta, design, rng)
        for j in range(3):
            rho = spearmanr(theta, cov[:, j]).statistic
            assert 0.2 < rho < 0.9


class TestSimulationConfig:
    def test_defaults(self):
        c = SimulationConfig()
        assert c.n == 1000
        assert c.items == 40
        assert c.anchor_items == 20
        assert c.beta == (0.0, -0.35, 0.1, -0.1, 0.1)
        assert c.discrimination_range == (0.5, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(covariate_strength="strong")
        with pytest.raises(ValueError):
            SimulationConfig(beta=(0.0, -0.35))
        with pytest.raises(ValueError):
            SimulationConfig(theta_sd=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(trim_alpha=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(n=0)
        with pytest.raises(ValueError, match=r"^strata \(60\) exceeds n \(50\)$"):
            SimulationConfig(n=50, strata=60)
        assert SimulationConfig(n=50, strata=50).strata == 50

    @pytest.mark.parametrize("categories", [(), (1,), (3, 1)])
    def test_covariates_need_two_categories_each(self, categories):
        beta = (0.0, -0.35) + (0.1,) * len(categories)
        with pytest.raises(ValueError, match="covariate_categories"):
            SimulationConfig(covariate_categories=categories, beta=beta)

    @pytest.mark.parametrize(
        "categories", [(3.5, 4, 5), (3, 4.0, 5), (3, 4, np.float64(5.0)), ("3", 4, 5), (3, None, 5)]
    )
    def test_covariate_categories_must_be_whole_numbers(self, categories):
        with pytest.raises(ValueError, match="^covariate_categories must be a whole number"):
            SimulationConfig(n=200, covariate_categories=categories)

    @pytest.mark.parametrize("kind", [int, np.int64, np.uint8])
    def test_covariate_categories_take_python_and_numpy_ints(self, kind):
        categories = tuple(map(kind, (3, 4, 5)))
        assert SimulationConfig(covariate_categories=categories).covariate_categories == (3, 4, 5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationConfig(seed=-1)
        assert SimulationConfig(seed=0).seed == 0

    INT_FIELDS = ("n", "items", "anchor_items", "strata", "replications", "seed", "nbins")

    @pytest.mark.parametrize("name", INT_FIELDS)
    @pytest.mark.parametrize("value", [300.5, 3.9, 300.0, np.float64(3.0), "300", None])
    def test_counts_and_seeds_must_be_whole_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("name", INT_FIELDS)
    @pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint16])
    def test_python_and_numpy_ints_accepted(self, name, kind):
        value = kind(getattr(SimulationConfig(), name) + 1)
        assert getattr(SimulationConfig(**{name: value}), name) == value


class TestGenPopulation:
    def test_bit_reproducible(self):
        config = SimulationConfig(n=300, replications=1)
        a = gen_population(config, np.random.default_rng(42))
        b = gen_population(config, np.random.default_rng(42))
        for name in ("theta", "group", "anchor_score", "covariates", "form", "score"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_null_assignment_is_a_coin_flip(self):
        config = SimulationConfig(n=10_000, beta=(0.0, 0.0, 0.0, 0.0, 0.0))
        pop = gen_population(config, np.random.default_rng(5))
        np.testing.assert_allclose(pop.propensity, 0.5)
        se = 0.5 / math.sqrt(config.n)
        assert abs(pop.form.mean() - 0.5) < 3 * se

    def test_intercept_only_propensity(self):
        config = SimulationConfig(n=500, beta=(0.3, 0.0, 0.0, 0.0, 0.0))
        pop = gen_population(config, np.random.default_rng(6))
        np.testing.assert_allclose(pop.propensity, 1.0 / (1.0 + math.exp(-0.3)))

    def test_negative_anchor_coefficient_tilts_assignment(self):
        config = SimulationConfig(n=20_000)
        pop = gen_population(config, np.random.default_rng(8))
        assert np.corrcoef(pop.anchor_score, pop.form)[0, 1] < -0.05

    def test_group_ability_means(self):
        config = SimulationConfig(n=20_000, group_theta_means=(0.0, 0.5))
        pop = gen_population(config, np.random.default_rng(9))
        for g, mean in enumerate(config.group_theta_means):
            sel = pop.group == g
            se = 1.0 / math.sqrt(sel.sum())
            assert abs(pop.theta[sel].mean() - mean) < 4 * se

    def test_scores_match_conditional_moments(self):
        config = SimulationConfig(n=20_000)
        rng = np.random.default_rng(10)
        design = draw_design(config, rng)
        pop = gen_population(config, rng, design=design)
        for form, items in ((0, design.form_x_items), (1, design.form_y_items)):
            sel = pop.form == form
            mu, var = conditional_score_moments(items, pop.theta[sel])
            resid = pop.score[sel] - mu
            se = math.sqrt(var.mean() / sel.sum())
            assert abs(resid.mean()) < 4 * se

    @pytest.mark.parametrize("strength", ["medium", "weak"])
    @pytest.mark.parametrize(
        "n",
        [1, 37, 1000, TAKEN_BLOCK - 1, TAKEN_BLOCK, TAKEN_BLOCK + 1, 2 * TAKEN_BLOCK + 1],
    )
    def test_columns_match_the_reference_draw_bit_for_bit(self, n, strength):
        # n = 1 leaves one form without examinees; block + 1 ends on a one-row block
        for seed in range(5):
            # the draw reads no strata; one stratum admits any n
            config = SimulationConfig(n=n, strata=1, covariate_strength=strength, seed=seed)
            pop = gen_population(config, np.random.default_rng(seed))
            expected = reference_population(config, np.random.default_rng(seed))
            for name, column in expected.items():
                assert same_bytes(getattr(pop, name), column), (seed, name)

    @pytest.mark.parametrize("intercept, taken", [(-40.0, 0), (40.0, 1)])
    def test_single_form_blocks_match_the_reference_draw(self, intercept, taken):
        config = SimulationConfig(n=2 * TAKEN_BLOCK + 1, beta=(intercept, 0.0, 0.0, 0.0, 0.0))
        pop = gen_population(config, np.random.default_rng(4))
        expected = reference_population(config, np.random.default_rng(4))
        assert np.all(pop.form == taken)
        for name, column in expected.items():
            assert same_bytes(getattr(pop, name), column), name

    @pytest.mark.parametrize("items", [40, 200])
    def test_peak_memory_is_per_examinee_plus_fixed_blocks(self, items):
        # no n x items matrix: 160 bytes per examinee for the returned and
        # standardized columns, plus twice the two block buffers
        config = SimulationConfig(n=10_000, items=items)
        rng = np.random.default_rng(3)
        design = draw_design(config, rng)
        tracemalloc.start()
        try:
            gen_population(config, rng, design=design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 160 * config.n + 4 * BLOCK_SIZE * 8

    def test_peak_memory_stays_within_four_score_matrices(self):
        config = SimulationConfig(n=10_000, items=40)
        rng = np.random.default_rng(3)
        design = draw_design(config, rng)
        tracemalloc.start()
        try:
            gen_population(config, rng, design=design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * config.n * config.items * 8

    def test_records_round_trip(self):
        config = SimulationConfig(n=20)
        pop = gen_population(config, np.random.default_rng(12))
        records = pop.to_records()
        assert len(records) == 20
        assert records.anchor is not None and records.anchor.shape == (20,)
        assert records.covariates.shape == (20, 3)

    def test_records_share_the_population_arrays(self):
        pop = gen_population(SimulationConfig(n=20), np.random.default_rng(12))
        table = pop.to_records()
        assert table is pop.to_records()
        for column, array in ((table.form, pop.form), (table.score, pop.score),
                              (table.anchor, pop.anchor_score)):
            assert np.shares_memory(column, array)
        np.testing.assert_array_equal(table.covariates, pop.covariates)

    def test_covariates_are_the_table_float_column(self):
        # one array per covariate column: no int draw kept beside the table's copy
        pop = gen_population(SimulationConfig(n=50, seed=1), np.random.default_rng(0))
        assert np.shares_memory(pop.covariates, pop.to_records().covariates)
        assert pop.covariates.dtype == np.float64

    def test_observed_columns_are_read_only(self):
        pop = gen_population(SimulationConfig(n=50, seed=1), np.random.default_rng(0))
        for name in ("form", "score", "anchor_score", "covariates"):
            assert not getattr(pop, name).flags.writeable, name

    @pytest.mark.parametrize("name, index, value", [("score", 0, -5), ("form", 1, 7)])
    def test_a_write_cannot_break_the_validated_table(self, name, index, value):
        # a write through the population once reached the table unchecked
        pop = gen_population(SimulationConfig(n=50, seed=1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            getattr(pop, name)[index] = value
        table = pop.to_records()
        assert set(np.unique(table.form).tolist()) <= {0, 1} and table.score.min() >= 0

    @pytest.mark.parametrize("n", [2, 3, 4, 30, 1000])
    def test_proxies_are_the_per_column_standardized_design(self, n):
        # each column standardized on its own, as the design once was built,
        # agrees to rounding; constant columns (common at small n) are dropped
        def standardize(column):
            return (column - column.mean()) / column.std(ddof=1)

        dropped = 0
        for seed in range(20):
            config = SimulationConfig(n=n, strata=1, seed=seed)  # the draw reads no strata
            pop = gen_population(config, np.random.default_rng(seed))
            columns = [pop.anchor_score, *pop.covariates.T]
            kept = [standardize(c.astype(float)) for c in columns if np.ptp(c) > 0]
            dropped += len(columns) - len(kept)
            expected = np.column_stack(kept) if kept else np.empty((n, 0))
            np.testing.assert_allclose(pop.proxies, expected, rtol=0, atol=1e-12)
        assert dropped > 0 or n > 4

    def test_one_examinee_is_assigned_by_the_intercept_alone(self):
        config = SimulationConfig(n=1, strata=1, beta=(0.7, -0.35, 0.1, -0.1, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pop = gen_population(config, np.random.default_rng(0))
        assert pop.proxies.shape == (1, 0)
        assert pop.propensity.tobytes() == np.array([sigmoid(0.7)]).tobytes()


class TestConditionalScoreMoments:
    def test_two_coin_items(self):
        items = ItemParams(a=np.array([1.0, 2.0]), b=np.array([0.5, 0.5]))
        mu, var = conditional_score_moments(items, 0.5)
        assert mu == pytest.approx(1.0)
        assert var == pytest.approx(0.5)

    def test_frozen_single_item(self):
        items = ItemParams(a=np.array([2.0]), b=np.array([0.0]))
        mu, var = conditional_score_moments(items, 1.0)
        p = 0.8807970779778823
        assert mu == pytest.approx(p, abs=1e-15)
        assert var == pytest.approx(p * (1 - p), abs=1e-15)

    def test_vectorized(self):
        items = draw_items(5, np.random.default_rng(0))
        mu, var = conditional_score_moments(items, np.zeros(7))
        assert mu.shape == (7,) and var.shape == (7,)

    @pytest.mark.parametrize("n_items", [3, 40, 200])
    @pytest.mark.parametrize(
        "shape", [(), (0,), (1,), (TAKEN_BLOCK,), (3 * TAKEN_BLOCK + 5,), (37, 29), (4, 0)]
    )
    def test_blocks_match_the_unblocked_sums_bit_for_bit(self, n_items, shape):
        items = draw_items(n_items, np.random.default_rng(6))
        theta = 3.0 * np.random.default_rng(7).standard_normal(shape)
        expected = unblocked_moments(items, theta)
        for got, want in zip(conditional_score_moments(items, theta), expected):
            assert type(got) is type(want)
            assert same_bytes(got, want)

    def test_peak_memory_is_the_two_result_arrays_plus_blocks(self):
        items = draw_items(40, np.random.default_rng(0))
        theta = np.random.default_rng(1).standard_normal(100_000)
        tracemalloc.start()
        try:
            conditional_score_moments(items, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


class TestTrueTransform:
    def test_identical_forms_identity(self):
        items = draw_items(10, np.random.default_rng(1))
        thetas = np.random.default_rng(2).standard_normal(50)
        t = true_transform(thetas, 0, items, items).entries[0]
        assert t.slope == pytest.approx(1.0)
        for y in (2.0, 5.0, 8.0):
            assert t(y) == pytest.approx(y, abs=1e-10)

    def test_single_theta_hand_oracle(self):
        # at theta=b every item is a fair coin: X has 2 items (mu 1, var .5),
        # Y has 8 (mu 4, var 2) -> slope .5 and t(4) = 1
        x_items = ItemParams(a=np.ones(2), b=np.zeros(2))
        y_items = ItemParams(a=np.ones(8), b=np.zeros(8))
        t = true_transform([0.0], 0, x_items, y_items).entries[0]
        assert t.slope == pytest.approx(0.5)
        assert t(4.0) == pytest.approx(1.0)

    def test_slope_approaches_one_as_forms_converge(self):
        rng = np.random.default_rng(3)
        x_items = draw_items(15, rng)
        b_far = x_items.b + 1.0
        thetas = np.random.default_rng(4).standard_normal(200)
        gaps = []
        for step in np.linspace(1.0, 0.0, 5):
            y_items = ItemParams(a=x_items.a, b=x_items.b + step * (b_far - x_items.b))
            t = true_transform(thetas, 0, x_items, y_items).entries[0]
            gaps.append(abs(t.slope - 1.0) + abs(t(10.0) - 10.0))
        assert gaps[-1] < 1e-10
        assert gaps[0] > gaps[-1]

    def test_bin_moments_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        items = draw_items(10, rng)
        thetas = rng.standard_normal(200)
        p = prob_2pl(thetas[:, None], items.a, items.b)
        m = 2000
        draws = rng.random((m, 200, 10)) < p
        scores = draws.sum(axis=2).ravel()

        mu_i, var_i = conditional_score_moments(items, thetas)
        mu = mu_i.mean()
        var = var_i.mean() + mu_i.var()
        n_draws = scores.size
        se_mean = math.sqrt(var / n_draws)
        assert abs(scores.mean() - mu) < 4 * se_mean
        assert scores.var() == pytest.approx(var, rel=0.02)

    def test_empty_bin(self):
        items = draw_items(3, np.random.default_rng(0))
        with pytest.raises(OmittedBinError):
            true_transform([], 0, items, items)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 257, 1000])
    def test_matches_the_mean_var_form_bit_for_bit(self, n):
        # the .mean() / .var() form the add.reduce steps replaced
        rng = np.random.default_rng(n)
        x_items, y_items = draw_items(40, rng), draw_items(40, rng)
        for scale in (0.01, 1.0, 3.0):
            thetas = scale * rng.standard_normal(n)
            mu_x, var_x = conditional_score_moments(x_items, thetas)
            mu_y, var_y = conditional_score_moments(y_items, thetas)
            slope = math.sqrt((var_x.mean() + mu_x.var()) / (var_y.mean() + mu_y.var()))
            t = true_transform(thetas, 0, x_items, y_items).entries[0]
            assert same_bytes(t.slope, slope)
            assert same_bytes(t.mu_y, float(mu_y.mean()))
            assert same_bytes(t.mu_x, float(mu_x.mean()))


def per_bin_true_transform(bin_thetas, form_x_items, form_y_items):
    """The one-bin ``true_transform`` the batched pass replaced, kept as a reference."""
    thetas = np.asarray(bin_thetas, dtype=float).reshape(-1)
    if thetas.size == 0:
        raise OmittedBinError("empty ability bin")
    n = thetas.size
    mu_x_i, var_x_i = conditional_score_moments(form_x_items, thetas)
    mu_y_i, var_y_i = conditional_score_moments(form_y_items, thetas)
    # numpy's own mean() / var() steps, so the same bits, minus their wrappers
    mu_x, mu_y = np.add.reduce(mu_x_i) / n, np.add.reduce(mu_y_i) / n
    d_x, d_y = mu_x_i - mu_x, mu_y_i - mu_y
    var_x = np.add.reduce(var_x_i) / n + np.add.reduce(d_x * d_x) / n
    var_y = np.add.reduce(var_y_i) / n + np.add.reduce(d_y * d_y) / n
    if var_x <= 0.0 or var_y <= 0.0:
        raise OmittedBinError("degenerate score distribution in bin")
    return LinearTransform(slope=math.sqrt(var_x / var_y), mu_y=float(mu_y), mu_x=float(mu_x))


def per_bin_truth(thetas, labels, x_items, y_items):
    """The study's old loop: one reference call per populated bin, in label order."""
    thetas, labels = np.asarray(thetas, dtype=float), np.asarray(labels)
    return {
        b: per_bin_true_transform(thetas[labels == b], x_items, y_items)
        for b in np.unique(labels).tolist()
    }


def assert_same_truth(family, want):
    assert family.index_kind == "theta_bin"
    got = family.entries
    assert list(got) == list(want)
    for label, t in want.items():
        for name in ("slope", "mu_y", "mu_x"):
            assert same_bytes(getattr(got[label], name), getattr(t, name)), (label, name)


class TestBatchedTruthOracle:
    """The one-pass ``true_transform`` against the per-bin loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 600),
        nbins=st.integers(1, 12),
        n_items=st.sampled_from([1, 3, 40]),
        scale=st.sampled_from([0.01, 1.0, 3.0]),
        extreme=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_bin_loop_bit_for_bit(self, n, nbins, n_items, scale, extreme, seed):
        # a theta of +-2000 makes every item certain: a bin of them alone is degenerate
        rng = np.random.default_rng(seed)
        x_items, y_items = draw_items(n_items, rng), draw_items(n_items, rng)
        thetas = scale * rng.standard_normal(n)
        far = rng.random(n) < extreme
        thetas[far] = rng.choice([-2000.0, 2000.0], far.sum())
        labels = rng.integers(1, nbins + 1, n)
        try:
            want = per_bin_truth(thetas, labels, x_items, y_items)
        except OmittedBinError:
            with pytest.raises(OmittedBinError):
                true_transform(thetas, labels, x_items, y_items)
            return
        assert_same_truth(true_transform(thetas, labels, x_items, y_items), want)

    @pytest.mark.parametrize("labels", [
        [1, 2, 3, 4, 5],  # every bin a single theta
        [7, 7, 7, 7, 7],  # one bin
        [3, 1, 3, 2, 1],  # interleaved, out of order
        [9, 2, 2, 9, 9],  # a single-theta bin and gaps between labels
        [3.0, 1.0, 3.0, 2.0, 1.0],  # whole numbers as floats
        [2**63 - 1, 0, 2**40, 2**63 - 1, 0],  # the widest labels: a 64-bit sort key
    ])
    def test_pinned_bin_layouts(self, labels):
        rng = np.random.default_rng(11)
        x_items, y_items = draw_items(40, rng), draw_items(40, rng)
        thetas = rng.standard_normal(len(labels))
        want = per_bin_truth(thetas, labels, x_items, y_items)
        assert_same_truth(true_transform(thetas, labels, x_items, y_items), want)

    def test_one_label_is_the_one_bin_call(self):
        rng = np.random.default_rng(12)
        x_items, y_items = draw_items(40, rng), draw_items(40, rng)
        thetas = rng.standard_normal(3 * TAKEN_BLOCK + 5)  # crosses block edges
        want = {4: per_bin_true_transform(thetas, x_items, y_items)}
        assert_same_truth(true_transform(thetas, 4, x_items, y_items), want)

    @pytest.mark.parametrize("far", [2000.0, -2000.0])
    def test_a_degenerate_bin_raises(self, far):
        rng = np.random.default_rng(13)
        x_items, y_items = draw_items(10, rng), draw_items(10, rng)
        thetas = np.array([0.1, far, -0.3, far])
        with pytest.raises(OmittedBinError):
            per_bin_true_transform(thetas[[1, 3]], x_items, y_items)
        with pytest.raises(OmittedBinError, match="bin 2"):
            true_transform(thetas, [1, 2, 1, 2], x_items, y_items)
        # a far theta alongside others leaves its bin well defined
        want = per_bin_truth(thetas, [1, 1, 2, 2], x_items, y_items)
        assert_same_truth(true_transform(thetas, [1, 1, 2, 2], x_items, y_items), want)

    @pytest.mark.parametrize("labels", [
        [1, -1], [2.0, 1.5], -3, [1.0, np.inf], [-np.inf, 1.0], [np.nan, 1.0], [1e30, 1.0],
        [-(2**63), 5], np.array([2**63, 1], dtype=np.uint64), [2.0**63, 1.0],
    ])
    def test_a_label_must_be_a_whole_number_from_zero(self, labels):
        items = draw_items(5, np.random.default_rng(15))
        with pytest.raises(ValueError, match="whole numbers"):
            true_transform([0.1, 0.2], labels, items, items)

    @pytest.mark.parametrize(
        "bad", [1e19, 2.0**63, np.uint64(2**64 - 1), math.nan, math.inf, -math.inf, 0.5]
    )
    def test_the_first_bad_label_is_named_as_given(self, bad):
        items = draw_items(5, np.random.default_rng(15))
        labels = np.array([1, bad], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError) as exc:
            true_transform([0.1, 0.2], labels, items, items)
        value = np.asarray(bad).item()
        assert str(exc.value) == f"labels must be whole numbers in 0..{2**63 - 1}, got {value}"

    def test_peak_memory_is_the_two_block_buffers_plus_per_theta_arrays(self):
        # 500 target thetas fill the kernel's 256-row blocks; a ufunc that
        # broadcasts a row or a column would add 64 kB iterator buffers
        rng = np.random.default_rng(14)
        x_items, y_items = draw_items(40, rng), draw_items(40, rng)
        thetas, labels = rng.standard_normal(500), rng.integers(1, 11, 500)
        true_transform(thetas, labels, x_items, y_items)
        tracemalloc.start()
        try:
            true_transform(thetas, labels, x_items, y_items)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # sorted thetas, order, sorted labels and four moment arrays per theta,
        # plus 16 kB for numpy's small casting buffers
        assert peak <= 2 * BLOCK_SIZE * 8 + 7 * 8 * thetas.size + 16 * 1024


class TestScoreDistribution:
    def test_single_coin_item(self):
        items = ItemParams(a=np.array([1.0]), b=np.array([0.0]))
        np.testing.assert_allclose(
            score_distribution(items, [0.0], [1.0]), [0.5, 0.5]
        )

    def test_two_coin_items(self):
        items = ItemParams(a=np.array([1.0, 1.0]), b=np.array([0.0, 0.0]))
        np.testing.assert_allclose(
            score_distribution(items, [0.0], [1.0]), [0.25, 0.5, 0.25]
        )

    def test_matches_exhaustive_enumeration(self):
        items = ItemParams(a=np.array([0.7, 1.1, 1.9]), b=np.array([-0.4, 0.2, 1.0]))
        theta = 0.3
        p = prob_2pl(theta, items.a, items.b)
        oracle = np.zeros(4)
        for pattern in itertools.product((0, 1), repeat=3):
            prob = np.prod([p[j] if r else 1 - p[j] for j, r in enumerate(pattern)])
            oracle[sum(pattern)] += prob
        got = score_distribution(items, [theta], [1.0])
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_sums_to_one_and_mean_identity(self):
        rng = np.random.default_rng(6)
        items = draw_items(12, rng)
        nodes = np.linspace(-2, 2, 9)
        weights = np.full(9, 1.0 / 9.0)
        dist = score_distribution(items, nodes, weights)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        mean = (np.arange(13) * dist).sum()
        expected = (weights * prob_2pl(nodes[:, None], items.a, items.b).sum(axis=1)).sum()
        assert mean == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n_items", [1, 2, 40])
    @pytest.mark.parametrize("n_nodes", [1, 61])
    def test_batched_recursion_matches_the_per_node_loop(self, n_items, n_nodes):
        rng = np.random.default_rng(100 * n_items + n_nodes)
        for _ in range(5):
            items = ItemParams(a=rng.uniform(0.1, 4.0, n_items), b=rng.normal(0.0, 2.0, n_items))
            nodes = rng.normal(0.0, 3.0, n_nodes)
            nodes[: min(n_nodes, 4)] = [-60.0, 60.0, -800.0, 800.0][:n_nodes]
            weights = rng.random(n_nodes)
            weights /= weights.sum()
            got = score_distribution(items, nodes, weights)
            assert np.array_equal(got, per_node_score_distribution(items, nodes, weights))

    @pytest.mark.parametrize("n_items", [1, 40, 200])
    def test_node_blocks_match_the_broadcast_recursion(self, n_items):
        # 200 items leave 51 nodes per kernel block, so 61 nodes take two
        rng = np.random.default_rng(n_items)
        items = draw_items(n_items, rng)
        grids = [normal_quadrature(m, 1.0) for m in (0.0, 0.5)]
        nodes = np.concatenate([[-60.0, 800.0], rng.normal(0.0, 3.0, 59)])
        grids.append((nodes, rng.dirichlet(np.ones(61))))
        for nodes, weights in grids:
            assert nodes.size == 61 and (n_items < 200 or BLOCK_SIZE // n_items < 61)
            want = broadcast_score_distribution(items, nodes, weights)
            assert same_bytes(score_distribution(items, nodes, weights), want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_peak_memory_is_the_block_buffers_plus_two_recursion_arrays(self, seed):
        # 61 nodes x 40 items, one kernel block: its two 19.5 kB buffers, the
        # 20 kB scores x nodes array and the 19.5 kB carry, plus numpy's iterator
        # buffer of up to one carry for a broadcast item row; measured 101.7-101.8 kB
        # over seeds 1-3, bound 115 kB; 158.7-158.8 kB while each item allocated
        # a new array
        items = draw_items(40, np.random.default_rng(seed))
        nodes, weights = normal_quadrature(0.0, 1.0)
        assert nodes.size == 61
        score_distribution(items, nodes, weights)
        tracemalloc.start()
        try:
            score_distribution(items, nodes, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 115_000

    def test_weight_validation(self):
        items = draw_items(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            score_distribution(items, [0.0, 1.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            score_distribution(items, [0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            score_distribution(items, [0.0, 1.0], [1.4, -0.4])


class TestNormalQuadrature:
    def test_moments(self):
        nodes, weights = normal_quadrature(0.8, 1.7)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (weights * nodes).sum() == pytest.approx(0.8, abs=1e-8)
        var = (weights * (nodes - 0.8) ** 2).sum()
        assert var == pytest.approx(1.7**2, rel=1e-6)

    def test_sd_validation(self):
        with pytest.raises(ValueError):
            normal_quadrature(0.0, 0.0)

    def test_rule_is_computed_once_and_kept_read_only(self):
        x, w = np.polynomial.legendre.leggauss(61)
        nodes, weights = normal_quadrature(0.8, 1.7)
        again, _ = normal_quadrature(-0.3, 0.9)
        density = w * np.exp(-0.5 * ((0.8 + 6.0 * 1.7 * x - 0.8) / 1.7) ** 2)
        assert same_bytes(nodes, 0.8 + 6.0 * 1.7 * x)
        assert same_bytes(weights, density / density.sum())
        assert same_bytes(again, -0.3 + 6.0 * 0.9 * x)
        assert _legendre() is _legendre()
        with pytest.raises(ValueError):
            _legendre()[0][0] = 1.0


class TestMixtureScoreDistribution:
    def test_is_average_of_components(self):
        items = draw_items(8, np.random.default_rng(9))
        mix = mixture_score_distribution(items, (0.0, 0.5), 1.0)
        parts = [
            score_distribution(items, *normal_quadrature(m, 1.0)) for m in (0.0, 0.5)
        ]
        np.testing.assert_allclose(mix, 0.5 * parts[0] + 0.5 * parts[1], atol=1e-14)
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)
