"""Tests for the synthetic 2PL data generator and its analytic oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from localeq.errors import OmittedBinError
from localeq.simulation import (
    CovariateDesign,
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
        items = ItemParams(a=np.ones(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            items.a[0] = 2.0

    def test_draw_ranges(self):
        items = draw_items(200, np.random.default_rng(0))
        assert items.n_items == 200
        assert np.all(items.a >= 0.5) and np.all(items.a <= 2.0)
        assert np.all(np.isfinite(items.b))


class TestCovariates:
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
        for diffs in design.difficulties:
            assert np.all(np.diff(diffs) >= 0)

    def test_too_few_categories(self):
        with pytest.raises(ValueError):
            draw_covariate_design((3, 1), (0.5, 1.5), np.random.default_rng(0))

    def test_design_arity_checked(self):
        with pytest.raises(ValueError):
            CovariateDesign(discriminations=(1.0,), difficulties=())

    def test_near_zero_discrimination_is_independent(self):
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(100_000)
        design = CovariateDesign(
            discriminations=(1e-9,), difficulties=(np.array([0.0, 0.0]),)
        )
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


class TestTrueTransform:
    def test_identical_forms_identity(self):
        items = draw_items(10, np.random.default_rng(1))
        thetas = np.random.default_rng(2).standard_normal(50)
        t = true_transform(thetas, items, items)
        assert t.slope == pytest.approx(1.0)
        for y in (2.0, 5.0, 8.0):
            assert t(y) == pytest.approx(y, abs=1e-10)

    def test_single_theta_hand_oracle(self):
        # at theta=b every item is a fair coin: X has 2 items (mu 1, var .5),
        # Y has 8 (mu 4, var 2) -> slope .5 and t(4) = 1
        x_items = ItemParams(a=np.ones(2), b=np.zeros(2))
        y_items = ItemParams(a=np.ones(8), b=np.zeros(8))
        t = true_transform([0.0], x_items, y_items)
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
            t = true_transform(thetas, x_items, y_items)
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
            true_transform([], items, items)


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


class TestMixtureScoreDistribution:
    def test_is_average_of_components(self):
        items = draw_items(8, np.random.default_rng(9))
        mix = mixture_score_distribution(items, (0.0, 0.5), 1.0)
        parts = [
            score_distribution(items, *normal_quadrature(m, 1.0)) for m in (0.0, 0.5)
        ]
        np.testing.assert_allclose(mix, 0.5 * parts[0] + 0.5 * parts[1], atol=1e-14)
        assert mix.sum() == pytest.approx(1.0, abs=1e-9)

    def test_share_validation(self):
        items = draw_items(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mixture_score_distribution(items, (0.0, 0.5), 1.0, shares=(0.7, 0.7))
