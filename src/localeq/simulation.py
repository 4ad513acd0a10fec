"""Synthetic 2PL test data with confounded form assignment.

Generates item responses, an external anchor, and ordinal covariates all
driven by a single latent ability, assigns forms through a logistic model
on the standardized anchor and covariates, and provides the analytic
true-transform oracle plus sum-score distributions for omission masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import LinearTransform, ScoreTable
from .errors import OmittedBinError
from .propensity import sigmoid

__all__ = [
    "STRENGTH_RANGES",
    "ItemParams",
    "CovariateDesign",
    "SimulationConfig",
    "SimulationDesign",
    "SimulatedPopulation",
    "prob_2pl",
    "draw_items",
    "draw_covariate_design",
    "covariates_from_design",
    "draw_design",
    "gen_population",
    "conditional_score_moments",
    "true_transform",
    "score_distribution",
    "normal_quadrature",
    "mixture_score_distribution",
]

# discrimination ranges for the covariate indicator items, by strength label
STRENGTH_RANGES = {"medium": (0.5, 1.5), "weak": (0.1, 0.5)}


def prob_2pl(theta, a, b):
    """Probability of a correct binary response: 1 / (1 + exp(-a(theta - b)))."""
    theta = np.asarray(theta, dtype=float)
    return sigmoid(np.asarray(a, dtype=float) * (theta - np.asarray(b, dtype=float)))


@dataclass(frozen=True)
class ItemParams:
    """Discrimination/difficulty pairs for a set of binary items."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must be 1-d arrays of equal length")
        if np.any(a <= 0.0) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError("discriminations must be positive and finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_items(self) -> int:
        return self.a.size


def draw_items(n_items: int, rng: np.random.Generator) -> ItemParams:
    """Draw a ~ U(0.5, 2) and b ~ N(0, 1) for n_items binary items."""
    return ItemParams(a=rng.uniform(0.5, 2.0, n_items), b=rng.standard_normal(n_items))


@dataclass(frozen=True)
class CovariateDesign:
    """Indicator-item parameters behind each ordinal covariate.

    Covariate c with m categories is the count of endorsed indicators among
    m - 1 binary 2PL items sharing one discrimination, with sorted
    difficulties, so higher ability pushes toward higher categories.
    """

    discriminations: tuple
    difficulties: tuple

    def __post_init__(self):
        if len(self.discriminations) != len(self.difficulties):
            raise ValueError("one discrimination per covariate required")


def draw_covariate_design(
    categories: Sequence[int], discrimination_range, rng: np.random.Generator
) -> CovariateDesign:
    lo, hi = discrimination_range
    discs, diffs = [], []
    for m in categories:
        if m < 2:
            raise ValueError(f"covariate needs at least 2 categories, got {m}")
        discs.append(float(rng.uniform(lo, hi)))
        diffs.append(np.sort(rng.standard_normal(m - 1)))
    return CovariateDesign(discriminations=tuple(discs), difficulties=tuple(diffs))


def covariates_from_design(
    theta, design: CovariateDesign, rng: np.random.Generator
) -> np.ndarray:
    """Ordinal covariates (one column each) positively associated with theta."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for a_c, b_c in zip(design.discriminations, design.difficulties):
        p = prob_2pl(theta[:, None], a_c, b_c)
        columns.append((rng.random(p.shape) < p).sum(axis=1))
    return np.column_stack(columns).astype(int)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one simulated scenario; defaults give the standard design."""

    n: int = 1000
    items: int = 40
    anchor_items: int = 20
    group_theta_means: tuple = (0.0, 0.5)
    theta_sd: float = 1.0
    covariate_categories: tuple = (3, 4, 5)
    covariate_strength: str = "medium"
    beta: tuple = (0.0, -0.35, 0.1, -0.1, 0.1)
    strata: int = 8
    replications: int = 500
    seed: int = 0
    nbins: int = 10
    trim_alpha: float = 0.01

    def __post_init__(self):
        for name in ("n", "items", "anchor_items", "strata", "replications", "nbins"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.covariate_strength not in STRENGTH_RANGES:
            raise ValueError(
                f"covariate_strength must be one of {sorted(STRENGTH_RANGES)}, "
                f"got {self.covariate_strength!r}"
            )
        if len(self.group_theta_means) != 2:
            raise ValueError("group_theta_means needs one mean per group")
        if len(self.beta) != 2 + len(self.covariate_categories):
            raise ValueError(
                "beta needs an intercept, an anchor coefficient, and one "
                "coefficient per covariate"
            )
        if self.theta_sd <= 0.0:
            raise ValueError("theta_sd must be positive")
        if not 0.0 <= self.trim_alpha < 0.5:
            raise ValueError("trim_alpha must lie in [0, 0.5)")

    @property
    def discrimination_range(self):
        return STRENGTH_RANGES[self.covariate_strength]


@dataclass(frozen=True)
class SimulationDesign:
    """Item and covariate parameters held fixed across replications."""

    form_x_items: ItemParams
    form_y_items: ItemParams
    anchor_items: ItemParams
    covariates: CovariateDesign


def draw_design(config: SimulationConfig, rng: np.random.Generator) -> SimulationDesign:
    return SimulationDesign(
        form_x_items=draw_items(config.items, rng),
        form_y_items=draw_items(config.items, rng),
        anchor_items=draw_items(config.anchor_items, rng),
        covariates=draw_covariate_design(
            config.covariate_categories, config.discrimination_range, rng
        ),
    )


@dataclass(frozen=True)
class SimulatedPopulation:
    """One generated sample, carrying the latent truth for evaluation."""

    theta: np.ndarray
    group: np.ndarray
    anchor_score: np.ndarray
    covariates: np.ndarray
    propensity: np.ndarray
    form: np.ndarray
    score: np.ndarray
    _table: ScoreTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = ScoreTable(self.form, self.score, self.anchor_score, self.covariates)
        object.__setattr__(self, "_table", table)

    def to_records(self) -> ScoreTable:
        """The observed columns as a :class:`ScoreTable` that views these arrays.

        Built once, never copied. The name stays because the benchmark's
        tracer (``bench/tracing.py``) wraps this method by name.
        """
        return self._table


def _standardize(column: np.ndarray) -> np.ndarray:
    sd = column.std(ddof=1) if column.size > 1 else 0.0
    if sd == 0.0:
        return np.zeros_like(column, dtype=float)
    return (column - column.mean()) / sd


def gen_population(
    config: SimulationConfig,
    rng: np.random.Generator,
    design: SimulationDesign | None = None,
) -> SimulatedPopulation:
    """Draw one sample: group, ability, responses, covariates, assignment.

    Draw order is fixed (group, theta, anchor responses, covariates,
    assignment, operational responses) so a seeded generator reproduces the
    sample bit for bit. Form assignment T=1 means form Y; its probability
    comes from the logistic model on the sample-standardized anchor score
    and covariates.
    """
    if design is None:
        design = draw_design(config, rng)
    n = config.n
    group = (rng.random(n) < 0.5).astype(int)
    means = np.asarray(config.group_theta_means, dtype=float)
    theta = means[group] + config.theta_sd * rng.standard_normal(n)

    p_anchor = prob_2pl(theta[:, None], design.anchor_items.a, design.anchor_items.b)
    anchor_score = (rng.random(p_anchor.shape) < p_anchor).sum(axis=1)
    covariates = covariates_from_design(theta, design.covariates, rng)

    beta = np.asarray(config.beta, dtype=float)
    proxies = np.column_stack(
        [_standardize(anchor_score.astype(float))]
        + [_standardize(covariates[:, j].astype(float)) for j in range(covariates.shape[1])]
    )
    propensity = sigmoid(beta[0] + proxies @ beta[1:])
    form = (rng.random(n) < propensity).astype(int)

    p_x = prob_2pl(theta[:, None], design.form_x_items.a, design.form_x_items.b)
    p_y = prob_2pl(theta[:, None], design.form_y_items.a, design.form_y_items.b)
    p_taken = np.where(form[:, None] == 1, p_y, p_x)
    score = (rng.random(p_taken.shape) < p_taken).sum(axis=1)

    return SimulatedPopulation(
        theta=theta,
        group=group,
        anchor_score=anchor_score,
        covariates=covariates,
        propensity=propensity,
        form=form,
        score=score,
    )


def conditional_score_moments(items: ItemParams, theta):
    """Analytic sum-score mean and variance given theta, per local independence."""
    p = prob_2pl(np.asarray(theta, dtype=float)[..., None], items.a, items.b)
    return p.sum(axis=-1), (p * (1.0 - p)).sum(axis=-1)


def true_transform(
    bin_thetas, form_x_items: ItemParams, form_y_items: ItemParams
) -> LinearTransform:
    """True linear transform for a bin of ability values.

    Bin-level moments compose the per-theta analytic moments: the mean of
    conditional means, and the mean of conditional variances plus the
    variance of conditional means across the bin.
    """
    thetas = np.asarray(bin_thetas, dtype=float).reshape(-1)
    if thetas.size == 0:
        raise OmittedBinError("empty ability bin")
    mu_x_i, var_x_i = conditional_score_moments(form_x_items, thetas)
    mu_y_i, var_y_i = conditional_score_moments(form_y_items, thetas)
    var_x = var_x_i.mean() + mu_x_i.var()
    var_y = var_y_i.mean() + mu_y_i.var()
    if var_x <= 0.0 or var_y <= 0.0:
        raise OmittedBinError("degenerate score distribution in bin")
    return LinearTransform(
        slope=math.sqrt(var_x / var_y), mu_y=float(mu_y_i.mean()), mu_x=float(mu_x_i.mean())
    )


def _conditional_score_distribution(items: ItemParams, theta: float) -> np.ndarray:
    p = prob_2pl(float(theta), items.a, items.b)
    dist = np.array([1.0])
    for p_l in p:
        nxt = np.empty(dist.size + 1)
        nxt[0] = dist[0] * (1.0 - p_l)
        nxt[-1] = dist[-1] * p_l
        nxt[1:-1] = dist[1:] * (1.0 - p_l) + dist[:-1] * p_l
        dist = nxt
    return dist


def score_distribution(items: ItemParams, nodes, weights) -> np.ndarray:
    """Sum-score distribution marginalized over an ability grid.

    Runs the convolution recursion at each node and averages with the grid
    weights, which must sum to 1. A single node with weight 1 gives the
    conditional distribution at that ability.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if nodes.size != weights.size:
        raise ValueError("one weight per node required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("grid weights must be non-negative and sum to 1")
    out = np.zeros(items.n_items + 1)
    for theta, w in zip(nodes, weights):
        out += w * _conditional_score_distribution(items, theta)
    return out


def normal_quadrature(mean: float, sd: float, n_nodes: int = 61, span: float = 6.0):
    """Gauss-Legendre nodes over mean +/- span*sd with normal-density weights.

    Weights are normalized to sum to 1, so truncation at the span boundary
    costs only the omitted tail mass.
    """
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = mean + span * sd * x
    density = np.exp(-0.5 * ((nodes - mean) / sd) ** 2)
    weights = w * density
    return nodes, weights / weights.sum()


def mixture_score_distribution(
    items: ItemParams,
    means: Sequence[float],
    sd: float,
    shares: Sequence[float] | None = None,
    n_nodes: int = 61,
    span: float = 6.0,
) -> np.ndarray:
    """Score distribution under a mixture of normal ability populations."""
    if shares is None:
        shares = np.full(len(means), 1.0 / len(means))
    shares = np.asarray(shares, dtype=float)
    if shares.size != len(means) or abs(shares.sum() - 1.0) > 1e-9:
        raise ValueError("mixture shares must align with means and sum to 1")
    out = np.zeros(items.n_items + 1)
    for mean, share in zip(means, shares):
        nodes, weights = normal_quadrature(mean, sd, n_nodes=n_nodes, span=span)
        out += share * score_distribution(items, nodes, weights)
    return out
