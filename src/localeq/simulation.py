"""Synthetic 2PL test data with confounded form assignment.

Generates item responses, an external anchor, and ordinal covariates all
driven by a single latent ability, assigns forms through a logistic model
on the standardized anchor and covariates, and provides the analytic
true-transform oracle plus sum-score distributions for omission masking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import LinearTransform, ScoreTable, cell_runs
from .errors import OmittedBinError
from .propensity import sigmoid, sigmoid_inplace

__all__ = [
    "STRENGTH_RANGES",
    "ItemParams",
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
BLOCK_SIZE = 256 * 40  # 2PL probabilities per row block: 80 kB, reused in cache
QUADRATURE_NODES = 61  # per normal population of the omission marginal
QUADRATURE_SPAN = 6.0  # the nodes cover mean +/- this many sd


def prob_2pl(theta, a, b):
    """Probability of a correct binary response: 1 / (1 + exp(-a(theta - b)))."""
    theta = np.asarray(theta, dtype=float)
    return sigmoid(np.asarray(a, dtype=float) * (theta - np.asarray(b, dtype=float)))


def _prob_2pl_blocks(theta, a, b, form=None, items_by_rows=False):
    """Per row block of about ``BLOCK_SIZE`` entries, yield ``(rows, p, scratch)``:
    ``p`` is ``prob_2pl(theta[rows, None], a, b)`` bit for bit (its transpose if
    ``items_by_rows``), ``form[i]`` picking row i's ``a`` and ``b`` if given. Both are
    contiguous views of two buffers allocated once, and every ufunc runs on whole
    blocks: a broadcast would allocate iterator buffers."""
    n, k = theta.shape[0], np.shape(b)[-1]
    block = max(1, BLOCK_SIZE // max(k, 1))
    buffers = np.empty((2, min(n, block) * k))
    for start in range(0, n, block):
        rows, m = slice(start, min(start + block, n)), min(block, n - start)
        p, scratch = buffers[:, : m * k].reshape((2, k, m) if items_by_rows else (2, m, k))
        np.copyto(p, theta[rows] if items_by_rows else theta[rows, None])
        for param, step in ((b, np.subtract), (a, np.multiply)):  # (theta - b) * a
            if form is None:
                np.copyto(scratch, np.reshape(param, (-1, 1)) if items_by_rows else param)
            else:  # one row of a and b per form; "clip" takes unbuffered
                np.take(param, form[rows], axis=0, out=scratch, mode="clip")
            step(p, scratch, out=p)
        yield rows, sigmoid_inplace(p, scratch), scratch


def _draw_counts(theta, a, b, rng, form=None) -> np.ndarray:
    """Per row, ``(rng.random(p.shape) < p).sum(axis=1)``, p = prob_2pl(theta[:, None], a, b),
    ``form[i]`` picking row i's ``a`` and ``b`` if given; uniforms in row order. A per-row
    gather is faster rows x items; shared parameters run items x rows, so every step runs
    along the rows, not along as few as one item, and meet the row-major uniforms transposed."""
    counts = np.empty(theta.shape[0], dtype=int)
    shared = form is None
    for rows, p, u in _prob_2pl_blocks(theta, a, b, form, items_by_rows=shared):
        u = rng.random(out=u.reshape(p.shape[::-1])).T if shared else rng.random(out=u)
        counts[rows] = np.add.reduce(np.less(u, p, out=p), axis=0 if shared else 1)
    return counts


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


def draw_covariate_design(
    categories: Sequence[int], discrimination_range, rng: np.random.Generator
) -> tuple[ItemParams, ...]:
    """The indicator items behind each ordinal covariate, one ItemParams each.

    Covariate c with m categories counts the endorsed indicators among m - 1
    binary 2PL items sharing one discrimination, with sorted difficulties, so
    higher ability pushes toward higher categories.
    """
    lo, hi = discrimination_range
    design = []
    for m in categories:
        if m < 2:
            raise ValueError(f"covariate needs at least 2 categories, got {m}")
        disc = rng.uniform(lo, hi)
        design.append(ItemParams(a=np.full(m - 1, disc), b=np.sort(rng.standard_normal(m - 1))))
    return tuple(design)


def covariates_from_design(theta, design: Sequence[ItemParams], rng: np.random.Generator):
    """Ordinal covariates (one column each) positively associated with theta."""
    theta = np.asarray(theta, dtype=float)
    return np.column_stack([_draw_counts(theta, c.a, c.b, rng) for c in design])


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
        if int(self.seed) < 0:
            raise ValueError("seed must be non-negative")
        if self.covariate_strength not in STRENGTH_RANGES:
            raise ValueError(
                f"covariate_strength must be one of {sorted(STRENGTH_RANGES)}, "
                f"got {self.covariate_strength!r}"
            )
        if len(self.group_theta_means) != 2:
            raise ValueError("group_theta_means needs one mean per group")
        if min(self.covariate_categories, default=0) < 2:
            raise ValueError("covariate_categories needs one or more covariates of 2+ categories")
        if len(self.beta) != 2 + len(self.covariate_categories):
            raise ValueError(
                "beta needs an intercept, an anchor coefficient, and one "
                "coefficient per covariate"
            )
        for name in ("group_theta_means", "theta_sd", "beta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
    covariates: tuple  # one ItemParams per covariate


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
    """One generated sample with its latent truth and its assignment design, ``proxies``;
    its observed columns are its table's read-only arrays, the covariates float64."""

    theta: np.ndarray
    group: np.ndarray
    anchor_score: np.ndarray
    covariates: np.ndarray
    proxies: np.ndarray
    propensity: np.ndarray
    form: np.ndarray
    score: np.ndarray
    _table: ScoreTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = ScoreTable(self.form, self.score, self.anchor_score, self.covariates)
        object.__setattr__(self, "_table", table)
        for name, column in (("form", table.form), ("score", table.score),
                             ("anchor_score", table.anchor), ("covariates", table.covariates)):
            object.__setattr__(self, name, column)

    def to_records(self) -> ScoreTable:
        """The observed columns as one :class:`ScoreTable`, whose arrays they are.

        Built once, never copied. The name stays because the benchmark's
        tracer (``bench/tracing.py``) wraps this method by name.
        """
        return self._table


def gen_population(
    config: SimulationConfig,
    rng: np.random.Generator,
    design: SimulationDesign | None = None,
) -> SimulatedPopulation:
    """Draw one sample: group, ability, responses, covariates, assignment.

    Draw order is fixed (group, theta, anchor responses, covariates,
    assignment, operational responses) so a seeded generator reproduces the
    sample bit for bit. Form assignment T=1 means form Y, drawn from a logistic model on
    ``proxies``: the sample-standardized anchor and covariates, constant columns dropped.
    The covariate counts are kept as float64 only, the array the table views.
    """
    if design is None:
        design = draw_design(config, rng)
    n = config.n
    group = (rng.random(n) < 0.5).astype(int)
    means = np.asarray(config.group_theta_means, dtype=float)
    theta = means[group] + config.theta_sd * rng.standard_normal(n)

    anchor_score = _draw_counts(theta, design.anchor_items.a, design.anchor_items.b, rng)
    covariates = covariates_from_design(theta, design.covariates, rng).astype(float)

    raw = np.column_stack([anchor_score, covariates])  # float64, C-ordered
    sds = raw.std(axis=0, ddof=1) if n > 1 else np.zeros(raw.shape[1])
    keep = sds > 0.0
    # Fortran-ordered, as raw[:, keep] is: fit_logistic's BLAS products round by
    # layout, so a C-ordered copy would move the fit, and the report, in the last bits
    proxies = (raw[:, keep] - raw[:, keep].mean(axis=0)) / sds[keep]
    beta = np.asarray(config.beta, dtype=float)
    propensity = sigmoid(beta[0] + proxies @ beta[1:][keep])  # a constant column adds 0
    form = (rng.random(n) < propensity).astype(int)

    x, y = design.form_x_items, design.form_y_items  # answered on the form taken
    score = _draw_counts(theta, np.stack([x.a, y.a]), np.stack([x.b, y.b]), rng, form)

    return SimulatedPopulation(
        theta=theta,
        group=group,
        anchor_score=anchor_score,
        covariates=covariates,
        proxies=proxies,
        propensity=propensity,
        form=form,
        score=score,
    )


def conditional_score_moments(items: ItemParams, theta):
    """Analytic sum-score mean and variance given theta, per local independence.

    Per theta, sum(p) and sum(p * (1 - p)) over its item probabilities p, in
    cache-sized row blocks: memory stays flat in the theta count and no page
    of a theta x items matrix is faulted in. Rows sum in that matrix's order.
    """
    theta = np.asarray(theta, dtype=float)
    mean, var = np.empty((2, theta.size))
    for rows, p, scratch in _prob_2pl_blocks(theta.reshape(-1), items.a, items.b):
        np.add.reduce(p, axis=-1, out=mean[rows])  # p.sum(-1) without its wrapper
        np.multiply(p, np.subtract(1.0, p, out=scratch), out=scratch)
        np.add.reduce(scratch, axis=-1, out=var[rows])
    return mean.reshape(theta.shape)[()], var.reshape(theta.shape)[()]  # 0-d: scalars


def true_transform(
    thetas, labels, form_x_items: ItemParams, form_y_items: ItemParams
) -> dict:
    """True linear transform of every ability bin, ``{label: LinearTransform}``.

    ``labels`` names each theta's bin, or is one label for all; a label is a whole
    number >= 0 (``bin_by_theta`` gives 1..nbins), else ValueError. Bin-level moments
    compose the per-theta analytic moments: the mean of conditional means, and
    the mean of conditional variances plus the variance of conditional means.
    One moment pass per form serves every bin: sorted stably by label, a bin's
    moments are one slice in input order, so its sums keep a selection's bits.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if thetas.size == 0:
        raise OmittedBinError("empty ability bin")
    order, bins, starts, _, stops = cell_runs(np.broadcast_to(labels, thetas.shape), 0)
    counts = stops - starts
    # rows mu_x, var_x, mu_y, var_y: of each theta in sorted order, then of each bin
    moments = np.stack([*conditional_score_moments(form_x_items, thetas[order]),
                        *conditional_score_moments(form_y_items, thetas[order])])
    runs = [slice(start, stop) for start, stop in zip(starts.tolist(), stops.tolist())]

    def bin_sums(rows):  # each bin's pairwise sums, as a per-bin selection sums them
        return np.stack([np.add.reduce(rows[:, run], axis=1) for run in runs], axis=1)

    # numpy's own mean() / var() steps, so the same bits, minus their wrappers
    stats = bin_sums(moments) / counts
    d = moments[::2] - np.repeat(stats[::2], counts, axis=1)
    stats[1::2] += bin_sums(d * d) / counts
    mu_x, var_x, mu_y, var_y = stats
    degenerate = (var_x <= 0.0) | (var_y <= 0.0)
    if degenerate.any():
        raise OmittedBinError(f"degenerate score distribution in bin {bins[degenerate][0]}")
    maps = map(LinearTransform, np.sqrt(var_x / var_y).tolist(), mu_y.tolist(), mu_x.tolist())
    return dict(zip(bins.tolist(), maps))


def score_distribution(items: ItemParams, nodes, weights) -> np.ndarray:
    """Sum-score distribution marginalized over an ability grid.

    Runs the Lord-Wingersky recursion at every node of a kernel block at once,
    one item per step over a nodes x scores array, then averages the rows with
    the grid weights, which must sum to 1, in node order. A single node with
    weight 1 gives the conditional distribution at that ability.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if nodes.size != weights.size:
        raise ValueError("one weight per node required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("grid weights must be non-negative and sum to 1")
    out = np.zeros(items.n_items + 1)
    for rows, p, _ in _prob_2pl_blocks(nodes, items.a, items.b, items_by_rows=True):
        dist = np.ones((p.shape[1], 1))
        for p_l in p[:, :, None]:  # one item's nodes x 1 column per step
            q_l = 1.0 - p_l
            nxt = np.empty((dist.shape[0], dist.shape[1] + 1))
            nxt[:, :1] = dist[:, :1] * q_l
            nxt[:, -1:] = dist[:, -1:] * p_l
            nxt[:, 1:-1] = dist[:, 1:] * q_l + dist[:, :-1] * p_l
            dist = nxt
        for w, row in zip(weights[rows], dist):  # not weights @ dist: keep the sum order
            out += w * row
    return out


@functools.cache
def _legendre():
    """Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def normal_quadrature(mean: float, sd: float):
    """Gauss-Legendre nodes over mean +/- ``QUADRATURE_SPAN`` sd, normal-density weights.

    Weights are normalized to sum to 1, so truncation at the span boundary
    costs only the omitted tail mass.
    """
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    x, w = _legendre()
    nodes = mean + QUADRATURE_SPAN * sd * x
    density = np.exp(-0.5 * ((nodes - mean) / sd) ** 2)
    weights = w * density
    return nodes, weights / weights.sum()


def mixture_score_distribution(items: ItemParams, means: Sequence[float], sd: float) -> np.ndarray:
    """Score distribution under an equal-share mixture of normal ability populations."""
    share = 1.0 / len(means)
    out = np.zeros(items.n_items + 1)
    for mean in means:
        out += share * score_distribution(items, *normal_quadrature(mean, sd))
    return out
