"""Propensity estimation, quantile stratification, and balance diagnostics.

The propensity score is the probability of form assignment given covariates,
estimated by logistic regression fit with iteratively reweighted least
squares. Stratification partitions examinees into K quantile groups of the
estimated score; the absolute standardized mean difference (ASMD) measures
within-stratum covariate balance, with values below 0.1 read as satisfactory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ScoreTable, _mean_var, _probabilities, _read_only, cell_runs, sorted_quantiles
)
from .errors import (
    DegenerateColumnWarning,
    DimensionError,
    SeparationWarning,
    TooManyStrataError,
)

__all__ = [
    "PropensityModel",
    "StratumAssignment",
    "BalanceReport",
    "sigmoid",
    "encode_covariates",
    "fit_logistic",
    "estimate_propensity",
    "stratify_quantile",
    "asmd",
    "balance_report",
]

PROPENSITY_CLIP = 1e-6  # enforces positivity: estimates live in (0, 1)
SEPARATION_BOUND = 15.0  # |beta| beyond this on standardized scale => separation
STEP_TOLERANCE = 1e-8  # converged once no coefficient moves by more in a step
MAX_ITERATIONS = 100
BALANCE_THRESHOLD = 0.1


def sigmoid(eta):
    """Logistic function 1 / (1 + exp(-eta)) without overflow.

    With e = exp(-|eta|) it is 1 / (1 + e) for eta >= 0 and e / (1 + e)
    below, one exp per element. Not ``scipy.special.expit``: that differs by
    up to 1 ulp, enough to flip a seeded ``rng.random() < p`` draw. Branch-free
    (:func:`sigmoid_inplace`): ``np.where`` on random signs costs more than exp.
    """
    out = np.array(eta, dtype=float)
    sigmoid_inplace(out, np.empty_like(out))
    return out if out.ndim else float(out)


def sigmoid_inplace(eta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite ``eta`` with ``sigmoid(eta)``, using a same-shape ``scratch``."""
    e = np.negative(eta, out=scratch)
    np.minimum(eta, e, out=e)  # -|eta|, and a NaN keeps its sign bit
    np.exp(e, out=e)
    np.greater_equal(eta, 0.0, out=eta)
    np.maximum(e, eta, out=eta)  # numerator: 1 if eta >= 0, else e (or the NaN)
    e += 1.0
    eta /= e
    return eta


@dataclass
class PropensityModel:
    """Fitted logistic model: intercept first, then one slope per column."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_log_likelihood: float

    @property
    def n_columns(self) -> int:
        return self.coefficients.size - 1


@dataclass(frozen=True)
class StratumAssignment:
    """Quantile stratification: per-record labels in 1..K plus cut points, read-only."""

    K: int
    labels: np.ndarray
    boundaries: np.ndarray

    def __post_init__(self):
        labels = _read_only(np.asarray(self.labels))
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise DimensionError(f"stratum labels must be 1-d, got shape {labels.shape}")
        bad = ~((labels >= 1) & (labels <= self.K) & (labels == np.floor(labels)))
        if bad.any():
            raise DimensionError(
                f"stratum labels must be whole numbers in 1..{self.K}, got {labels[bad][0]}"
            )

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


@dataclass
class BalanceReport:
    """Per-stratum, per-covariate ASMD table with overlap flags.

    ``asmd`` has shape (K, n_covariates); entries are NaN for strata missing
    one of the forms, of which ``overlap_violations`` lists the non-empty ones.
    ``satisfactory_fraction`` gives, per covariate, the fraction of evaluable
    strata with ASMD below the 0.1 threshold.
    """

    K: int
    covariate_names: list[str]
    asmd: np.ndarray
    satisfactory_fraction: np.ndarray
    overlap_violations: list[int] = field(default_factory=list)


def encode_covariates(table: ScoreTable, kinds: Sequence[str]) -> np.ndarray:
    """Build the logistic design matrix (without intercept column).

    Numeric covariates are standardized to mean 0, sd 1 (n-1 sd) over the
    pooled sample. Categorical covariates expand to level-count minus one
    indicator columns against the lowest observed level. Columns with a
    single observed level are dropped with a :class:`DegenerateColumnWarning`.
    """
    raw = table.covariates
    if raw.shape[1] != len(kinds):
        raise DimensionError(
            f"{raw.shape[1]} covariates but {len(kinds)} kind tags"
        )
    columns = []
    for j, kind in enumerate(kinds):
        col = raw[:, j]
        levels = np.unique(col)
        if levels.size < 2:
            warnings.warn(
                f"covariate {j} has a single observed level; dropped",
                DegenerateColumnWarning,
                stacklevel=2,
            )
            continue
        if kind == "numeric":
            sd = col.std(ddof=1)
            if sd == 0.0:
                warnings.warn(
                    f"covariate {j} is constant; dropped",
                    DegenerateColumnWarning,
                    stacklevel=2,
                )
                continue
            columns.append((col - col.mean()) / sd)
        elif kind == "categorical":
            for level in levels[1:]:
                columns.append((col == level).astype(float))
        else:
            raise ValueError(f"unknown covariate kind {kind!r}")
    if not columns:
        return np.empty((raw.shape[0], 0))
    return np.column_stack(columns)


def _log_likelihood(eta: np.ndarray, labels: np.ndarray) -> float:
    # sum T*eta - log(1 + exp(eta)), computed stably
    return float(np.sum(labels * eta - np.logaddexp(0.0, eta)))


def fit_logistic(design: np.ndarray, labels) -> PropensityModel:
    """Maximize the Bernoulli log-likelihood by Newton / IRLS steps.

    ``design`` holds the encoded covariate columns; an intercept column is
    prepended internally. Converged once no coefficient moves by more than
    ``STEP_TOLERANCE`` in a step, or the gradient max-norm is 1e-6, within
    ``MAX_ITERATIONS`` steps. Coefficients diverging past +-15 signal (quasi-)separation:
    they are clamped and a :class:`SeparationWarning` is raised, the model unconverged.
    Per record a step holds the design with its intercept, its weighted copy, the
    labels and the weights, which overwrite the fitted probabilities in place.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    labels = np.asarray(labels, dtype=float).reshape(-1)
    if design.shape[0] != labels.size:
        raise DimensionError(
            f"design has {design.shape[0]} rows but {labels.size} labels"
        )
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be binary 0/1")
    X = np.column_stack([np.ones(labels.size), design])
    beta = np.zeros(X.shape[1])
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        mu = sigmoid(X @ beta)
        grad = X.T @ (labels - mu)
        if np.max(np.abs(grad)) <= 1e-6:
            converged = True
            break
        w = np.clip(np.multiply(mu, 1.0 - mu, out=mu), 1e-10, None, out=mu)
        hessian = X.T @ (w[:, None] * X)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            beta = np.clip(beta, -SEPARATION_BOUND, SEPARATION_BOUND)
            warnings.warn(
                "logistic fit separated; coefficients clamped to +-15",
                SeparationWarning,
                stacklevel=2,
            )
            break
        if np.max(np.abs(step)) <= STEP_TOLERANCE:
            converged = True
            break
    return PropensityModel(
        coefficients=beta,
        converged=converged,
        iterations=iterations,
        final_log_likelihood=_log_likelihood(X @ beta, labels),
    )


def estimate_propensity(model: PropensityModel, encoded) -> np.ndarray | float:
    """Predicted assignment probability, clamped into (0, 1).

    Accepts one encoded row (1-D) or a matrix of rows (2-D). Clamping at
    1e-6 keeps every estimate strictly inside (0, 1) so downstream inverse
    weights stay finite.
    """
    encoded = np.asarray(encoded, dtype=float)
    single = encoded.ndim == 1
    rows = np.atleast_2d(encoded)
    if rows.shape[1] != model.n_columns:
        raise DimensionError(
            f"row arity {rows.shape[1]} does not match model ({model.n_columns})"
        )
    eta = model.coefficients[0] + rows @ model.coefficients[1:]
    p = np.clip(sigmoid(eta), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
    return float(p[0]) if single else p


def stratify_quantile(propensities, K: int) -> StratumAssignment:
    """Partition records into K strata at the j/K propensity quantiles.

    Records are assigned by rank, with ties broken by stable input order, so
    stratum sizes are as equal as the ties permit. The cut points, read off
    the sorted propensities, are bit for bit the linear ``np.quantile`` of the
    propensities with -0.0 read as 0.0: no stable sort orders tied signed
    zeros as that function's partition does. A propensity outside [0, 1], NaN
    included, raises InvalidProbabilityError.
    """
    p = _probabilities(propensities, "propensities").reshape(-1) + 0.0  # -0.0 -> 0.0
    n = p.size
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > n:
        raise TooManyStrataError(f"K={K} exceeds the {n} available records")
    order = np.argsort(p, kind="stable")
    labels = np.empty(n, dtype=int)
    labels[order] = np.arange(n) * K // n + 1
    boundaries = sorted_quantiles(p[order], [0], [n], np.arange(1, K) / K)[0]
    return StratumAssignment(K=K, labels=labels, boundaries=boundaries)


def asmd(group_x, group_y) -> float:
    """Absolute standardized mean difference between two groups.

    |mean_x - mean_y| / sqrt((var_x + var_y) / 2) with n-1 variances.
    Returns 0 for identical means, and inf when both variances vanish but
    the means differ.
    """
    (mean_x, var_x), (mean_y, var_y) = _mean_var(group_x), _mean_var(group_y)
    diff = abs(float(mean_x) - float(mean_y))
    denom = math.sqrt((var_x + var_y) / 2.0)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def balance_report(
    table: ScoreTable, assignment: StratumAssignment, covariate_names: Sequence[str]
) -> BalanceReport:
    """ASMD between form-X and form-Y members, per stratum and covariate.

    Strata missing either form carry NaN entries, excluded from the
    satisfactory-balance fractions; those with records are overlap violations.
    Each sample is a slice of one stable (stratum, form) sort: the same bits.
    Columns are compared as given: a categorical one on its level codes, so past
    two levels its ASMD depends on how the levels are labeled.
    """
    raw = table.covariates
    order, *runs = cell_runs(assignment.labels, table.form)  # only the non-empty strata
    columns = raw.T.take(order, axis=1)  # one contiguous row per covariate
    table = np.full((assignment.K, raw.shape[1]), np.nan)
    violations = []
    for k, start, split, stop in zip(*(run.tolist() for run in runs)):
        if start == split or split == stop:
            violations.append(k)
            continue
        for j, column in enumerate(columns):
            table[k - 1, j] = asmd(column[start:split], column[split:stop])
    evaluable = ~np.isnan(table)
    counts = evaluable.sum(axis=0)
    satisfactory = ((table < BALANCE_THRESHOLD) & evaluable).sum(axis=0)
    frac = np.where(counts > 0, satisfactory / np.maximum(counts, 1), np.nan)
    return BalanceReport(
        K=assignment.K,
        covariate_names=list(covariate_names),
        asmd=table,
        satisfactory_fraction=frac,
        overlap_violations=violations,
    )
