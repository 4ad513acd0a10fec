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

from .core import ScoreTable
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
BALANCE_THRESHOLD = 0.1


def sigmoid(eta):
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expeta = np.exp(eta[~pos])
    out[~pos] = expeta / (1.0 + expeta)
    return out if out.ndim else float(out)


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


@dataclass
class StratumAssignment:
    """Quantile stratification: per-record labels in 1..K plus cut points."""

    K: int
    labels: np.ndarray
    boundaries: np.ndarray

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


@dataclass
class BalanceReport:
    """Per-stratum, per-covariate ASMD table with overlap flags.

    ``asmd`` has shape (K, n_covariates); entries are NaN for strata missing
    one of the forms (those strata are listed in ``overlap_violations``).
    ``satisfactory_fraction`` gives, per covariate, the fraction of evaluable
    strata with ASMD below the 0.1 threshold.
    """

    K: int
    covariate_names: list[str]
    asmd: np.ndarray
    satisfactory_fraction: np.ndarray
    overlap_violations: list[int] = field(default_factory=list)
    threshold: float = BALANCE_THRESHOLD


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


def fit_logistic(
    design: np.ndarray,
    labels,
    tol: float = 1e-8,
    max_iterations: int = 100,
) -> PropensityModel:
    """Maximize the Bernoulli log-likelihood by Newton / IRLS steps.

    ``design`` holds the encoded covariate columns; an intercept column is
    prepended internally. Convergence when the coefficient max-change drops
    to ``tol`` or the gradient max-norm to 1e-6. Coefficients diverging past
    +-15 signal (quasi-)separation: they are clamped and a
    :class:`SeparationWarning` is raised, with the model flagged unconverged.
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
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        eta = X @ beta
        mu = sigmoid(eta)
        grad = X.T @ (labels - mu)
        if np.max(np.abs(grad)) <= 1e-6:
            converged = True
            break
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
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
            converged = False
            break
        if np.max(np.abs(step)) <= tol:
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
    stratum sizes are as equal as the ties permit.
    """
    p = np.asarray(propensities, dtype=float).reshape(-1)
    n = p.size
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > n:
        raise TooManyStrataError(f"K={K} exceeds the {n} available records")
    order = np.argsort(p, kind="stable")
    labels = np.empty(n, dtype=int)
    labels[order] = np.arange(n) * K // n + 1
    if K == 1:
        boundaries = np.empty(0)
    else:
        boundaries = np.quantile(p, np.arange(1, K) / K)
    return StratumAssignment(K=K, labels=labels, boundaries=boundaries)


def asmd(group_x, group_y) -> float:
    """Absolute standardized mean difference between two groups.

    |mean_x - mean_y| / sqrt((var_x + var_y) / 2) with n-1 variances.
    Returns 0 for identical means, and inf when both variances vanish but
    the means differ.
    """
    x = np.asarray(group_x, dtype=float).reshape(-1)
    y = np.asarray(group_y, dtype=float).reshape(-1)
    var_x = x.var(ddof=1) if x.size > 1 else 0.0
    var_y = y.var(ddof=1) if y.size > 1 else 0.0
    diff = abs(float(x.mean()) - float(y.mean()))
    denom = math.sqrt((var_x + var_y) / 2.0)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def balance_report(
    table: ScoreTable,
    assignment: StratumAssignment,
    covariate_names: Sequence[str] | None = None,
) -> BalanceReport:
    """ASMD between form-X and form-Y members, per stratum and covariate.

    Strata missing either form are flagged as overlap violations and carry
    NaN entries; they are excluded from the satisfactory-balance fractions.
    """
    raw, forms = table.covariates, table.form
    if assignment.labels.size != len(table):
        raise DimensionError("assignment does not cover the records")
    n_cov = raw.shape[1]
    names = (
        list(covariate_names)
        if covariate_names is not None
        else [f"C{j + 1}" for j in range(n_cov)]
    )
    table = np.full((assignment.K, n_cov), np.nan)
    violations = []
    for k in range(1, assignment.K + 1):
        members = assignment.members(k)
        in_x = members[forms[members] == 0]
        in_y = members[forms[members] == 1]
        if in_x.size == 0 or in_y.size == 0:
            violations.append(k)
            continue
        for j in range(n_cov):
            table[k - 1, j] = asmd(raw[in_x, j], raw[in_y, j])
    evaluable = ~np.isnan(table)
    counts = evaluable.sum(axis=0)
    satisfactory = ((table < BALANCE_THRESHOLD) & evaluable).sum(axis=0)
    frac = np.where(counts > 0, satisfactory / np.maximum(counts, 1), np.nan)
    return BalanceReport(
        K=assignment.K,
        covariate_names=names,
        asmd=table,
        satisfactory_fraction=frac,
        overlap_violations=violations,
    )
