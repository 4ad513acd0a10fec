"""Propensity estimation, quantile stratification, and balance diagnostics.

The propensity score is the probability of form assignment given covariates,
estimated by logistic regression fit with iteratively reweighted least
squares. Stratification partitions examinees into K quantile groups of the
estimated score; the absolute standardized mean difference (ASMD) measures
within-stratum covariate balance, with values below 0.1 read as satisfactory.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ScoreTable, _mean_var, _probabilities, _read_only, _whole_numbers
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


@dataclass(frozen=True)
class StratumAssignment:
    """Quantile stratification: per-record labels in 1..K, a read-only view of
    the array given, so a later write to that array bypasses the 1..K check.
    K is a Python or numpy integer and each label a whole number in 1..K, as
    given, else DimensionError names the first bad value."""

    K: int
    labels: np.ndarray

    def __post_init__(self):
        if not isinstance(self.K, numbers.Integral):
            raise DimensionError(f"K must be an integer, got {self.K!r}")
        labels = _whole_numbers(self.labels, "stratum label", 1, self.K, DimensionError)
        if labels.ndim != 1:
            raise DimensionError(f"stratum labels must be 1-d, got shape {labels.shape}")
        object.__setattr__(self, "labels", _read_only(labels))


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

    Every kind is checked to be "numeric" or "categorical" before any column
    is read. A categorical covariate yields one indicator column per observed
    level past the lowest. A numeric one yields ``(col - mean) / sd`` (n-1 sd,
    pooled sample) when its values are not all equal and that sd is positive.
    A column that yields nothing is dropped with a :class:`DegenerateColumnWarning`.
    """
    raw = table.covariates
    if raw.shape[1] != len(kinds):
        raise DimensionError(
            f"{raw.shape[1]} covariates but {len(kinds)} kind tags"
        )
    for kind in kinds:
        if kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown covariate kind {kind!r}")
    columns = []
    for j, kind in enumerate(kinds):
        col, encoded = raw[:, j], []
        if kind == "categorical":
            encoded = [(col == level).astype(float) for level in np.unique(col)[1:]]
        elif col.size and col.min() < col.max() and (sd := col.std(ddof=1)) > 0.0:
            encoded = [(col - col.mean()) / sd]  # values are finite (ScoreTable)
        if not encoded:
            warnings.warn(
                f"covariate {j} has a single observed level or no spread; dropped",
                DegenerateColumnWarning,
                stacklevel=2,
            )
        columns += encoded
    if not columns:
        return np.empty((raw.shape[0], 0))
    return np.column_stack(columns)


def _log_likelihood(eta: np.ndarray, labels: np.ndarray) -> float:
    # sum T*eta - log(1 + exp(eta)) = sum (T - 1/2) eta - |eta| / 2 - log1p(exp(-|eta|)),
    # in place over eta and one buffer; halving, then doubling, |eta| is exact
    fit = np.subtract(labels, 0.5)
    fit *= eta
    fit += np.multiply(np.abs(eta, out=eta), -0.5, out=eta)
    np.log1p(np.exp(np.multiply(eta, 2.0, out=eta), out=eta), out=eta)
    return float(np.sum(np.subtract(fit, eta, out=fit)))


def fit_logistic(design: np.ndarray, labels) -> PropensityModel:
    """Maximize the Bernoulli log-likelihood by Newton / IRLS steps.

    ``design`` holds the encoded covariate columns; an intercept column is
    prepended internally. Converged once no coefficient moves by more than
    ``STEP_TOLERANCE`` in a step, or the gradient max-norm is 1e-6, within
    ``MAX_ITERATIONS`` steps. Coefficients diverging past +-15 signal (quasi-)separation:
    they are clamped and a :class:`SeparationWarning` is raised, the model unconverged.
    Per record a step holds the design with its intercept, its weighted copy and the
    weights, which overwrite the fitted probabilities in place; the labels are read
    as given, with no float copy.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    labels = np.asarray(labels).reshape(-1)  # 0/1 as given: an int minus a float is a float
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
    intercept, slopes = model.coefficients[0], model.coefficients[1:]
    if rows.shape[1] != slopes.size:
        raise DimensionError(
            f"row arity {rows.shape[1]} does not match model ({slopes.size})"
        )
    eta = intercept + rows @ slopes
    p = np.clip(sigmoid(eta), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
    return float(p[0]) if single else p


def stratify_quantile(propensities, K: int) -> StratumAssignment:
    """Partition records into K strata of equal propensity rank.

    The record of stable rank r (ties kept in input order) gets label
    r * K // n + 1, so stratum sizes are as equal as the ties permit; one sort
    of the key tie rank * n + index after numpy's default argsort gives
    ``np.argsort(p, kind="stable")`` bit for bit. The labels are the partition:
    no set of cut points reproduces a rank split. A propensity outside [0, 1],
    NaN included, raises InvalidProbabilityError. K must be a Python or numpy
    integer >= 1, else ValueError names it, before any sort.
    """
    p = _probabilities(propensities, "propensities").reshape(-1)
    n = p.size
    if not isinstance(K, numbers.Integral) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    if K > n:
        raise TooManyStrataError(f"K={K} exceeds the {n} available records")
    order = np.argsort(p)  # ties in no set order
    p = p[order]  # sorted, as in any tie order
    key = np.zeros(n, dtype=np.int64)  # each tie's dense rank, then rank * n + index
    np.cumsum(p[1:] != p[:-1], out=key[1:])
    key *= n
    key += order
    key.sort()
    labels = np.empty(n, dtype=int)
    labels[np.remainder(key, n, out=key)] = np.arange(n)  # each record's stable rank
    labels *= K
    labels //= n
    labels += 1
    return StratumAssignment(K=K, labels=labels)


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
    raw, K = table.covariates, assignment.K
    if assignment.labels.size != raw.shape[0]:
        raise DimensionError("the stratum labels do not cover the records")
    if len(covariate_names) != raw.shape[1]:
        raise DimensionError(f"{len(covariate_names)} covariate names for {raw.shape[1]} columns")
    key = np.left_shift(assignment.labels, 1, dtype=np.min_scalar_type(2 * K + 1), casting="unsafe")
    np.bitwise_or(key, table.form, out=key, casting="unsafe")  # 2 k + form: 8 or 16 bits
    ends = np.cumsum(np.bincount(key, minlength=2 * K + 2))  # labels are >= 1: ends[1] = 0
    # one contiguous row per covariate; a stable sort of 8 or 16 bits is a radix sort
    columns = raw.take(np.argsort(key, kind="stable"), axis=0).T.copy()
    table = np.full((K, raw.shape[1]), np.nan)
    violations = []
    for k in range(1, K + 1):
        start, split, stop = ends[2 * k - 1:2 * k + 2]  # stratum k's form-X, form-Y runs
        if start < split < stop:
            for j, column in enumerate(columns):
                table[k - 1, j] = asmd(column[start:split], column[split:stop])
        elif start < stop:
            violations.append(k)
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
