"""Domain types and numerical primitives shared by all equating estimators.

Two moment conventions coexist on purpose: ``unweighted_moments`` uses the
n-1 denominator (anchor and stratification estimators), ``weighted_moments``
divides by the weight sum (inverse-probability-weighted estimators). The
equating cell engine picks the denominator from the conditioning: n-1 for
unit-weight cells (anchor scores, strata), the weight sum for cells that
carry IPW weights. No caller chooses it by flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidProbabilityError,
    InvalidWeightError,
)

__all__ = [
    "ScoreTable",
    "LinearTransform",
    "TransformFamily",
    "WeightedSample",
    "weighted_moments",
    "unweighted_moments",
    "ECDF",
    "KernelCDF",
    "inverse_cdf",
]


def _read_only(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.flags.writeable = False
    return view


def _int_column(values, what: str, size: int) -> np.ndarray:
    """A read-only int64 view of a 1-D column of ``size`` whole numbers."""
    col = np.asarray(values)
    if col.ndim != 1 or col.size != size:
        raise DimensionError(f"{what} column must be 1-D with one entry per examinee")
    if col.dtype.kind not in "iub" and not np.all(np.isfinite(col) & (col == np.round(col))):
        raise ValueError(f"{what} must hold integers")
    return _read_only(col.astype(np.int64, copy=False))


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Examinees as columns: form indicator, total score, anchor, covariates.

    ``form`` is 0 for form X (the reference scale), 1 for form Y (the scale
    being equated). ``score`` and ``anchor`` are non-negative integers;
    ``anchor`` is None without an anchor test. ``covariates`` holds one finite
    row per examinee, categorical covariates as integer levels. The columns
    are validated once, at construction, and kept read-only.
    """

    form: np.ndarray
    score: np.ndarray
    anchor: np.ndarray | None = None
    covariates: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.form)
        form = _int_column(self.form, "form indicator", n)
        score = _int_column(self.score, "total score", n)
        anchor = None if self.anchor is None else _int_column(self.anchor, "anchor", n)
        for col, what, valid in (
            (form, "form indicator must be 0 or 1", (form == 0) | (form == 1)),
            (score, "total score must be non-negative", score >= 0),
            (anchor, "anchor score must be non-negative", anchor is None or anchor >= 0),
        ):
            if not np.all(valid):
                raise ValueError(f"{what}, got {col[np.argmin(valid)]}")
        cov = np.empty((n, 0)) if self.covariates is None else self.covariates
        cov = _read_only(np.asarray(cov, dtype=float))
        if cov.ndim != 2 or cov.shape[0] != n:
            raise DimensionError("covariates need one row per examinee")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates must be finite")
        for f, col in zip(fields(self), (form, score, anchor, cov)):
            object.__setattr__(self, f.name, col)

    def __len__(self):
        return self.form.size

    def __eq__(self, other):
        return isinstance(other, ScoreTable) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True)
class LinearTransform:
    """Slope-intercept equating map ``y -> slope * (y - mu_y) + mu_x``.

    ``slope`` is the ratio of conditional standard deviations (X over Y),
    ``mu_y`` and ``mu_x`` the conditional means being matched. Maps ``mu_y``
    exactly onto ``mu_x``.
    """

    slope: float
    mu_y: float
    mu_x: float

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError(f"slope must be positive, got {self.slope}")

    def __call__(self, y):
        return self.apply(np.asarray(y, dtype=float), self.slope, self.mu_y, self.mu_x)

    @staticmethod
    def apply(y, slope, mu_y, mu_x):
        """The map's arithmetic on arrays that broadcast: with (cells, 1)
        columns of parameters and a row of scores, every cell's map at once."""
        return slope * (y - mu_y) + mu_x

    def inverse(self) -> "LinearTransform":
        """The reverse-direction map built from the same cell moments."""
        return LinearTransform(1.0 / self.slope, self.mu_x, self.mu_y)


@dataclass
class TransformFamily:
    """A family of equating maps indexed by a conditioning value.

    ``index_kind`` is ``anchor_score`` or ``stratum``.
    ``entries`` maps each qualifying index value to its transform (a
    :class:`LinearTransform` or any monotone callable); ``omitted`` lists
    index values observed in the data but with insufficient data to estimate
    a transform. The two sets are disjoint and jointly cover every observed
    index value.
    """

    index_kind: str
    entries: dict = field(default_factory=dict)
    omitted: list = field(default_factory=list)

    def __post_init__(self):
        overlap = set(self.entries) & set(self.omitted)
        if overlap:
            raise ValueError(f"indices both fitted and omitted: {sorted(overlap)}")

    @property
    def indices(self):
        return sorted(self.entries)

    def nearest(self, index):
        """The fitted index value closest to ``index`` (ties go low)."""
        if index in self.entries:
            return index
        fitted = self.indices
        if not fitted:
            raise KeyError(f"family has no fitted entries near {index!r}")
        return min(fitted, key=lambda v: (abs(v - index), v))

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class WeightedSample:
    """A vector of values with strictly positive weights of equal length."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        values = _read_only(np.asarray(self.values, dtype=float).reshape(-1))
        if values.size == 0:
            raise EmptyInputError("weighted sample must be non-empty")
        weights = np.ones_like(values) if self.weights is None else self.weights
        weights = _read_only(np.asarray(weights, dtype=float).reshape(-1))
        if weights.shape != values.shape:
            raise DimensionError(
                f"values ({values.size}) and weights ({weights.size}) differ in length"
            )
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise InvalidWeightError("all weights must be finite and > 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.values.size


def weighted_moments(sample: WeightedSample) -> tuple[float, float]:
    """Weighted mean and sd with the weight sum as variance denominator.

    mean = sum(w v) / sum(w);  sd = sqrt(sum(w (v - mean)^2) / sum(w)).
    No n-1 correction: this matches the weighted-moment estimators used by
    the IPW transform. A sample of one distinct value has sd exactly 0.0,
    even where the rounded mean misses that value by an ulp.
    """
    v, w = sample.values, sample.weights
    wsum = w.sum()
    mean = float(np.dot(w, v) / wsum)
    if v.min() == v.max():
        return mean, 0.0
    var = float(np.dot(w, (v - mean) ** 2) / wsum)
    return mean, math.sqrt(max(var, 0.0))


def unweighted_moments(values) -> tuple[float, float]:
    """Sample mean and sd with the n-1 denominator.

    Raises
    ------
    EmptyInputError
        on an empty vector.
    InsufficientDataError
        when fewer than two observations are available for the sd.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise EmptyInputError("cannot compute moments of an empty sample")
    if v.size < 2:
        raise InsufficientDataError("sd needs at least 2 observations")
    mean, var = _mean_var(v)
    return float(mean), math.sqrt(var)


def _mean_var(values):
    """Mean and n-1 variance of a non-empty sample, the variance of one value 0.0:
    numpy's own mean() / var(ddof=1) steps, so the same bits, minus their wrappers."""
    v = np.asarray(values, dtype=float).reshape(-1)
    mean = np.add.reduce(v) / v.size
    return mean, np.add.reduce((v - mean) ** 2) / (v.size - 1) if v.size > 1 else 0.0


def sorted_quantiles(values: np.ndarray, start, count, q) -> np.ndarray:
    """Linear quantiles of sorted runs, bit for bit those of ``np.quantile``.

    Run i is ``values[start[i]:start[i] + count[i]]``, sorted ascending, with
    ``count[i] >= 1``; ``q`` holds probabilities in [0, 1]. Returns one row
    of ``len(q)`` quantiles per run. The steps are numpy's own for Hyndman &
    Fan's definition 7: virtual index (n - 1) q, its floor and fraction
    gamma, then a + (b - a) gamma, overwritten by b - (b - a)(1 - gamma)
    where gamma >= 0.5. At the run's end b is a, and gamma is moot.
    """
    start = np.asarray(start)[:, None]
    last = np.asarray(count)[:, None] - 1
    virtual = last * np.asarray(q, dtype=float)
    below = np.floor(virtual)
    gamma = virtual - below
    first = start + below.astype(np.intp)
    a = values[first]
    b = values[np.minimum(first + 1, start + last)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def cell_runs(cells, forms):
    """Records grouped by cell, form X before Y: ``order, cell, start, split, stop``.

    ``order`` sorts the records stably by cell, then form, ties in input order.
    The other four hold one entry per cell present, in cell order: the cell's
    form-X records are ``order[start:split]``, its form-Y ones ``order[split:stop]``.
    Cells must be whole numbers in 0..2**63 - 1, forms 0 or 1 per record, or one
    form for all. The key 2 cell + form is built in place in the smallest unsigned
    dtype that holds it: as int64 it would wrap near 2**63, and a stable sort of an
    8- or 16-bit key is a radix sort.
    """
    if np.ndim(forms) and np.shape(forms) != np.shape(cells):
        raise DimensionError("the cells do not cover the records")
    key = np.asarray(cells).astype(np.min_scalar_type(2 * int(np.max(cells, initial=0)) + 1))
    if key.dtype.kind != "u" or not np.array_equal(key, cells):  # negative, fractional, >= 2**63
        raise ValueError("cells must be whole numbers in 0..2**63 - 1")
    key <<= 1
    np.bitwise_or(key, forms, out=key, dtype=key.dtype, casting="unsafe")
    order = np.argsort(key, kind="stable")
    key = key[order]
    cell = key >> 1
    start = np.flatnonzero(np.diff(cell, prepend=cell[:1] + 1))  # unsigned: != 0 iff changed
    cell = cell[start]
    form_y = cell << 1 | 1  # each cell's form-Y key
    return order, cell, start, np.searchsorted(key, form_y), np.searchsorted(key, form_y, "right")


def _probabilities(values, what: str = "p") -> np.ndarray:
    """``values`` as a float array; InvalidProbabilityError names the first
    entry outside [0, 1], NaN included."""
    arr = np.asarray(values, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise InvalidProbabilityError(f"{what} must lie in [0, 1], got {arr[bad][0]}")
    return arr


class ECDF:
    """Right-continuous weighted empirical CDF of a sample.

    ``F(x) = sum(w_i * 1[v_i <= x]) / sum(w_i)``. Exposes an exact
    generalized inverse through :meth:`quantile`.
    """

    def __init__(self, sample: WeightedSample):
        order = np.argsort(sample.values, kind="stable")
        v = sample.values[order]
        w = sample.weights[order]
        # collapse ties so that F jumps once per distinct value
        distinct, start = np.unique(v, return_index=True)
        csum = np.cumsum(w)
        self.points = distinct
        self.cum_fractions = csum[np.append(start[1:] - 1, v.size - 1)] / csum[-1]
        self.cum_fractions[-1] = 1.0

    @property
    def support(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def __call__(self, x):
        idx = np.searchsorted(self.points, np.asarray(x, dtype=float), side="right")
        out = np.where(idx > 0, self.cum_fractions[np.maximum(idx - 1, 0)], 0.0)
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Smallest sample value v with F(v) >= p (generalized inverse).

        ``p`` is a probability or an array of them; a scalar returns a float.
        """
        idx = np.searchsorted(self.cum_fractions, _probabilities(p), side="left")
        out = self.points[np.minimum(idx, self.points.size - 1)]
        return out if out.ndim else float(out)


def _ndtr(z):
    """The standard normal CDF, elementwise."""
    # imported at first use: scipy.special takes about 0.3 s to load and only
    # kernel continuization needs it
    from scipy.special import ndtr

    return ndtr(z)


class KernelCDF:
    """Gaussian-kernel continuization of a weighted sample.

    Uses the mean- and variance-preserving form: with weighted moments
    (mu, sigma) and shrink factor a = sigma / sqrt(sigma^2 + h^2),

        F_h(x) = sum_j r_j * Phi((x - c_j) / s),  c_j = a v_j + (1 - a) mu,  s = a h,

    so the continuized distribution keeps mean mu and variance sigma^2 for
    every bandwidth h. As h -> 0 the step ECDF is recovered; as h -> inf the
    CDF tends to the Gaussian with the sample's moments, so the induced
    equipercentile map tends to the linear map of the weight-sum sds (with
    unit weights the n sd, not the n-1 sd of a linear strata cell). Tied sample
    values are pooled at construction (``centers`` holds one entry per
    distinct value v_j, ``fractions`` its weight share r_j), so an evaluation
    costs one ``ndtr`` per distinct value, not per record. With s = 0 (a
    sample without spread) F_h is the step function at the centers.
    """

    def __init__(self, sample: WeightedSample, bandwidth: float):
        if not bandwidth > 0:
            raise InvalidBandwidthError(f"bandwidth must be > 0, got {bandwidth}")
        mu, sigma = weighted_moments(sample)
        distinct, tie = np.unique(sample.values, return_inverse=True)
        self.fractions = np.bincount(tie, weights=sample.weights / sample.weights.sum())
        if math.isinf(bandwidth) or sigma == 0.0:
            a = 0.0
            scale = sigma  # limiting value of a*h
        else:
            a = sigma / math.sqrt(sigma**2 + bandwidth**2)
            scale = a * bandwidth
        self.centers = a * distinct + (1.0 - a) * mu
        self.scale = scale

    @property
    def support(self) -> tuple[float, float]:
        pad = 9.0 * max(self.scale, 1e-12)
        return float(self.centers.min() - pad), float(self.centers.max() + pad)

    def __call__(self, x):
        """F_h(x), elementwise over ``x``."""
        x = np.asarray(x, dtype=float)
        if self.scale == 0.0:
            return self._mix(x[..., None] >= self.centers)
        return self._mix(_ndtr((x[..., None] - self.centers) / self.scale))

    def sf(self, x):
        """Survival function 1 - F_h(x) = sum_j r_j * Phi((c_j - x) / s).

        Summed directly rather than as 1 - F_h, so it keeps its relative
        precision in the upper tail, where F_h rounds to 1.
        """
        x = np.asarray(x, dtype=float)
        if self.scale == 0.0:
            return self._mix(x[..., None] < self.centers)
        return self._mix(_ndtr((self.centers - x[..., None]) / self.scale))

    def _mix(self, mass):
        # the weighted sum can overshoot 1 by a few ulp; a probability cannot
        out = np.minimum(mass @ self.fractions, 1.0)
        return out if out.ndim else float(out)


def inverse_cdf(cdf, p, survival=None):
    """Generalized inverse: smallest x in ``cdf.support`` with ``cdf(x) >= p``.

    ``p`` is a probability or an array of them, inverted all at once; a
    scalar returns a float. Step CDFs exposing an exact ``quantile`` method
    are inverted exactly. Smooth CDFs are bisected over ``cdf.support`` to
    absolute tolerance 1e-8: one evaluation at the support's midpoint sends
    each entry to the lower or the upper half, and each half then bisects
    all its entries in step, so answers from the two halves cannot cross.

    ``survival`` optionally holds 1 - p computed directly (same shape as
    ``p``), for a ``cdf`` with an ``sf`` method. The upper half then bisects
    on ``cdf.sf(x) <= survival`` instead of ``cdf(x) >= p``: near p = 1 that
    keeps the digits p lost by rounding toward 1, and the inverse stays
    accurate to the tolerance in both tails.
    """
    probs = _probabilities(p)
    q = None if survival is None else _probabilities(survival, "survival")
    if q is not None and q.shape != probs.shape:
        raise DimensionError(f"survival {q.shape} and p {probs.shape} differ in shape")
    if hasattr(cdf, "quantile"):
        return cdf.quantile(probs)
    lo, hi = (float(v) for v in cdf.support)
    half = 0.5 * (lo + hi)
    out = np.empty(probs.shape)
    upper = probs > cdf(half)
    if not upper.all():
        p_low = probs[~upper]
        out[~upper] = _bisect(lambda x: cdf(x) >= p_low, lo, half, p_low.size)
    if upper.any():
        if q is None:
            p_up = probs[upper]
            out[upper] = _bisect(lambda x: cdf(x) >= p_up, half, hi, p_up.size)
        else:
            q_up = q[upper]
            out[upper] = _bisect(lambda x: cdf.sf(x) <= q_up, half, hi, q_up.size)
    return out if out.ndim else float(out)


def _bisect(qualifies, lo: float, hi: float, size: int) -> np.ndarray:
    """For each of ``size`` entries, the smallest x in [lo, hi] where
    ``qualifies`` holds, to absolute tolerance 1e-8.

    ``qualifies`` maps one point per entry to one boolean per entry and is
    non-decreasing in x. An entry qualifying at ``lo`` gets ``lo``; one that
    never qualifies gets ``hi``.
    """
    a, b = np.full(size, lo), np.full(size, hi)
    at_lo = qualifies(a)
    while (b - a > 1e-8).any():
        mid = 0.5 * (a + b)
        ok = qualifies(mid)
        a, b = np.where(ok, a, mid), np.where(ok, mid, b)
    return np.where(at_lo, lo, b)
