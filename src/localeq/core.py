"""Domain types and numerical primitives shared by all equating estimators.

Two moment conventions coexist on purpose. The equating cell engine reads
each cell's moments off its score histogram, and the conditioning picks the
variance denominator: n-1 for unit-weight cells (anchor scores, strata), the
weight sum for cells that carry IPW weights. No caller chooses it by flag.
``weighted_moments`` gives the weight-sum moments of any weighted sample,
the ones a kernel CDF preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    EmptyFamilyError,
    EmptyInputError,
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
    exactly onto ``mu_x``. A family's map holds (cells, 1) columns: called on a
    row of scores it maps them for every cell at once, and ``[i]`` is cell i's.
    """

    slope: float | np.ndarray
    mu_y: float | np.ndarray
    mu_x: float | np.ndarray

    def __post_init__(self):
        if not np.all(self.slope > 0):  # one cell's map or a family's columns; NaN included
            raise ValueError(f"slope must be positive, got {np.min(self.slope)}")

    def __eq__(self, other):  # field by field, so maps of equal columns compare too
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __call__(self, y):
        return self.slope * (np.asarray(y, dtype=float) - self.mu_y) + self.mu_x

    def __getitem__(self, i):
        return LinearTransform(self.slope.item(i), self.mu_y.item(i), self.mu_x.item(i))


@dataclass(frozen=True, eq=False)
class TransformFamily:
    """A family of equating maps indexed by a conditioning value.

    ``index_kind`` is ``anchor_score``, ``stratum`` or ``theta_bin``. ``cells``
    holds the fitted index values, ascending, read-only int64; ``maps[i]`` is the
    map of ``cells[i]``: ``maps`` is a :class:`LinearTransform` of (cells, 1)
    columns, or a list of monotone callables. ``omitted`` lists index values
    observed but with insufficient data to estimate a transform. The two sets
    are disjoint and jointly cover every observed index value.
    """

    index_kind: str
    cells: np.ndarray
    maps: object
    omitted: list = field(default_factory=list)

    def __post_init__(self):
        cells = _read_only(np.asarray(self.cells, dtype=np.int64).reshape(-1))
        if not cells.size:
            raise EmptyFamilyError(f"no {self.index_kind} cell qualified for a transform")
        listed = cells.tolist()
        if listed != sorted(set(listed)):
            raise ValueError("fitted cells must be distinct and ascending")
        overlap = set(listed) & set(self.omitted)
        if overlap:
            raise ValueError(f"indices both fitted and omitted: {sorted(overlap)}")
        object.__setattr__(self, "cells", cells)

    @cached_property
    def entries(self) -> dict:
        """The per-cell view ``{cell: map}``, built once per family."""
        return {cell: self.maps[i] for i, cell in enumerate(self.cells.tolist())}

    def nearest(self, index):
        """The fitted index value closest to ``index``, elementwise (ties go low)."""
        cells = self.cells
        above = np.minimum(np.searchsorted(cells, index), cells.size - 1)
        below = np.maximum(above - 1, 0)
        return cells[np.where(index - cells[below] <= cells[above] - index, below, above)]

    def __len__(self):
        return self.cells.size


@dataclass(frozen=True)
class WeightedSample:
    """A vector of values with strictly positive weights of equal length."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        values = _read_only(np.asarray(self.values, dtype=float).reshape(-1))
        if values.size == 0:
            raise EmptyInputError("weighted sample must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
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
    even where the rounded mean misses that value by an ulp. The sums are
    ``np.add.reduce``, not BLAS dot products, whose bits follow the CPU.
    """
    v, w = sample.values, sample.weights
    wsum = np.add.reduce(w)
    mean = float(np.add.reduce(w * v) / wsum)
    if v.min() == v.max():
        return mean, 0.0
    var = float(np.add.reduce(w * (v - mean) ** 2) / wsum)
    return mean, math.sqrt(max(var, 0.0))


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

    so the continuized distribution keeps mean ``mu`` and sd ``sigma`` for
    every bandwidth h. As h -> 0 the step ECDF is recovered; as h -> inf the
    CDF tends to the Gaussian with the sample's moments, so the induced
    equipercentile map tends to the linear map of the weight-sum sds (with
    unit weights the n sd, not the n-1 sd of a linear strata cell). Tied sample
    values are pooled at construction (``centers`` holds one entry per
    distinct value v_j, ``fractions`` its weight share r_j), so an evaluation
    costs one ``ndtr`` per distinct value, not per record. With s = 0 (a
    sample without spread) F_h is the step function at the centers. F_h and
    S_h sum each point's terms on their own, so neither its batch nor the BLAS
    kernel moves a value's bits.
    """

    def __init__(self, sample: WeightedSample, bandwidth: float):
        if not bandwidth > 0:
            raise InvalidBandwidthError(f"bandwidth must be > 0, got {bandwidth}")
        self.mu, self.sigma = mu, sigma = weighted_moments(sample)
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

    def tail_density(self, x, upper):
        """F_h(x), or S_h(x) where ``upper``, and the density f_h(x) from one pass
        at positive scale: inverse_cdf's Newton steps read it."""
        z = (np.asarray(x, dtype=float)[..., None] - self.centers) / self.scale
        mass = self._mix(_ndtr(np.where(np.asarray(upper)[..., None], -z, z)))
        return mass, self._mix(np.exp(-0.5 * z * z)) / (self.scale * math.sqrt(2 * math.pi))

    def _mix(self, mass):
        # row by row in a fixed order, where a BLAS product's order follows the
        # batch and the CPU; the sum can overshoot 1 by a few ulp, a probability cannot
        out = np.minimum(np.add.reduce(mass * self.fractions, axis=-1), 1.0)
        return out if out.ndim else float(out)


def inverse_cdf(cdf, p, survival=None):
    """Generalized inverse: smallest x in ``cdf.support`` with ``cdf(x) >= p``.

    ``p`` is a probability or an array of them, inverted all at once; a
    scalar returns a float. Step CDFs exposing an exact ``quantile`` method
    are inverted exactly. A smooth CDF is inverted on the grid
    x_k = min(lo + k step, hi) over its support [lo, hi], step 2**-27 (7.45e-9)
    or, if coarser, four float spacings of the support's largest value. An entry's
    answer is the first point of its half of the grid (set by one evaluation at
    the midpoint) at which it qualifies, or the half's last point.

    ``survival`` optionally holds 1 - p computed directly (same shape as
    ``p``), for a ``cdf`` with an ``sf`` method. The upper half then qualifies
    by ``cdf.sf(x) <= survival`` instead of ``cdf(x) >= p``: near p = 1 that
    keeps the digits p lost by rounding toward 1.

    A :class:`KernelCDF` with positive scale predicts each index k by Newton
    steps, accepted once one batch shows the entry failing at k - 1 and
    qualifying at k. Other entries and CDFs bisect the index, which ends at any
    finite magnitude. The answer rests on the rule at grid points only.
    """
    probs = _probabilities(p)
    q = None if survival is None else _probabilities(survival, "survival")
    if q is not None and q.shape != probs.shape:
        raise DimensionError(f"survival {q.shape} and p {probs.shape} differ in shape")
    if hasattr(cdf, "quantile"):
        return cdf.quantile(probs)
    lo, hi = (float(v) for v in cdf.support)
    step = max(2.0**-27, 4.0 * float(np.spacing(max(abs(lo), abs(hi)))))
    mid = math.ceil((0.5 * (lo + hi) - lo) / step)  # the first grid index past the midpoint
    p = probs.reshape(-1)
    upper = p > cdf(0.5 * (lo + hi))
    tail = upper & (q is not None)  # entries that qualify in survival form
    target = p if q is None else np.where(tail, q.reshape(-1), p)
    a, b = np.where(upper, mid, 0), np.where(upper, math.ceil((hi - lo) / step), mid)

    def probe(entries, k):  # narrow each entry's answer range [a, b] by its rule at k
        x = np.minimum(lo + k * step, hi)
        ok, sf = np.empty(k.shape, dtype=bool), tail[entries]
        if not sf.all():
            ok[~sf] = cdf(x[~sf]) >= target[entries[~sf]]
        if sf.any():
            ok[sf] = cdf.sf(x[sf]) <= target[entries[sf]]
        np.minimum.at(b, entries[ok], k[ok])
        np.maximum.at(a, entries[~ok], k[~ok] + 1)

    if isinstance(cdf, KernelCDF) and cdf.scale > 0.0:
        k = _newton_index(cdf, lo, step, target, tail, a, b)
        below = np.flatnonzero(k > a)  # one batch probes k - 1 and k
        probe(np.concatenate([below, np.arange(k.size)]), np.concatenate([k[below] - 1, k]))
    open_ = np.flatnonzero(a < b)
    while open_.size:  # bisect the grid index of each entry left open
        probe(open_, (a[open_] + b[open_]) // 2)
        open_ = open_[a[open_] < b[open_]]
    out = np.minimum(lo + b * step, hi).reshape(probs.shape)
    return out if out.ndim else float(out)


def _newton_index(cdf, lo, step, target, tail, first, last):
    """Each entry's grid index in [first, last] by bracketed Newton steps on
    g(F_h) = g(p), or g(S_h) = g(q) where ``tail``, with g(t) = sqrt(-2 log t): about
    linear in x in a normal tail. The bracket starts one step past either end of
    the range, so a root beyond an end settles there."""
    sign = np.where(tail, -1.0, 1.0)  # sign * (target - mass) > 0 below the root
    start, stop = lo + first * step, np.minimum(lo + last * step, cdf.support[1])
    a, b = start - step, stop + step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # first guess: the centers' quantile, right as h -> 0, blended by
        # w = s / sigma with the normal quantile at mu and sigma, right as h -> inf
        # (Tukey's lambda approximation 4.91 (t^0.14 - (1 - t)^0.14))
        t, w = np.where(tail, 1.0 - target, target), cdf.scale / cdf.sigma
        step_quantile = np.interp(t, np.cumsum(cdf.fractions) - 0.5 * cdf.fractions, cdf.centers)
        normal_quantile = cdf.mu + cdf.sigma * 4.91 * (t**0.14 - (1.0 - t) ** 0.14)
        x = np.minimum(np.maximum((1.0 - w) * step_quantile + w * normal_quantile, start), stop)
        g_target = np.sqrt(-2.0 * np.log(target))
        for _ in range(64):
            mass, density = cdf.tail_density(x, tail)
            short = sign * (target - mass) > 0.0
            a, b = np.where(short, x, a), np.where(short, b, x)
            g = np.sqrt(-2.0 * np.log(mass))
            newton = x + sign * (g - g_target) * mass * g / density
            converged = np.abs(newton - x) <= 0.25 * step  # such an entry stays put
            nxt = np.minimum(np.maximum(newton, start), stop)
            inner_a, inner_b = np.maximum(a, start), np.minimum(b, stop)
            mid = 0.5 * (inner_a + inner_b)
            x = np.where(converged, x, np.where((nxt > a) & (nxt < b), nxt, mid))
            if np.all(converged | (inner_b - inner_a <= 0.25 * step)):
                break
    k = first + np.ceil((np.where(converged, newton, b) - start) / step)
    return np.clip(k, first, last)
