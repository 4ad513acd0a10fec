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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import (
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidProbabilityError,
    InvalidWeightError,
)

__all__ = [
    "ExamineeRecord",
    "LinearTransform",
    "TransformFamily",
    "WeightedSample",
    "weighted_moments",
    "unweighted_moments",
    "ECDF",
    "KernelCDF",
    "inverse_cdf",
]


@dataclass(frozen=True)
class ExamineeRecord:
    """One test-taker: form indicator, total score, optional anchor, covariates.

    ``form`` is 0 for takers of form X (the reference scale) and 1 for takers
    of form Y (the scale being equated). Covariates are numeric codes;
    categorical covariates are stored as integer levels.
    """

    form: int
    score: int
    anchor: int | None = None
    covariates: tuple[float, ...] = ()

    def __post_init__(self):
        if self.form not in (0, 1):
            raise ValueError(f"form indicator must be 0 or 1, got {self.form!r}")
        if self.score < 0:
            raise ValueError(f"total score must be non-negative, got {self.score}")
        if self.anchor is not None and self.anchor < 0:
            raise ValueError(f"anchor score must be non-negative, got {self.anchor}")
        if not isinstance(self.covariates, tuple):
            object.__setattr__(self, "covariates", tuple(self.covariates))


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
        return self.slope * (np.asarray(y, dtype=float) - self.mu_y) + self.mu_x

    def inverse(self) -> "LinearTransform":
        """The reverse-direction map built from the same cell moments."""
        return LinearTransform(1.0 / self.slope, self.mu_x, self.mu_y)


@dataclass
class TransformFamily:
    """A family of equating maps indexed by a conditioning value.

    ``index_kind`` is one of ``anchor_score``, ``stratum``, ``theta_bin``.
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


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


@dataclass(frozen=True)
class WeightedSample:
    """A vector of values with strictly positive weights of equal length."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        values = _as_float_array(self.values)
        if values.size == 0:
            raise EmptyInputError("weighted sample must be non-empty")
        if self.weights is None:
            weights = np.ones_like(values)
        else:
            weights = _as_float_array(self.weights)
        if weights.shape != values.shape:
            raise DimensionError(
                f"values ({values.size}) and weights ({weights.size}) differ in length"
            )
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise InvalidWeightError("all weights must be finite and > 0")
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.values.size


def weighted_moments(sample: WeightedSample) -> tuple[float, float]:
    """Weighted mean and sd with the weight sum as variance denominator.

    mean = sum(w v) / sum(w);  sd = sqrt(sum(w (v - mean)^2) / sum(w)).
    No n-1 correction: this matches the weighted-moment estimators used by
    the IPW transform.
    """
    v, w = sample.values, sample.weights
    wsum = w.sum()
    mean = float(np.dot(w, v) / wsum)
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
    v = _as_float_array(values)
    if v.size == 0:
        raise EmptyInputError("cannot compute moments of an empty sample")
    if v.size < 2:
        raise InsufficientDataError("sd needs at least 2 observations")
    mean = float(v.mean())
    sd = float(v.std(ddof=1))
    return mean, sd


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

    def quantile(self, p: float) -> float:
        """Smallest sample value v with F(v) >= p (generalized inverse)."""
        if not 0.0 <= p <= 1.0:
            raise InvalidProbabilityError(f"p must lie in [0, 1], got {p}")
        if p == 0.0:
            return float(self.points[0])
        idx = np.searchsorted(self.cum_fractions, p, side="left")
        return float(self.points[min(idx, self.points.size - 1)])


class KernelCDF:
    """Gaussian-kernel continuization of a weighted sample.

    Uses the mean- and variance-preserving form: with weighted moments
    (mu, sigma) and shrink factor a = sigma / sqrt(sigma^2 + h^2),

        F_h(x) = sum_i r_i * Phi((x - a v_i - (1 - a) mu) / (a h)),

    so the continuized distribution keeps mean mu and variance sigma^2 for
    every bandwidth h. As h -> 0 the step ECDF is recovered; as h -> inf the
    CDF tends to the Gaussian with the sample's moments, which makes the
    induced equipercentile map collapse to the linear transform.
    """

    def __init__(self, sample: WeightedSample, bandwidth: float):
        if not bandwidth > 0:
            raise InvalidBandwidthError(f"bandwidth must be > 0, got {bandwidth}")
        mu, sigma = weighted_moments(sample)
        self.mu = mu
        self.sigma = sigma
        self.bandwidth = float(bandwidth)
        self.fractions = sample.weights / sample.weights.sum()
        if math.isinf(bandwidth) or sigma == 0.0:
            a = 0.0
            scale = sigma  # limiting value of a*h
        else:
            a = sigma / math.sqrt(sigma**2 + bandwidth**2)
            scale = a * bandwidth
        self.centers = a * sample.values + (1.0 - a) * mu
        self.scale = scale

    @property
    def support(self) -> tuple[float, float]:
        pad = 9.0 * max(self.scale, 1e-12)
        return float(self.centers.min() - pad), float(self.centers.max() + pad)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.scale == 0.0:
            # degenerate: all mass at the centers (step function)
            out = (x[..., None] >= self.centers).astype(float) @ self.fractions
        else:
            z = (x[..., None] - self.centers) / self.scale
            out = ndtr(z) @ self.fractions
        return out if out.ndim else float(out)


def inverse_cdf(cdf, p: float, domain: tuple[float, float] | None = None) -> float:
    """Generalized inverse: smallest x in the domain with ``cdf(x) >= p``.

    Step CDFs exposing an exact ``quantile`` method are inverted exactly;
    smooth CDFs by bisection to absolute tolerance 1e-8.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"p must lie in [0, 1], got {p}")
    if hasattr(cdf, "quantile"):
        return cdf.quantile(p)
    if domain is None:
        domain = cdf.support
    lo, hi = float(domain[0]), float(domain[1])
    if p == 0.0 or cdf(lo) >= p:
        return lo
    if cdf(hi) < p:
        return hi
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi
