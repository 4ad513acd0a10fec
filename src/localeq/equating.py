"""Local equating transform families: anchor-based, stratified, and IPW.

Every family maps form-Y scores onto the form-X scale, one transform per
conditioning cell (anchor score, propensity stratum). One cell engine
serves every family: a cell qualifies with at least two records per form
(and, for a linear transform, a positive score sd in both forms); anything
else is listed under the family's omitted indices rather than silently
dropped.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ECDF,
    KernelCDF,
    LinearTransform,
    ScoreTable,
    TransformFamily,
    WeightedSample,
    inverse_cdf,
    unweighted_moments,
    weighted_moments,
)
from .errors import DimensionError, EmptyFamilyError, InvalidWeightError
from .propensity import StratumAssignment

__all__ = [
    "IPWWeights",
    "anchor_family",
    "strat_family",
    "ipw_weights",
    "ipw_family",
    "EquipercentileMap",
    "equipercentile_family",
    "family_at_percentiles",
    "PercentileSelection",
    "pooled_transform",
]

MIN_CELL_SIZE = 2


@dataclass
class IPWWeights:
    """Stabilized inverse probability weights with symmetric trimming.

    ``raw`` holds the stabilized weight (within-stratum own-group proportion
    over the record's assignment probability), ``trimmed`` its value after
    clipping to the within-stratum alpha/2 and 1-alpha/2 weight quantiles.
    Records in strata missing either form carry NaN and their strata are
    listed under ``overlap_violations``.
    """

    raw: np.ndarray
    trimmed: np.ndarray
    strata: np.ndarray
    trim_alpha: float
    overlap_violations: list[int] = field(default_factory=list)


def _linear_map(x: WeightedSample, y: WeightedSample, moments) -> LinearTransform | None:
    """Conditional-moment linear transform, or None if either sd is zero."""
    mu_x, sd_x = moments(x)
    mu_y, sd_y = moments(y)
    if sd_x <= 0.0 or sd_y <= 0.0:
        return None
    return LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)


def _cdf_map(cdf):
    """Per-cell fit: the equipercentile map between ``cdf`` of each form."""
    return lambda x, y, moments: EquipercentileMap(cdf(y), cdf(x))


def _fit_cells(table: ScoreTable, by, fit) -> TransformFamily:
    """One transform per conditioning cell: the loop every family runs.

    ``by`` is the conditioning: ``"anchor"``, a :class:`StratumAssignment`,
    or an :class:`IPWWeights` (trimmed weights; overlap-violating strata are
    skipped). A cell qualifies with at least ``MIN_CELL_SIZE`` records of
    each form; then ``fit(x, y, moments)`` maps its form-Y sample onto its
    form-X sample, or returns None to omit it. The moments follow from the
    conditioning: unit-weight cells (anchor scores, strata) use the n-1 sd,
    IPW-weighted cells the weight-sum sd.
    """
    weights, skip = None, ()
    if isinstance(by, IPWWeights):
        kind, cells, weights = "stratum", by.strata, by.trimmed
        skip = by.overlap_violations
    elif isinstance(by, StratumAssignment):
        kind, cells = "stratum", by.labels
    elif by == "anchor":
        if table.anchor is None:
            raise InvalidWeightError("every record needs an anchor score")
        kind, cells = "anchor_score", table.anchor
    else:
        raise ValueError(f"cannot condition on {by!r}")
    forms, scores = table.form, table.score.astype(float)
    if cells.size != forms.size:
        raise DimensionError("conditioning does not cover the records")
    moments = (
        weighted_moments if weights is not None
        else lambda sample: unweighted_moments(sample.values)
    )
    entries, omitted = {}, []
    for index in sorted(set(cells.tolist())):
        in_cell = cells == index
        selections = [in_cell & (forms == 0), in_cell & (forms == 1)]
        transform = None
        if index not in skip and min(s.sum() for s in selections) >= MIN_CELL_SIZE:
            x, y = (
                WeightedSample(scores[s], None if weights is None else weights[s])
                for s in selections
            )
            transform = fit(x, y, moments)
        if transform is None:
            omitted.append(index)
        else:
            entries[index] = transform
    if not entries:
        raise EmptyFamilyError(f"no {kind} cell qualified for a transform")
    return TransformFamily(index_kind=kind, entries=entries, omitted=omitted)


def anchor_family(table: ScoreTable) -> TransformFamily:
    """Local equating family conditioned on the anchor score.

    Per anchor value observed in both forms with at least two records per
    form and positive sds, builds the conditional-moment linear transform.
    """
    return _fit_cells(table, "anchor", _linear_map)


def strat_family(table: ScoreTable, assignment: StratumAssignment) -> TransformFamily:
    """Local equating family with one transform per propensity stratum."""
    return _fit_cells(table, assignment, _linear_map)


def ipw_weights(
    table: ScoreTable,
    assignment: StratumAssignment,
    propensities,
    trim_alpha: float = 0.01,
) -> IPWWeights:
    """Stabilized, symmetrically trimmed IPW weights within each stratum.

    The stabilization numerator is the record's own-group proportion in its
    stratum: p_k / pi for form-Y takers, (1 - p_k) / (1 - pi) for form-X
    takers, with p_k the stratum's share of form-Y takers. Trimming clips to
    the alpha/2 and 1-alpha/2 quantiles of the stratum's pooled weights
    (inclusive linear-interpolation quantiles). Strata with only one form
    are overlap violations: their records get NaN weights.
    """
    if not 0.0 <= trim_alpha < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {trim_alpha}")
    pi = np.asarray(propensities, dtype=float).reshape(-1)
    if pi.size != len(table) or assignment.labels.size != len(table):
        raise DimensionError("propensities/assignment do not cover the records")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise InvalidWeightError("propensities must lie strictly inside (0, 1)")
    raw = np.full(pi.size, np.nan)
    trimmed = np.full(pi.size, np.nan)
    violations = []
    for k in range(1, assignment.K + 1):
        members = assignment.members(k)
        if members.size == 0:
            continue
        t = table.form[members]
        n_y = int(t.sum())
        if n_y == 0 or n_y == members.size:
            violations.append(k)
            continue
        p_k = n_y / members.size
        w = np.where(t == 1, p_k / pi[members], (1.0 - p_k) / (1.0 - pi[members]))
        lo, hi = np.quantile(w, [trim_alpha / 2.0, 1.0 - trim_alpha / 2.0])
        raw[members] = w
        trimmed[members] = np.clip(w, lo, hi)
    return IPWWeights(
        raw=raw,
        trimmed=trimmed,
        strata=assignment.labels.copy(),
        trim_alpha=trim_alpha,
        overlap_violations=violations,
    )


def ipw_family(table: ScoreTable, weights: IPWWeights) -> TransformFamily:
    """Stratum-indexed family from trimmed-weighted moments.

    Weighted means and sds divide by the weight sum (no n-1 correction),
    restricted to each form within the stratum. Overlap-violating strata and
    cells with fewer than two records per form or zero weighted sd are
    omitted.
    """
    return _fit_cells(table, weights, _linear_map)


class EquipercentileMap:
    """Monotone map y -> F_X^{-1}(F_Y(y)) between two CDFs."""

    def __init__(self, cdf_y, cdf_x):
        self.cdf_y = cdf_y
        self.cdf_x = cdf_x

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        p = self.cdf_y(flat)
        # a batched kernel CDF sums each point in its own order and can put a
        # higher y one ulp lower; near p = 1 that ulp moves the inverse visibly
        order = np.argsort(flat, kind="stable")
        p[order] = np.maximum.accumulate(p[order])
        out = np.array([inverse_cdf(self.cdf_x, q) for q in p])
        return out.reshape(y.shape) if y.ndim else float(out[0])


def equipercentile_family(
    table: ScoreTable,
    by,
    bandwidth: float | None = None,
) -> TransformFamily:
    """Equipercentile maps per conditioning cell from weighted ECDFs.

    ``by`` selects the conditioning: a :class:`StratumAssignment`, an
    :class:`IPWWeights` (its trimmed weights enter the ECDFs), or the string
    ``"anchor"``. With ``bandwidth=None`` the raw step ECDFs are used; a
    finite bandwidth kernel-smooths them; ``bandwidth=math.inf`` returns the
    linear family of the same conditioning (:func:`anchor_family`,
    :func:`strat_family` or :func:`ipw_family`), the limiting case of the
    smoothed map.
    """
    if bandwidth is None:
        fit = _cdf_map(ECDF)
    elif math.isinf(bandwidth):
        fit = _linear_map
    else:
        fit = _cdf_map(lambda sample: KernelCDF(sample, bandwidth))
    return _fit_cells(table, by, fit)


PercentileSelection = namedtuple(
    "PercentileSelection", ["percentile", "requested_index", "index", "transform"]
)


def family_at_percentiles(
    family: TransformFamily, percentiles: Sequence[float], index_values
) -> list[PercentileSelection]:
    """Pick the transforms at given percentiles of the conditioning variable.

    The index value at percentile p is the generalized-inverse empirical
    quantile of ``index_values``. A percentile landing on an omitted index
    resolves to the nearest fitted index, with a warning.
    """
    if not family.entries:
        raise EmptyFamilyError("family has no fitted entries")
    values = np.asarray(index_values)
    selections = []
    for p in percentiles:
        requested = np.quantile(values, p / 100.0, method="inverted_cdf")
        requested = int(requested) if float(requested).is_integer() else float(requested)
        if requested in family.entries:
            resolved = requested
        else:
            resolved = family.nearest(requested)
            warnings.warn(
                f"percentile {p} maps to omitted index {requested}; "
                f"using nearest fitted index {resolved}",
                UserWarning,
                stacklevel=2,
            )
        selections.append(
            PercentileSelection(p, requested, resolved, family.entries[resolved])
        )
    return selections


def pooled_transform(table: ScoreTable) -> LinearTransform:
    """Single population-level linear transform (equivalent-groups baseline).

    The one-cell case of the family engine: every record in one stratum.
    """
    everyone = StratumAssignment(
        K=1, labels=np.ones(len(table), dtype=int), boundaries=np.empty(0)
    )
    return _fit_cells(table, everyone, _linear_map).entries[1]
