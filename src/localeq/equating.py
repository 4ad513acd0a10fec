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
    cell_form_order,
    inverse_cdf,
    sorted_quantiles,
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
    listed under ``overlap_violations``. ``assignment`` is the stratification
    the weights were built from; it holds each record's stratum.
    """

    raw: np.ndarray
    trimmed: np.ndarray
    assignment: StratumAssignment
    trim_alpha: float
    overlap_violations: list[int] = field(default_factory=list)

    def __post_init__(self):
        shape = np.shape(self.assignment.labels)
        if len(shape) != 1 or not np.shape(self.raw) == np.shape(self.trimmed) == shape:
            raise DimensionError("raw, trimmed and the labels need one entry per record each")


# one form's records in one cell: slices of the family's sorted columns,
# ``weights`` None for unit-weight cells
_Slice = namedtuple("_Slice", ["values", "weights"])


def _linear_map(x: _Slice, y: _Slice) -> LinearTransform | None:
    """Conditional-moment linear transform, or None if either sd is zero.

    The moments follow from the conditioning: unit-weight cells (anchor
    scores, strata) use the n-1 sd, IPW-weighted cells the weight-sum sd.
    """
    (mu_x, sd_x), (mu_y, sd_y) = (
        unweighted_moments(s.values) if s.weights is None else weighted_moments(s)
        for s in (x, y)
    )
    if sd_x <= 0.0 or sd_y <= 0.0:
        return None
    return LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)


def _cdf_map(cdf):
    """Per-cell fit: the equipercentile map between ``cdf`` of each form."""
    return lambda x, y: EquipercentileMap(cdf(WeightedSample(*y)), cdf(WeightedSample(*x)))


def _fit_cells(table: ScoreTable, by, fit) -> TransformFamily:
    """One transform per conditioning cell: the loop every family runs.

    ``by`` is the conditioning: ``"anchor"``, a :class:`StratumAssignment`,
    or an :class:`IPWWeights` (trimmed weights; an overlap-violating stratum
    lacks a form, so it never qualifies). A cell qualifies with at least
    ``MIN_CELL_SIZE`` records of each form; then ``fit(x, y)`` maps its form-Y
    sample onto its form-X sample, or returns None to omit it. A qualifying
    cell holding a weight that is not finite and > 0 raises InvalidWeightError.

    The records are sorted once by :func:`cell_form_order`, so each sample is
    a contiguous slice whose records keep their input order: its sums run in
    the order a per-cell selection would give them, bit for bit.
    """
    weights, bad_weight = None, ()
    if isinstance(by, IPWWeights):
        kind, cells, weights = "stratum", by.assignment.labels, by.trimmed
        bad_weight = set(cells[~((weights > 0) & (weights < np.inf))].tolist())
    elif isinstance(by, StratumAssignment):
        kind, cells = "stratum", by.labels
    elif by == "anchor":
        if table.anchor is None:
            raise InvalidWeightError("every record needs an anchor score")
        kind, cells = "anchor_score", table.anchor
    else:
        raise ValueError(f"cannot condition on {by!r}")
    forms = table.form
    if cells.size != forms.size:
        raise DimensionError("conditioning does not cover the records")
    order = cell_form_order(cells, forms)
    cells = cells[order]
    scores = table.score[order].astype(float)
    if weights is not None:
        weights = weights[order]
    # each cell is a run [start, stop) of the sorted records, form X first:
    # [start, split) holds its form-X records, [split, stop) its form-Y ones
    edges = np.flatnonzero(np.diff(cells, prepend=cells[:1] - 1, append=cells[-1:] + 1))
    starts, stops = edges[:-1], edges[1:]
    form_x_before = np.concatenate(([0], np.cumsum(forms[order] == 0)))
    splits = starts + form_x_before[stops] - form_x_before[starts]
    entries, omitted = {}, []
    for index, start, split, stop in zip(
        cells[starts].tolist(), starts.tolist(), splits.tolist(), stops.tolist()
    ):
        transform = None
        if min(split - start, stop - split) >= MIN_CELL_SIZE:
            if index in bad_weight:
                raise InvalidWeightError("all weights must be finite and > 0")
            x, y = (
                _Slice(scores[a:b], None if weights is None else weights[a:b])
                for a, b in ((start, split), (split, stop))
            )
            transform = fit(x, y)
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

    One pass serves every stratum: the records are sorted by (stratum,
    weight), and each stratum's bounds are read off its sorted run with
    ``np.quantile``'s own steps, so the bits are those of a per-stratum
    ``np.quantile``.
    """
    if not 0.0 <= trim_alpha < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {trim_alpha}")
    pi = np.asarray(propensities, dtype=float).reshape(-1)
    if pi.size != len(table) or assignment.labels.size != len(table):
        raise DimensionError("propensities/assignment do not cover the records")
    if not ((pi > 0.0) & (pi < 1.0)).all():  # NaN included
        raise InvalidWeightError("propensities must lie strictly inside (0, 1)")
    stratum = assignment.labels.astype(np.intp, copy=False) - 1  # 0-based
    sizes = np.bincount(stratum, minlength=assignment.K)
    n_y = np.bincount(stratum, weights=table.form, minlength=assignment.K)
    overlap = (n_y > 0) & (n_y < sizes)
    p = (n_y / np.maximum(sizes, 1))[stratum]
    raw = np.where(table.form == 1, p / pi, (1.0 - p) / (1.0 - pi))
    by_weight = np.argsort(raw)
    # a stable sort of 8- or 16-bit keys is a radix sort
    key = stratum[by_weight].astype(np.min_scalar_type(assignment.K))
    run = raw[by_weight[np.argsort(key, kind="stable")]]
    starts = np.cumsum(sizes) - sizes
    # a stratum without overlap keeps NaN bounds, and clipping to them NaN
    lo, hi = np.full((2, assignment.K), np.nan)
    lo[overlap], hi[overlap] = sorted_quantiles(
        run, starts[overlap], sizes[overlap], [trim_alpha / 2.0, 1.0 - trim_alpha / 2.0]
    ).T
    trimmed = np.clip(raw, lo[stratum], hi[stratum])
    raw[~overlap[stratum]] = np.nan
    violations = (np.flatnonzero((sizes > 0) & ~overlap) + 1).tolist()
    return IPWWeights(
        raw=raw,
        trimmed=trimmed,
        assignment=assignment,
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
    """Monotone map y -> F_X^{-1}(F_Y(y)) between two CDFs.

    When both CDFs have a survival function (kernel CDFs), S_Y(y) is computed
    directly and the upper half is inverted in survival form, so the top of
    the map keeps the precision that F_Y(y) loses near 1.
    """

    def __init__(self, cdf_y, cdf_x):
        self.cdf_y = cdf_y
        self.cdf_x = cdf_x

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        p = self.cdf_y(flat)
        q = None
        if hasattr(self.cdf_y, "sf") and hasattr(self.cdf_x, "sf"):
            q = self.cdf_y.sf(flat)
        # a batched kernel CDF sums each point in its own order and can put a
        # higher y one ulp lower (or S_Y one ulp higher); the inverse keeps
        # the map monotone only for p non-decreasing and q non-increasing in y
        order = np.argsort(flat, kind="stable")
        p[order] = np.maximum.accumulate(p[order])
        if q is not None:
            q[order] = np.minimum.accumulate(q[order])
        out = inverse_cdf(self.cdf_x, p, survival=q)
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
    :func:`strat_family` or :func:`ipw_family`). For IPW cells that is the
    limit of the smoothed map as h -> inf. Anchor and strata cells take the
    n-1 sd, where the kernel CDF takes the n sd, so there the large-h slope is
    the linear slope times sqrt((n_x - 1) / n_x * n_y / (n_y - 1)).
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
