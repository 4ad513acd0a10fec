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
    sorted_quantiles,
)
from .errors import DimensionError, InvalidWeightError
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


@dataclass(frozen=True)
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


# a fit counts its bins on the dense (cell, form, score) grid while that has at most
# this many bins per record; past it (say, anchors near 2**63) it ranks the occupied bins
DENSE_BINS_PER_RECORD = 16


def _linear_maps(value, mass, run, weighted):
    """The cells with a positive sd in both forms, and their conditional-moment
    linear maps as one LinearTransform of (cells, 1) columns.

    Each run's mean is S1 / n, S1 = sum c_s s; its variance the centred second pass
    sum c_s (s - mean)^2 over n - 1 (unit weights: anchor scores, strata) or over the
    weight sum (IPW). One distinct score has sd exactly 0, even where a rounded
    weighted mean misses it by an ulp.
    """
    total = np.bincount(run, mass)
    mean = np.bincount(run, mass * value) / total
    var = np.bincount(run, mass * (value - mean[run]) ** 2) / (total if weighted else total - 1)
    sd = np.where(np.bincount(run) > 1, np.sqrt(var), 0.0).reshape(-1, 2)  # per cell: X, Y
    mean, f = mean.reshape(-1, 2), (np.minimum(sd[:, 0], sd[:, 1]) > 0.0).nonzero()[0]
    return f, LinearTransform(sd[f, :1] / sd[f, 1:], mean[f, 1:], mean[f, :1])


def _cdf_maps(cdf):
    """Per cell, the equipercentile map between ``cdf`` of each form's histogram
    row: a WeightedSample of its distinct scores and their mass. Every cell fits."""
    def fit(value, mass, run, weighted):
        ends = np.cumsum(np.bincount(run)).tolist()
        cdfs = [cdf(WeightedSample(value[a:b], mass[a:b])) for a, b in zip([0] + ends, ends)]
        return slice(None), [EquipercentileMap(y, x) for x, y in zip(cdfs[::2], cdfs[1::2])]

    return fit


def _fit_cells(table: ScoreTable, by, fit) -> TransformFamily:
    """One transform per conditioning cell, from one (cell, form, score) histogram.

    ``by`` is the conditioning: ``"anchor"``, a :class:`StratumAssignment`, or an
    :class:`IPWWeights` (trimmed weights; an overlap-violating stratum lacks a form,
    so it never qualifies). A cell qualifies with ``MIN_CELL_SIZE`` records of each
    form; one holding a weight that is not finite and > 0 raises InvalidWeightError.
    One ``np.bincount`` counts each bin's records, a second totals IPW weights in
    record order. ``fit(value, mass, run, weighted)`` returns the qualifying cells it
    fits (an index; the rest are omitted) and their ``maps``: run 2i is cell i's form-X
    histogram, 2i + 1 its form-Y one, a bin per distinct score (``value``, ascending)
    with its record count or weight total (``mass``). Sums over a run are
    ``np.bincount``s in score order, so a plain per-cell loop gives the same bits.
    """
    weights = None
    if isinstance(by, IPWWeights):
        kind, cells, weights = "stratum", by.assignment.labels, by.trimmed
    elif isinstance(by, StratumAssignment):
        kind, cells = "stratum", by.labels
    elif by == "anchor":
        if table.anchor is None:
            raise InvalidWeightError("every record needs an anchor score")
        kind, cells = "anchor_score", table.anchor
    else:
        raise ValueError(f"cannot condition on {by!r}")
    if np.shape(cells) != np.shape(table.form):
        raise DimensionError("the cells do not cover the records")
    cells, form, score = cells.astype(np.int64, copy=False), table.form, table.score
    top = int(score.max(initial=0)) + 1
    if (int(cells.max(initial=0)) + 1) * 2 * top <= DENSE_BINS_PER_RECORD * len(table):
        key = (2 * cells + form) * top + score
    else:  # the same bin order, numbered by np.unique ranks: of cells and scores, then bins
        # (scores as the doubles a fit reads: two that round alike share a bin)
        c, s = (np.unique(col, return_inverse=True)[1] for col in (cells, score.astype(float)))
        key = np.unique((2 * c + form) * (s.max(initial=0) + 1) + s, return_inverse=True)[1]
    count = np.bincount(key)
    bins = count.nonzero()[0]
    first = np.empty(count.size, np.intp)
    first[key] = np.arange(key.size)  # a record of each bin: they share its (cell, form, score)
    record = first[bins]
    cell, form, value = cells[record], form[record], score[record]
    mass = count[bins] if weights is None else np.bincount(key, weights)[bins]
    new_cell = np.ones(bins.size, bool)  # the first bin of each cell, and of each run
    new_cell[1:] = cell[1:] != cell[:-1]
    new_run = new_cell.copy()
    new_run[1:] |= form[1:] != form[:-1]
    run = new_run.cumsum() - 1
    size, run_cell = np.bincount(run, count[bins]), cell[new_run]
    # a cell's form-X run comes first: run x + 1 of the same cell is its form-Y run
    x = np.flatnonzero(~new_cell[new_run][1:] & (np.minimum(size[:-1], size[1:]) >= MIN_CELL_SIZE))
    if weights is not None:
        bad = ~((weights > 0) & (weights < np.inf))  # NaN included
        if bad.any() and np.isin(run_cell[x], cells[bad]).any():
            raise InvalidWeightError("all weights must be finite and > 0")
    qualifies = np.zeros(run_cell.size, bool)
    qualifies[x] = qualifies[x + 1] = True
    kept = qualifies[run]
    fitted, maps = fit(value[kept].astype(float), mass[kept].astype(float, copy=False),
                       new_run[kept].cumsum() - 1, weights is not None)
    cells = run_cell[x][fitted]
    omitted = sorted(set(cell[new_cell].tolist()) - set(cells.tolist()))
    return TransformFamily(index_kind=kind, cells=cells, maps=maps, omitted=omitted)


def anchor_family(table: ScoreTable) -> TransformFamily:
    """Local equating family conditioned on the anchor score.

    Per anchor value observed in both forms with at least two records per
    form and positive sds, builds the conditional-moment linear transform.
    """
    return _fit_cells(table, "anchor", _linear_maps)


def strat_family(table: ScoreTable, assignment: StratumAssignment) -> TransformFamily:
    """Local equating family with one transform per propensity stratum."""
    return _fit_cells(table, assignment, _linear_maps)


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
    return _fit_cells(table, weights, _linear_maps)


class EquipercentileMap:
    """Monotone map y -> F_X^{-1}(F_Y(y)) between two CDFs.

    When both CDFs have a survival function (kernel CDFs), S_Y(y) is computed
    directly and the upper half is inverted in survival form, so the top of
    the map keeps the precision that F_Y(y) loses near 1. A NaN score raises
    ValueError; -inf and inf map to the ends of F_X's support.
    """

    def __init__(self, cdf_y, cdf_x):
        self.cdf_y = cdf_y
        self.cdf_x = cdf_x

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        if np.isnan(flat).any():
            raise ValueError("equipercentile map got a NaN score")
        p = self.cdf_y(flat)
        q = None
        if hasattr(self.cdf_y, "sf") and hasattr(self.cdf_x, "sf"):
            q = self.cdf_y.sf(flat)
        # the inverse is non-decreasing in p and non-increasing in q; running
        # bounds in score order keep p and q so even if F_Y or S_Y rounds a
        # higher y one ulp the other way
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
        fit = _cdf_maps(ECDF)
    elif math.isinf(bandwidth):
        fit = _linear_maps
    else:
        fit = _cdf_maps(lambda sample: KernelCDF(sample, bandwidth))
    return _fit_cells(table, by, fit)


PercentileSelection = namedtuple(
    "PercentileSelection", ["percentile", "requested_index", "index", "transform"]
)


def family_at_percentiles(
    family: TransformFamily, percentiles: Sequence[float], index_values
) -> list[PercentileSelection]:
    """Pick the transforms at given percentiles of the conditioning variable.

    The index value at percentile p is the generalized-inverse empirical
    quantile of ``index_values``, and ``family.nearest`` resolves all at once: an
    omitted index to the nearest fitted index, with a warning.
    """
    requested = np.quantile(index_values, np.divide(percentiles, 100.0), method="inverted_cdf")
    selections = []
    for p, want, got in zip(percentiles, requested.tolist(), family.nearest(requested).tolist()):
        want = int(want) if float(want).is_integer() else float(want)
        if want != got:
            warnings.warn(
                f"percentile {p} maps to omitted index {want}; "
                f"using nearest fitted index {got}",
                UserWarning,
                stacklevel=2,
            )
        selections.append(PercentileSelection(p, want, got, family.entries[got]))
    return selections


def pooled_transform(table: ScoreTable) -> LinearTransform:
    """Single population-level linear transform (equivalent-groups baseline).

    The one-cell case of the family engine: every record in one stratum.
    """
    everyone = StratumAssignment(K=1, labels=np.ones(len(table), dtype=int))
    return _fit_cells(table, everyone, _linear_maps).maps[0]
