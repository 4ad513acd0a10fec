"""Local equating transform families: anchor-based, stratified, and IPW.

Every family maps form-Y scores onto the form-X scale, one transform per
conditioning cell (anchor score, propensity stratum). Cells need at least
two records per form and a positive score sd to qualify; anything else is
listed under the family's omitted indices rather than silently dropped.
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
    ExamineeRecord,
    KernelCDF,
    LinearTransform,
    TransformFamily,
    WeightedSample,
    inverse_cdf,
    unweighted_moments,
    weighted_ecdf,
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


def _forms_scores(records: Sequence[ExamineeRecord]):
    forms = np.array([r.form for r in records], dtype=int)
    scores = np.array([r.score for r in records], dtype=float)
    return forms, scores


def _cell_transform(x_scores: np.ndarray, y_scores: np.ndarray) -> LinearTransform | None:
    """Moment transform with n-1 sds, or None if the cell is degenerate."""
    if x_scores.size < MIN_CELL_SIZE or y_scores.size < MIN_CELL_SIZE:
        return None
    mu_x, sd_x = unweighted_moments(x_scores)
    mu_y, sd_y = unweighted_moments(y_scores)
    if sd_x <= 0.0 or sd_y <= 0.0:
        return None
    return LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)


def _build_family(index_kind, cell_indices, forms, scores) -> TransformFamily:
    entries, omitted = {}, []
    for index in sorted({int(v) for v in cell_indices}):
        in_cell = cell_indices == index
        t = _cell_transform(
            scores[in_cell & (forms == 0)], scores[in_cell & (forms == 1)]
        )
        if t is None:
            omitted.append(index)
        else:
            entries[index] = t
    if not entries:
        raise EmptyFamilyError(f"no {index_kind} cell qualified for a transform")
    return TransformFamily(index_kind=index_kind, entries=entries, omitted=omitted)


def anchor_family(records: Sequence[ExamineeRecord]) -> TransformFamily:
    """Local equating family conditioned on the anchor score.

    Per anchor value observed in both forms with at least two records per
    form and positive sds, builds the conditional-moment linear transform.
    """
    forms, scores = _forms_scores(records)
    anchors = [r.anchor for r in records]
    if any(a is None for a in anchors):
        raise InvalidWeightError("every record needs an anchor score")
    return _build_family("anchor_score", np.array(anchors, dtype=int), forms, scores)


def strat_family(
    records: Sequence[ExamineeRecord], assignment: StratumAssignment
) -> TransformFamily:
    """Local equating family with one transform per propensity stratum."""
    forms, scores = _forms_scores(records)
    if assignment.labels.size != len(records):
        raise DimensionError("assignment does not cover the records")
    return _build_family("stratum", assignment.labels, forms, scores)


def ipw_weights(
    records: Sequence[ExamineeRecord],
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
    forms, _ = _forms_scores(records)
    pi = np.asarray(propensities, dtype=float).reshape(-1)
    if pi.size != len(records) or assignment.labels.size != len(records):
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
        t = forms[members]
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


def ipw_family(
    records: Sequence[ExamineeRecord], weights: IPWWeights
) -> TransformFamily:
    """Stratum-indexed family from trimmed-weighted moments.

    Weighted means and sds divide by the weight sum (no n-1 correction),
    restricted to each form within the stratum. Overlap-violating strata and
    cells with fewer than two records per form or zero weighted sd are
    omitted.
    """
    forms, scores = _forms_scores(records)
    if weights.strata.size != len(records):
        raise DimensionError("weights were computed on different records")
    entries, omitted = {}, []
    for k in sorted(set(weights.strata.tolist())):
        if k in weights.overlap_violations:
            omitted.append(k)
            continue
        in_cell = weights.strata == k
        t = None
        x_sel = in_cell & (forms == 0)
        y_sel = in_cell & (forms == 1)
        if x_sel.sum() >= MIN_CELL_SIZE and y_sel.sum() >= MIN_CELL_SIZE:
            mu_x, sd_x = weighted_moments(
                WeightedSample(scores[x_sel], weights.trimmed[x_sel])
            )
            mu_y, sd_y = weighted_moments(
                WeightedSample(scores[y_sel], weights.trimmed[y_sel])
            )
            if sd_x > 0.0 and sd_y > 0.0:
                t = LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)
        if t is None:
            omitted.append(k)
        else:
            entries[k] = t
    if not entries:
        raise EmptyFamilyError("no stratum qualified for an IPW transform")
    return TransformFamily(index_kind="stratum", entries=entries, omitted=omitted)


class EquipercentileMap:
    """Monotone map y -> F_X^{-1}(F_Y(y)) between two CDFs."""

    def __init__(self, cdf_y, cdf_x):
        self.cdf_y = cdf_y
        self.cdf_x = cdf_x

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        out = np.array([inverse_cdf(self.cdf_x, p) for p in self.cdf_y(flat)])
        return out.reshape(y.shape) if y.ndim else float(out[0])


def _cells_and_weights(records, by):
    """Resolve the conditioning cells and per-record weights for `by`."""
    if isinstance(by, StratumAssignment):
        return "stratum", by.labels, np.ones(len(records)), []
    if isinstance(by, IPWWeights):
        return "stratum", by.strata, by.trimmed, list(by.overlap_violations)
    if by == "anchor":
        anchors = [r.anchor for r in records]
        if any(a is None for a in anchors):
            raise InvalidWeightError("every record needs an anchor score")
        return "anchor_score", np.array(anchors, dtype=int), np.ones(len(records)), []
    raise ValueError(f"cannot condition on {by!r}")


def equipercentile_family(
    records: Sequence[ExamineeRecord],
    by,
    bandwidth: float | None = None,
) -> TransformFamily:
    """Equipercentile maps per conditioning cell from weighted ECDFs.

    ``by`` selects the conditioning: a :class:`StratumAssignment`, an
    :class:`IPWWeights` (its trimmed weights enter the ECDFs), or the string
    ``"anchor"``. With ``bandwidth=None`` the raw step ECDFs are used; a
    finite bandwidth kernel-smooths them; ``bandwidth=math.inf`` dispatches
    to the linear transform, the limiting case of the smoothed map.
    """
    forms, scores = _forms_scores(records)
    index_kind, cells, w, violations = _cells_and_weights(records, by)
    entries, omitted = {}, []
    for index in sorted(set(cells.tolist())):
        if index in violations:
            omitted.append(index)
            continue
        in_cell = cells == index
        x_sel = in_cell & (forms == 0)
        y_sel = in_cell & (forms == 1)
        if x_sel.sum() == 0 or y_sel.sum() == 0:
            omitted.append(index)
            continue
        sample_x = WeightedSample(scores[x_sel], w[x_sel])
        sample_y = WeightedSample(scores[y_sel], w[y_sel])
        if bandwidth is not None and math.isinf(bandwidth):
            mu_x, sd_x = weighted_moments(sample_x)
            mu_y, sd_y = weighted_moments(sample_y)
            if sd_x <= 0.0 or sd_y <= 0.0:
                omitted.append(index)
                continue
            entries[index] = LinearTransform(slope=sd_x / sd_y, mu_y=mu_y, mu_x=mu_x)
        elif bandwidth is not None:
            entries[index] = EquipercentileMap(
                KernelCDF(sample_y, bandwidth), KernelCDF(sample_x, bandwidth)
            )
        else:
            entries[index] = EquipercentileMap(
                weighted_ecdf(sample_y), weighted_ecdf(sample_x)
            )
    if not entries:
        raise EmptyFamilyError("no cell qualified for an equipercentile map")
    return TransformFamily(index_kind=index_kind, entries=entries, omitted=omitted)


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


def pooled_transform(records: Sequence[ExamineeRecord]) -> LinearTransform:
    """Single population-level linear transform (equivalent-groups baseline)."""
    forms, scores = _forms_scores(records)
    t = _cell_transform(scores[forms == 0], scores[forms == 1])
    if t is None:
        raise EmptyFamilyError("pooled sample is degenerate")
    return t
