"""Monte Carlo comparison harness: per-bin bias and RMSE against the truth.

Errors are tallied per (ability bin, raw score) cell within each
replication, then averaged twice: over the cell's examinees within a
replication, then over replications that populated the cell. Bias is the
mean absolute error as displayed in the study; the signed mean (the Monte
Carlo bias, mean of estimate - truth) rides along as a diagnostic column,
and its Monte Carlo standard error is available as ``signed_mcse``.
Accumulator slots are indexed by replication, so merging results from
parallel workers is order-independent.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from .core import TransformFamily
from .equating import (
    anchor_family,
    ipw_family,
    ipw_weights,
    pooled_transform,
    strat_family,
)
from .errors import LocalEqError, StudyUnstableWarning
from .propensity import (
    estimate_propensity,
    fit_logistic,
    stratify_quantile,
)
from .simulation import (
    SimulationConfig,
    SimulationDesign,
    draw_design,
    gen_population,
    mixture_score_distribution,
    true_transform,
)

__all__ = [
    "METHODS",
    "bin_by_theta",
    "ErrorAccumulator",
    "apply_omission_rule",
    "MethodResult",
    "EvaluationReport",
    "run_study",
]

METHODS = ("anchor", "strat", "ipw", "eg")

OMISSION_THRESHOLD = 1e-4


def bin_by_theta(theta, nbins: int):
    """Equal-width ability bins from min to max; returns (labels, edges).

    Labels run 1..nbins; the top edge is inclusive so the maximum lands in
    the last bin. All-equal input collapses to a single bin.
    """
    if nbins < 1:
        raise ValueError("nbins must be at least 1")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size == 0:
        raise ValueError("no ability values to bin")
    lo, hi = theta.min(), theta.max()
    if lo == hi:
        return np.ones(theta.size, dtype=int), np.array([lo, hi])
    edges = np.linspace(lo, hi, nbins + 1)
    labels = np.searchsorted(edges[1:-1], theta, side="right") + 1
    return labels.astype(int), edges


class ErrorAccumulator:
    """Error sums per (replication, bin, score) cell, one slot per replication.

    ``n_scores=None`` collapses the score axis for per-bin-only use. The
    finalized statistics average within each replication first, then across
    the replications that touched the cell.
    """

    def __init__(self, replications: int, nbins: int, n_scores: int | None = None):
        shape = (replications, nbins, 1 if n_scores is None else n_scores)
        self.per_score = n_scores is not None
        self.abs_sum = np.zeros(shape)
        self.sq_sum = np.zeros(shape)
        self.signed_sum = np.zeros(shape)
        self.count = np.zeros(shape, dtype=int)

    def add(self, replication: int, bins, errors, scores=None):
        bins = np.asarray(bins, dtype=int)
        errors = np.asarray(errors, dtype=float)
        if bins.shape != errors.shape:
            raise ValueError("bin labels and errors must align")
        if self.per_score:
            if scores is None:
                raise ValueError("score values required for a per-score accumulator")
            cols = np.asarray(scores, dtype=int)
        else:
            cols = np.zeros(bins.shape, dtype=int)
        idx = (np.full(bins.shape, replication), bins - 1, cols)
        np.add.at(self.abs_sum, idx, np.abs(errors))
        np.add.at(self.sq_sum, idx, errors**2)
        np.add.at(self.signed_sum, idx, errors)
        np.add.at(self.count, idx, 1)

    def insert(self, replication: int, other: "ErrorAccumulator"):
        """Copy a single-replication accumulator into the given slot."""
        self.abs_sum[replication] = other.abs_sum[0]
        self.sq_sum[replication] = other.sq_sum[0]
        self.signed_sum[replication] = other.signed_sum[0]
        self.count[replication] = other.count[0]

    def _double_average(self, sums):
        used = self.count > 0
        per_rep = np.where(used, sums / np.maximum(self.count, 1), 0.0)
        n_used = used.sum(axis=0)
        totals = per_rep.sum(axis=0) / np.maximum(n_used, 1)
        return np.where(n_used > 0, totals, np.nan)

    def bias(self) -> np.ndarray:
        return self._double_average(self.abs_sum)

    def rmse(self) -> np.ndarray:
        return np.sqrt(self._double_average(self.sq_sum))

    def signed_mean(self) -> np.ndarray:
        return self._double_average(self.signed_sum)

    def reps_used(self) -> np.ndarray:
        return (self.count > 0).sum(axis=0)

    def signed_mcse(self) -> np.ndarray:
        """Monte Carlo standard error of ``signed_mean`` per cell.

        The sample sd (ddof = 1) of the per-replication cell means of the
        signed error, over the replications that populated the cell, divided
        by sqrt(reps_used). NaN where fewer than two replications did.
        """
        used = self.count > 0
        n_used = used.sum(axis=0)
        per_rep = self.signed_sum / np.maximum(self.count, 1)
        centre = per_rep.sum(axis=0, where=used) / np.maximum(n_used, 1)
        sq_dev = np.sum((per_rep - centre) ** 2, axis=0, where=used)
        var = sq_dev / np.maximum(n_used - 1, 1)
        return np.where(n_used >= 2, np.sqrt(var / np.maximum(n_used, 1)), np.nan)


def apply_omission_rule(score_probabilities, threshold: float = OMISSION_THRESHOLD):
    """Mask (True = omit) for score values whose probability is below threshold."""
    probs = np.asarray(score_probabilities, dtype=float)
    return probs < threshold


@dataclass
class MethodResult:
    """Finalized per-cell statistics for one equating method.

    ``bias`` is the mean absolute error, ``signed_mean`` the Monte Carlo bias
    and ``signed_mcse`` its standard error. ``signed_mcse`` is not a report
    column.
    """

    bias: np.ndarray
    rmse: np.ndarray
    signed_mean: np.ndarray
    signed_mcse: np.ndarray
    reps_used: np.ndarray
    failures: int


@dataclass
class EvaluationReport:
    """Study output: per-method cell statistics plus the omission mask."""

    scenario: str
    config: SimulationConfig
    methods: dict
    omitted: np.ndarray
    replications: int

    columns = ("scenario", "method", "theta_bin", "score", "bias", "rmse", "signed_mean", "omitted")

    def to_rows(self) -> list:
        rows = []
        for method in sorted(self.methods):
            result = self.methods[method]
            nbins, n_scores = result.bias.shape
            for b in range(nbins):
                for s in range(n_scores):
                    if self.omitted[s] or result.reps_used[b, s] == 0:
                        stats = ("", "", "")
                    else:
                        stats = (
                            repr(float(result.bias[b, s])),
                            repr(float(result.rmse[b, s])),
                            repr(float(result.signed_mean[b, s])),
                        )
                    rows.append(
                        (self.scenario, method, str(b + 1), str(s))
                        + stats
                        + ("1" if self.omitted[s] else "0",)
                    )
        return rows

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.to_rows():
                fh.write(",".join(row) + "\n")


def _apply_family(family: TransformFamily, indices, scores) -> np.ndarray:
    """Equate scores cell by cell, falling back to the nearest fitted index."""
    out = np.empty(scores.size)
    for idx in np.unique(indices):
        sel = indices == idx
        transform = family.entries.get(int(idx))
        if transform is None:
            transform = family.entries[family.nearest(int(idx))]
        out[sel] = transform(scores[sel])
    return out


def _propensity_stage(pop, strata: int):
    """Propensity strata and scores, fitted once and shared by strat and ipw.

    The design matrix is standardized, anchor score first, then covariates:
    the anchor is the strongest ability proxy available to the assignment
    model, so the stratification and weighting methods condition on it
    alongside the background covariates. Constant columns are dropped.
    """
    raw = np.column_stack([pop.anchor_score, pop.covariates]).astype(float)
    sds = raw.std(axis=0, ddof=1)
    keep = sds > 0.0
    encoded = (raw[:, keep] - raw[:, keep].mean(axis=0)) / sds[keep]
    model = fit_logistic(encoded, pop.form)
    propensities = estimate_propensity(model, encoded)
    return stratify_quantile(propensities, strata), propensities


def _equate_target_scores(method, records, pop, config, target, stage):
    """Equated form-Y scores for the target examinees under one method."""
    y = pop.score[target].astype(float)
    if method == "eg":
        return pooled_transform(records)(y)
    if method == "anchor":
        return _apply_family(anchor_family(records), pop.anchor_score[target], y)
    if method in ("strat", "ipw"):
        assignment, propensities = stage
        if method == "strat":
            family = strat_family(records, assignment)
        else:
            weights = ipw_weights(records, assignment, propensities, config.trim_alpha)
            family = ipw_family(records, weights)
        return _apply_family(family, assignment.labels[target], y)
    raise ValueError(f"unknown method {method!r}")


def _run_replication(config, design, seed_seq, methods):
    """One replication: generate, equate with each method, return cell sums."""
    rng = np.random.default_rng(seed_seq)
    pop = gen_population(config, rng, design)
    records = pop.to_records()
    target = pop.form == 1
    if not target.any() or target.all():
        return {method: None for method in methods}
    theta = pop.theta[target]
    y = pop.score[target].astype(float)
    labels, _ = bin_by_theta(theta, config.nbins)

    true_eq = np.empty(y.size)
    for b in np.unique(labels):
        sel = labels == b
        truth = true_transform(theta[sel], design.form_x_items, design.form_y_items)
        true_eq[sel] = truth(y[sel])

    out = {}
    stage = None
    if "strat" in methods or "ipw" in methods:
        try:
            stage = _propensity_stage(pop, config.strata)
        except LocalEqError:  # fails strat and ipw alike
            out = {m: None for m in methods if m in ("strat", "ipw")}
    for method in methods:
        if method in out:
            continue
        try:
            estimated = _equate_target_scores(method, records, pop, config, target, stage)
        except LocalEqError:
            out[method] = None
            continue
        cell = ErrorAccumulator(1, config.nbins, config.items + 1)
        cell.add(0, labels, estimated - true_eq, scores=pop.score[target])
        out[method] = cell
    return out


def run_study(
    config: SimulationConfig,
    methods: Sequence[str] = ("anchor", "strat", "ipw"),
    scenario: str | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Run the replicated comparison study for one scenario.

    Item and covariate parameters are drawn once per scenario; each
    replication redraws examinees and refits the propensity model from its
    own seed stream, so reports are identical for any worker count.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if scenario is None:
        scenario = f"N{config.n}_{config.covariate_strength}"
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications + 1)
    design = draw_design(config, np.random.default_rng(seeds[0]))

    accumulators = {
        m: ErrorAccumulator(config.replications, config.nbins, config.items + 1)
        for m in methods
    }
    failures = {m: 0 for m in methods}

    def collect(rep, rep_out):
        for method in methods:
            if rep_out[method] is None:
                failures[method] += 1
            else:
                accumulators[method].insert(rep, rep_out[method])

    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("fork")
        ) as pool:
            futures = [
                pool.submit(_run_replication, config, design, seeds[r + 1], methods)
                for r in range(config.replications)
            ]
            for rep, future in enumerate(futures):
                collect(rep, future.result())
    else:
        for rep in range(config.replications):
            collect(rep, _run_replication(config, design, seeds[rep + 1], methods))

    for method, n_failed in failures.items():
        if n_failed > 0.05 * config.replications:
            warnings.warn(
                f"{method}: {n_failed} of {config.replications} replications failed",
                StudyUnstableWarning,
                stacklevel=2,
            )

    probs = mixture_score_distribution(
        design.form_y_items, config.group_theta_means, config.theta_sd
    )
    omitted = apply_omission_rule(probs)

    results = {
        m: MethodResult(
            bias=accumulators[m].bias(),
            rmse=accumulators[m].rmse(),
            signed_mean=accumulators[m].signed_mean(),
            signed_mcse=accumulators[m].signed_mcse(),
            reps_used=accumulators[m].reps_used(),
            failures=failures[m],
        )
        for m in methods
    }
    return EvaluationReport(
        scenario=scenario,
        config=config,
        methods=results,
        omitted=omitted,
        replications=config.replications,
    )
