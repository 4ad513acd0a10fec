"""Monte Carlo comparison harness: per-bin bias and RMSE against the truth.

Errors are tallied per (ability bin, raw score) cell within each
replication, then averaged twice: over the cell's examinees within a
replication, then over replications that populated the cell. Bias is the
mean absolute error as displayed in the study; the signed mean (the Monte
Carlo bias, mean of estimate - truth) rides along as a diagnostic column,
and its Monte Carlo standard error is available as ``signed_mcse``.
The study's accumulator keeps running sums of the per-replication cell means,
so its size does not depend on the replication count; a replication's tally
is plain arrays over the cells it touched, and the report is yielded row by
row. Tallies are folded one at a time in replication order, also from forked
workers, so the report bytes are the same for any worker count.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cache, partial
from typing import Sequence

import numpy as np

from .core import ScoreTable, _whole_numbers
from .equating import (
    anchor_family,
    ipw_family,
    ipw_weights,
    pooled_transform,
    strat_family,
)
from .errors import LocalEqError, StudyUnstableWarning, WorkerLostError
from .propensity import (
    estimate_propensity,
    fit_logistic,
    stratify_quantile,
)
from .simulation import (
    SimulationConfig,
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
    the last bin. All-equal input collapses to a single bin. ``nbins`` must be
    a Python or numpy integer >= 1, else ValueError names it.
    """
    if not isinstance(nbins, numbers.Integral) or nbins < 1:
        raise ValueError(f"nbins must be an integer >= 1, got {nbins!r}")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size == 0:
        raise ValueError("no ability values to bin")
    lo, hi = theta.min(), theta.max()  # NaN if any ability is
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("ability values must be finite")
    if lo == hi:
        return np.ones(theta.size, dtype=int), np.array([lo, hi])
    edges = np.linspace(lo, hi, nbins + 1)
    return np.searchsorted(edges[1:-1], theta, side="right") + 1, edges


def grid_cells(shape, bins, scores):
    """Each record's flat cell index in the (nbins, n_scores) ``shape``, (bin - 1) * n_scores
    + score, the touched cells, ascending, and their record counts. ValueError names the
    first bin label not a whole number in 1..nbins, then the first score in 0..n_scores - 1."""
    bins = _whole_numbers(bins, "bin label", 1, shape[0]).astype(int, copy=False)
    scores = _whole_numbers(scores, "score", 0, shape[1] - 1).astype(int, copy=False)
    index = np.ravel_multi_index((bins.ravel() - 1, scores.ravel()), shape)
    n = np.bincount(index)
    touched = np.flatnonzero(n)
    return index, touched, n[touched]


def tally(cells, errors):
    """One replication's ``(touched, abs_mean, sq_mean, signed_mean)``: ``cells`` is
    :func:`grid_cells` of the errors' records, and the means, over only the touched
    cells, are of the absolute, squared and signed ``errors``."""
    index, touched, n = cells
    errors = np.asarray(errors, dtype=float).ravel()
    means = (np.bincount(index, v)[touched] / n for v in (np.abs(errors), errors**2, errors))
    return touched, *means


class ErrorAccumulator:
    """A study's running per-(bin, score) sums of the per-replication cell means.

    The sums are flat over the cells, numbered as by :func:`grid_cells`. ``count``
    tallies the replications that touched each cell, so a finalized statistic is
    one division and every replication weighs the same. ``signed_m2`` is the sum
    of squared deviations of the per-replication signed means from their mean,
    updated one replication at a time (Chan, Golub & LeVeque 1979). The last bits
    of every sum depend on the fold order; ``run_study`` folds in replication order.
    """

    def __init__(self, nbins: int, n_scores: int):
        self.shape = (nbins, n_scores)
        self.abs_sum, self.sq_sum, self.signed_sum, self.signed_m2 = (
            np.zeros(nbins * n_scores) for _ in range(4)
        )
        self.count = np.zeros(nbins * n_scores, dtype=int)

    def add(self, bins, scores, errors):
        """Tally one replication and insert it; bins run 1..nbins, scores 0..n_scores - 1."""
        if not np.shape(bins) == np.shape(scores) == np.shape(errors):
            raise ValueError("bin labels, scores and errors must align")
        self.insert(tally(grid_cells(self.shape, bins, scores), errors))

    def insert(self, replication):
        """Fold in one replication's :func:`tally`, after those already folded, at its cells.
        The rest would only gain +0.0 (no sum is -0.0: each starts at +0.0)."""
        at, abs_mean, sq_mean, signed_mean = replication
        n = self.count[at]
        delta = signed_mean - self.signed_sum[at] / np.maximum(n, 1)
        self.signed_m2[at] += delta**2 * (n / (n + 1))
        self.abs_sum[at] += abs_mean
        self.sq_sum[at] += sq_mean
        self.signed_sum[at] += signed_mean
        self.count[at] += 1

    def _mean(self, sums):
        means = np.where(self.count > 0, sums / np.maximum(self.count, 1), np.nan)
        return means.reshape(self.shape)

    def bias(self) -> np.ndarray:
        return self._mean(self.abs_sum)

    def rmse(self) -> np.ndarray:
        return np.sqrt(self._mean(self.sq_sum))

    def signed_mean(self) -> np.ndarray:
        return self._mean(self.signed_sum)

    def reps_used(self) -> np.ndarray:
        return self.count.reshape(self.shape).copy()

    def signed_mcse(self) -> np.ndarray:
        """Monte Carlo standard error of ``signed_mean`` per cell.

        The sample sd (ddof = 1) of the per-replication cell means of the
        signed error, over the replications that populated the cell, divided
        by sqrt(reps_used). NaN where fewer than two replications did.
        """
        n = self.count
        var = self.signed_m2 / np.maximum(n - 1, 1)
        return np.where(n >= 2, np.sqrt(var / np.maximum(n, 1)), np.nan).reshape(self.shape)


def apply_omission_rule(score_probabilities):
    """Mask (True = omit) for score values of probability below ``OMISSION_THRESHOLD``."""
    return np.asarray(score_probabilities, dtype=float) < OMISSION_THRESHOLD


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

    columns = ("scenario", "method", "theta_bin", "score", "bias", "rmse", "signed_mean", "omitted")
    summary_columns = ("scenario", "method", "retained_cells", "mean_bias", "max_bias",
                       "mean_rmse", "failures", "replications")

    def retained(self, method: str) -> np.ndarray:
        """The (bin, score) cells ``method`` reports: score kept, populated by a replication."""
        return ~self.omitted[None, :] & (self.methods[method].reps_used > 0)

    def to_rows(self):
        """Yield one ``columns`` row per method and (bin, score) cell; no list is built."""
        for method in sorted(self.methods):
            result = self.methods[method]
            stats = (result.bias, result.rmse, result.signed_mean)
            for (b, s), kept in np.ndenumerate(self.retained(method)):
                yield (self.scenario, method, str(b + 1), str(s),
                       *(repr(float(stat[b, s])) if kept else "" for stat in stats),
                       "1" if self.omitted[s] else "0")

    def summary_rows(self) -> list:
        """One ``summary_columns`` row per method; its statistics read its retained cells."""
        rows = []
        for method in sorted(self.methods):
            result, kept = self.methods[method], self.retained(method)
            stats = ("", "", "")
            if kept.any():
                bias, rmse = result.bias[kept], result.rmse[kept]
                stats = tuple(repr(float(v)) for v in (bias.mean(), bias.max(), rmse.mean()))
            rows.append((self.scenario, method, int(kept.sum())) + stats
                        + (result.failures, self.config.replications))
        return rows

    def write_csv(self, path):
        write_rows(path, self.columns, self.to_rows())


def write_rows(path, header, rows):
    """A header line, then one line per row; each value is written with str (repr for a float)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _on_score_grid(family, cells, scores, items: int) -> np.ndarray:
    """Each record's score under its cell's map in the linear ``family`` (an unfitted cell
    takes its nearest fitted cell's): the maps on the score grid 0..items in one broadcast,
    gathered by (cell, score). Cells are small non-negative ints, each value resolved once."""
    position = np.searchsorted(family.cells, family.nearest(np.arange(cells.max() + 1)))
    return family.maps(np.arange(items + 1.0))[position[cells], scores]


def _propensity_stage(proxies, form, strata: int):
    """Propensity strata and scores, fitted once and shared by strat and ipw.

    The model is fitted on ``proxies``, the very array whose logit assigned ``form``:
    the anchor score, the strongest ability proxy, then the covariates, all
    standardized. So strat and ipw condition on the anchor alongside the covariates.
    """
    model = fit_logistic(proxies, form)
    propensities = estimate_propensity(model, proxies)
    return stratify_quantile(propensities, strata), propensities


def _equate_target_scores(method, table, config, target, stage):
    """Equated form-Y scores of the target examinees under one method (an omitted cell
    takes its nearest fitted cell's map), gathered after the fit, the replication's peak."""
    if method == "eg":
        return pooled_transform(table)(table.score[target].astype(float))
    if method == "anchor":
        family, cells = anchor_family(table), table.anchor[target]
    else:  # strat or ipw: run_study admits only known methods
        assignment, propensities = stage()
        if method == "strat":
            family = strat_family(table, assignment)
        else:
            weights = ipw_weights(table, assignment, propensities, config.trim_alpha)
            family = ipw_family(table, weights)
        cells = assignment.labels[target]
    return _on_score_grid(family, cells, table.score[target], config.items)


def _run_replication(config, design, methods, seed_seq):
    """One replication: generate, equate with each method, return cell-mean tallies.
    None marks a failed method: a LocalEqError in its fit or the truth, or one form."""
    rng = np.random.default_rng(seed_seq)
    pop = gen_population(config, rng, design)
    records = pop.to_records()  # called by name: the benchmark's tracer wraps it
    # only what the truth and the methods read, the observed columns as views; the
    # latent columns and the covariates are freed before the truth and the fits
    table = ScoreTable(records.form, records.score, records.anchor)
    proxies, target = pop.proxies, table.form == 1
    theta, scores = pop.theta[target], table.score[target]
    del pop, records
    out = dict.fromkeys(methods)  # None where the method failed
    if not target.any() or target.all():
        return out
    labels, _ = bin_by_theta(theta, config.nbins)
    try:
        truth = true_transform(theta, labels, design.form_x_items, design.form_y_items)
    except LocalEqError:
        return out
    true_eq = _on_score_grid(truth, labels, scores, config.items)
    cells = grid_cells((config.nbins, config.items + 1), labels, scores)
    # strat and ipw share one fit, made on first use; ipw retries one that raised
    stage = cache(partial(_propensity_stage, proxies, table.form, config.strata))
    for method in methods:
        try:
            out[method] = tally(
                cells, _equate_target_scores(method, table, config, target, stage) - true_eq
            )
        except LocalEqError:
            pass
    return out


def _send_share(fn, share, conn):
    """A worker's loop: each outcome of its share in order, then any exception, down conn."""
    try:
        for item in share:
            conn.send((True, fn(item)))
    except Exception as exc:
        conn.send((False, exc))


def _forked_map(fn, items, workers: int):
    """fn over the sequence items, in order. Above one worker, worker j of w = min(workers,
    len(items)) forked processes maps items j, j + w, ... and sends each outcome, or its
    exception, down its own pipe; every exit path terminates and joins the workers."""
    w = min(workers, len(items))
    if w <= 1:
        yield from map(fn, items)
        return
    # imported here so a one-worker study never loads multiprocessing
    from multiprocessing import get_context

    context = get_context("fork")
    shares = []  # (worker, the read end of its pipe)
    try:
        for j in range(w):
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(target=_send_share, args=(fn, items[j::w], writer))
            proc.start()
            shares.append((proc, reader))
            writer.close()  # the worker holds the only writer, so its exit ends the pipe
        for i in range(len(items)):
            proc, reader = shares[i % w]
            try:
                ok, outcome = reader.recv()
            except EOFError:
                proc.join()
                raise WorkerLostError(
                    f"study worker {i % w} exited with code {proc.exitcode} before sending its share"
                ) from None
            if not ok:
                raise outcome
            yield outcome
            del outcome  # not held while the next one is received
    finally:
        for proc, reader in shares:
            proc.terminate()
            proc.join()
            reader.close()


def run_study(
    config: SimulationConfig,
    methods: Sequence[str],
    scenario: str | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Run the replicated comparison study for one scenario.

    Item and covariate parameters are drawn once per scenario; each
    replication redraws examinees and refits the propensity model from its
    own seed stream. On min(workers, replications) forked processes, each a
    fixed share (`_forked_map`), they are folded in replication order, so
    reports are identical for any worker count.
    """
    if not methods:  # else every population and truth is drawn for an empty report
        raise ValueError("no methods to run")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if len(set(methods)) < len(methods):  # a repeat would fold each replication in twice
        raise ValueError(f"methods {list(methods)} repeat a name")
    if scenario is None:
        scenario = f"N{config.n}_{config.covariate_strength}"
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications + 1)
    design = draw_design(config, np.random.default_rng(seeds[0]))
    # before the tallies exist, so its scratch arrays do not add to theirs at the study's peak
    omitted = apply_omission_rule(
        mixture_score_distribution(design.form_y_items, config.group_theta_means, config.theta_sd)
    )

    accumulators = {m: ErrorAccumulator(config.nbins, config.items + 1) for m in methods}
    failures = {m: 0 for m in methods}

    replicate = partial(_run_replication, config, design, methods)
    for rep_out in _forked_map(replicate, seeds[1:], workers):  # in replication order
        for method in methods:
            if rep_out[method] is None:
                failures[method] += 1
            else:
                accumulators[method].insert(rep_out[method])
        del rep_out  # not held while the next replication runs

    for method, n_failed in failures.items():
        if n_failed > 0.05 * config.replications:
            warnings.warn(
                f"{method}: {n_failed} of {config.replications} replications failed",
                StudyUnstableWarning,
                stacklevel=2,
            )

    results = {}
    for m in methods:  # each accumulator freed once its result is made
        acc = accumulators.pop(m)
        results[m] = MethodResult(acc.bias(), acc.rmse(), acc.signed_mean(), acc.signed_mcse(),
                                  acc.reps_used(), failures[m])
    return EvaluationReport(scenario=scenario, config=config, methods=results, omitted=omitted)
