"""Monte Carlo comparison harness: per-bin bias and RMSE against the truth.

Errors are tallied per (ability bin, raw score) cell within each
replication, then averaged twice: over the cell's examinees within a
replication, then over replications that populated the cell. Bias is the
mean absolute error as displayed in the study; the signed mean (the Monte
Carlo bias, mean of estimate - truth) rides along as a diagnostic column,
and its Monte Carlo standard error is available as ``signed_mcse``.
The accumulator keeps running sums of the per-replication cell means, so
its size does not depend on the replication count. Statistics are folded
in replication order, also from forked workers, so the report bytes are
the same for any worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, partial
from typing import Sequence

import numpy as np

from .core import LinearTransform
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
    """Running per-(bin, score) sums of the per-replication cell means.

    A replication's :meth:`tally` holds the means of its absolute, squared
    and signed errors in every cell it touched; :meth:`insert` merges it
    once. ``count`` tallies the replications that touched each cell, so a
    finalized statistic is one division and every replication weighs the
    same. ``signed_m2`` is the sum of squared deviations of the
    per-replication signed means from their mean, merged pairwise (Chan,
    Golub & LeVeque 1979). The last bits of every sum depend on the order
    replications are merged in; ``run_study`` merges them in replication order.
    """

    def __init__(self, nbins: int, n_scores: int):
        shape = (nbins, n_scores)
        self.abs_sum = np.zeros(shape)
        self.sq_sum = np.zeros(shape)
        self.signed_sum = np.zeros(shape)
        self.signed_m2 = np.zeros(shape)
        self.count = np.zeros(shape, dtype=int)

    def add(self, bins, scores, errors):
        """Tally one replication and insert it; bins run 1..nbins, scores 0..n_scores - 1."""
        if not np.shape(bins) == np.shape(scores) == np.shape(errors):
            raise ValueError("bin labels, scores and errors must align")
        self.insert(self.tally(self.cells(bins, scores), errors))

    def cells(self, bins, scores):
        """Each record's flat (bin, score) cell index, and the records per cell."""
        bins, scores = np.asarray(bins, dtype=int), np.asarray(scores, dtype=int)
        shape = self.count.shape
        for what, values, low, high in (
            ("bin label", bins, 1, shape[0]), ("score", scores, 0, shape[1] - 1)
        ):
            bad = values[(values < low) | (values > high)]
            if bad.size:
                raise ValueError(f"{what} {bad[0]} is outside {low}..{high}")
        index = np.ravel_multi_index((bins.ravel() - 1, scores.ravel()), shape)
        return index, np.bincount(index, minlength=self.count.size).reshape(shape)

    def tally(self, cells, errors) -> "ErrorAccumulator":
        """One replication's accumulator: the cell means of the absolute,
        squared and signed ``errors``, 0.0 in the cells it left empty.
        ``cells`` is :meth:`cells` of the errors' records. Nothing else is
        allocated: ``count`` marks the cells touched, ``signed_m2`` is 0.0."""
        index, n = cells
        errors = np.asarray(errors, dtype=float).ravel()
        out = object.__new__(ErrorAccumulator)
        out.abs_sum, out.sq_sum, out.signed_sum = (
            np.bincount(index, values, n.size).reshape(n.shape) / np.maximum(n, 1)
            for values in (np.abs(errors), errors**2, errors)
        )
        out.signed_m2, out.count = 0.0, n > 0
        return out

    def insert(self, other: "ErrorAccumulator"):
        """Fold in another accumulator's replications, after this one's."""
        n_a, n_b = self.count, other.count
        delta = other.signed_sum / np.maximum(n_b, 1) - self.signed_sum / np.maximum(n_a, 1)
        self.signed_m2 += other.signed_m2 + delta**2 * (n_a * n_b / np.maximum(n_a + n_b, 1))
        self.abs_sum += other.abs_sum
        self.sq_sum += other.sq_sum
        self.signed_sum += other.signed_sum
        self.count += n_b

    def _mean(self, sums):
        return np.where(self.count > 0, sums / np.maximum(self.count, 1), np.nan)

    def bias(self) -> np.ndarray:
        return self._mean(self.abs_sum)

    def rmse(self) -> np.ndarray:
        return np.sqrt(self._mean(self.sq_sum))

    def signed_mean(self) -> np.ndarray:
        return self._mean(self.signed_sum)

    def reps_used(self) -> np.ndarray:
        return self.count.copy()

    def signed_mcse(self) -> np.ndarray:
        """Monte Carlo standard error of ``signed_mean`` per cell.

        The sample sd (ddof = 1) of the per-replication cell means of the
        signed error, over the replications that populated the cell, divided
        by sqrt(reps_used). NaN where fewer than two replications did.
        """
        n = self.count
        var = self.signed_m2 / np.maximum(n - 1, 1)
        return np.where(n >= 2, np.sqrt(var / np.maximum(n, 1)), np.nan)


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

    def to_rows(self) -> list:
        rows = []
        for method in sorted(self.methods):
            result = self.methods[method]
            stats = (result.bias, result.rmse, result.signed_mean)
            for (b, s), kept in np.ndenumerate(self.retained(method)):
                rows.append(
                    (self.scenario, method, str(b + 1), str(s))
                    + tuple(repr(float(stat[b, s])) if kept else "" for stat in stats)
                    + ("1" if self.omitted[s] else "0",)
                )
        return rows

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


def _on_score_grid(map_of, cells, scores, items: int) -> np.ndarray:
    """Each record's score under its cell's :class:`LinearTransform`, ``map_of(cell)``:
    every distinct cell's map is evaluated on the score grid 0..items in one
    array by ``LinearTransform.apply``, then gathered by (cell, score). Cells are
    small non-negative ints (anchor scores, stratum or bin labels), so one count
    per value sorts them."""
    present = np.bincount(cells)
    distinct, row = np.flatnonzero(present), (np.cumsum(present > 0) - 1)[cells]
    maps = map(map_of, distinct.tolist())
    slope, mu_y, mu_x = np.array([(m.slope, m.mu_y, m.mu_x) for m in maps]).T[..., None]
    grid = np.arange(items + 1, dtype=float)
    return LinearTransform.apply(grid, slope, mu_y, mu_x)[row, scores]


def _propensity_stage(pop, strata: int):
    """Propensity strata and scores, fitted once and shared by strat and ipw.

    The model is fitted on ``pop.proxies``, the very array whose logit assigned the
    forms: the anchor score, the strongest ability proxy, then the covariates, all
    standardized. So strat and ipw condition on the anchor alongside the covariates.
    """
    model = fit_logistic(pop.proxies, pop.form)
    propensities = estimate_propensity(model, pop.proxies)
    return stratify_quantile(propensities, strata), propensities


def _equate_target_scores(method, table, pop, config, target, stage):
    """Equated form-Y scores of the target examinees under one method (an omitted cell
    takes its nearest fitted cell's map), gathered after the fit, the replication's peak."""
    if method == "eg":
        return pooled_transform(table)(pop.score[target].astype(float))
    if method == "anchor":
        family, cells = anchor_family(table), pop.anchor_score[target]
    else:  # strat or ipw: run_study admits only known methods
        assignment, propensities = stage()
        if method == "strat":
            family = strat_family(table, assignment)
        else:
            weights = ipw_weights(table, assignment, propensities, config.trim_alpha)
            family = ipw_family(table, weights)
        cells = assignment.labels[target]
    return _on_score_grid(
        lambda cell: family.entries[family.nearest(cell)], cells, pop.score[target], config.items
    )


def _run_replication(config, design, methods, seed_seq):
    """One replication: generate, equate with each method, return cell-mean tallies.
    None marks a failed method: a LocalEqError in its fit or the truth, or one form."""
    rng = np.random.default_rng(seed_seq)
    pop = gen_population(config, rng, design)
    table = pop.to_records()
    target = pop.form == 1
    out = dict.fromkeys(methods)  # None where the method failed
    if not target.any() or target.all():
        return out
    theta, scores = pop.theta[target], pop.score[target]
    labels, _ = bin_by_theta(theta, config.nbins)
    try:
        truth = true_transform(theta, labels, design.form_x_items, design.form_y_items)
    except LocalEqError:
        return out
    true_eq = _on_score_grid(truth.__getitem__, labels, scores, config.items)
    grid = ErrorAccumulator(config.nbins, config.items + 1)
    cells = grid.cells(labels, scores)
    # strat and ipw share one fit, made on first use; ipw retries one that raised
    stage = cache(partial(_propensity_stage, pop, config.strata))
    for method in methods:
        try:
            out[method] = grid.tally(
                cells, _equate_target_scores(method, table, pop, config, target, stage) - true_eq
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
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
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

    for method, n_failed in failures.items():
        if n_failed > 0.05 * config.replications:
            warnings.warn(
                f"{method}: {n_failed} of {config.replications} replications failed",
                StudyUnstableWarning,
                stacklevel=2,
            )

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
    return EvaluationReport(scenario=scenario, config=config, methods=results, omitted=omitted)
