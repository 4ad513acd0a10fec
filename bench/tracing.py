"""In-memory span tracer that wraps localeq's public functions from outside.

Each wrapped call records one span: name, parent span, start, end, and the
class of an exception that left it. Spans stay in a list until the run
ends; self time is a span's duration minus the durations of its direct
children (calls on one thread nest, so children never overlap).

Functions are replaced at the name the calling module looks up (for
example ``localeq.evaluation.gen_population``), and methods on their
class, so nothing under ``src/`` changes. ``Tracer.installed`` restores
every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # one list per span: [name, parent index, start, end, error class]
        self.spans = []
        self._stack = []
        # counters read from arguments and results at span boundaries
        self.counts = Counter()
        self.accumulator_bytes = 0

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, ""]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException as exc:
            record[4] = type(exc).__name__
            raise
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute, span name, observer) target."""
        originals = []
        try:
            for owner, attr, name, observe in targets:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def escaped_errors(self):
        """(span name, error class) counts where an exception left the layer.

        An error is counted at the outermost span it passed through, since
        the caller above that span caught it.
        """
        out = Counter()
        for name, parent, _, _, error in self.spans:
            if error and (parent < 0 or not self.spans[parent][4]):
                out[(name, error)] += 1
        return out

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,name,start_s,end_s,error\n")
            for i, (name, parent, start, end, error) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{error}\n")


def _observe_fit(tracer, args, model):
    tracer.counts["fit_logistic.iterations"] += model.iterations
    tracer.counts["fit_logistic.converged"] += bool(model.converged)


def _observe_family(family_name):
    def observe(tracer, args, family):
        tracer.counts[f"cells_fitted.{family_name}"] += len(family.entries)
        tracer.counts[f"cells_observed.{family_name}"] += len(family.entries) + len(
            family.omitted
        )

    return observe


def _observe_insert(tracer, args, result):
    acc = args[0]
    size = sum(a.nbytes for a in (acc.abs_sum, acc.sq_sum, acc.signed_sum, acc.count))
    tracer.accumulator_bytes = max(tracer.accumulator_bytes, size)


def _observe_rows(tracer, args, dataset):
    tracer.counts["parse_dataset.rows"] += len(dataset)


def targets(localeq):
    """Every wrapped name, as (owner, attribute, span name, observer).

    ``localeq`` is the imported package.
    """
    ev, cli, eq, sim, core = (
        localeq.evaluation,
        localeq.cli,
        localeq.equating,
        localeq.simulation,
        localeq.core,
    )
    out = [
        (ev, "draw_design", "simulation.draw_design", None),
        (ev, "gen_population", "simulation.gen_population", None),
        (sim.SimulatedPopulation, "to_records", "simulation.to_records", None),
        (ev, "true_transform", "simulation.true_transform", None),
        (ev, "mixture_score_distribution", "simulation.mixture_score_distribution", None),
        (ev, "pooled_transform", "equating.pooled_transform", None),
        (cli, "encode_covariates", "propensity.encode_covariates", None),
        (cli, "balance_report", "propensity.balance_report", None),
        (cli, "equipercentile_family", "equating.equipercentile_family",
         _observe_family("equipercentile")),
        (cli, "parse_dataset", "cli.parse_dataset", _observe_rows),
        (eq.EquipercentileMap, "__call__", "equating.EquipercentileMap.call", None),
        (eq, "inverse_cdf", "core.inverse_cdf", None),
        (core.KernelCDF, "__call__", "core.KernelCDF", None),
        (ev.ErrorAccumulator, "add", "evaluation.ErrorAccumulator.add", None),
        (ev.ErrorAccumulator, "insert", "evaluation.ErrorAccumulator.insert",
         _observe_insert),
    ]
    for method in ("bias", "rmse", "signed_mean", "reps_used"):
        out.append((ev.ErrorAccumulator, method, "evaluation.finalize", None))
    # the study and the CLI each look these up in their own module
    for module in (ev, cli):
        out += [
            (module, "fit_logistic", "propensity.fit_logistic", _observe_fit),
            (module, "estimate_propensity", "propensity.estimate_propensity", None),
            (module, "stratify_quantile", "propensity.stratify_quantile", None),
            (module, "anchor_family", "equating.anchor_family", _observe_family("anchor")),
            (module, "strat_family", "equating.strat_family", _observe_family("strat")),
            (module, "ipw_weights", "equating.ipw_weights", None),
            (module, "ipw_family", "equating.ipw_family", _observe_family("ipw")),
        ]
    return out
