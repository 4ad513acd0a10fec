"""The benchmark's tracer (bench/tracing.py) still finds every name it wraps.

The tracer patches ``owner.__dict__[attr]`` for each target, so a refactor
that renames or drops a traced function makes ``bench/run.py --trace 1``
fail with a KeyError. These tests catch that here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import localeq
import localeq.cli
from localeq.core import KernelCDF, WeightedSample
from localeq.equating import EquipercentileMap
from localeq.evaluation import bin_by_theta, run_study
from localeq.simulation import SimulationConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_tracing().targets(localeq)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing


def test_tracer_installs_observes_and_restores(tmp_path, capsys):
    tracing = load_tracing()
    targets = tracing.targets(localeq)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    data = tmp_path / "data.csv"
    data.write_text("group,total,anch\nX,2,1\nX,4,1\nY,1,1\nY,3,1\n", encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        rc = localeq.cli.main(
            ["equate", "--method", "anchor", "--data", str(data),
             "--schema", "form:group,score:total,anchor:anch", "--out-dir", str(tmp_path)]
        )
    assert rc == 0
    assert tracer.counts["parse_dataset.rows"] == 4
    calls, _ = tracer.summary()
    assert calls["cli.parse_dataset"] == 1
    assert calls["equating.anchor_family"] == 1
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before


def test_diagnose_fits_the_propensity_model_once(tmp_path):
    """diagnose stratifies one set of propensities for every stratum count."""
    tracing = load_tracing()
    golden = Path(__file__).resolve().parent / "golden"
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(localeq)):
        rc = localeq.cli.main(
            ["diagnose", "--strata", "5,10,20", "--data", str(golden / "scores.csv"),
             "--schema", "form:group,score:total,anchor:anch,num:c1,num:c2,cat:c3",
             "--out-dir", str(tmp_path)]
        )
    assert rc == 0
    calls, _ = tracer.summary()
    assert calls["propensity.encode_covariates"] == 1
    assert calls["propensity.fit_logistic"] == 1
    assert calls["propensity.stratify_quantile"] == 3
    assert calls["propensity.balance_report"] == 3


# the traced calls of each of bench/run.py's equate-csv commands on the golden
# file: the spans stay where the per-layer metrics read them
PROPENSITY_SPANS = {"propensity.encode_covariates": 1, "propensity.fit_logistic": 1,
                    "propensity.estimate_propensity": 1, "propensity.stratify_quantile": 1}
EQUIPERCENTILE_SPANS = {"equating.equipercentile_family": 1,
                        "equating.EquipercentileMap.call": 5, "core.inverse_cdf": 5}
EQUATE_CSV_SPANS = {
    "equate-anchor": {"equating.anchor_family": 1},
    "equate-strat": {**PROPENSITY_SPANS, "equating.strat_family": 1},
    "equate-ipw": {**PROPENSITY_SPANS, "equating.ipw_weights": 1, "equating.ipw_family": 1},
    "equate-eqp-anchor": EQUIPERCENTILE_SPANS,
    "equate-eqp-anchor-kernel": {**EQUIPERCENTILE_SPANS, "core.KernelCDF": 15},
    "equate-eqp-ipw-kernel": {**PROPENSITY_SPANS, **EQUIPERCENTILE_SPANS,
                              "equating.ipw_weights": 1, "core.KernelCDF": 15},
    "diagnose": {**PROPENSITY_SPANS, "propensity.stratify_quantile": 3,
                 "propensity.balance_report": 3},
}
# the cells each command's family fits and observes: the family observer's counts
EQUATE_CSV_CELLS = {
    "equate-anchor": {"cells_fitted.anchor": 10, "cells_observed.anchor": 11},
    "equate-strat": {"cells_fitted.strat": 20, "cells_observed.strat": 20},
    "equate-ipw": {"cells_fitted.ipw": 20, "cells_observed.ipw": 20},
    "equate-eqp-anchor": {"cells_fitted.equipercentile": 10, "cells_observed.equipercentile": 11},
    "equate-eqp-anchor-kernel": {"cells_fitted.equipercentile": 10,
                                 "cells_observed.equipercentile": 11},
    "equate-eqp-ipw-kernel": {"cells_fitted.equipercentile": 20,
                              "cells_observed.equipercentile": 20},
    "diagnose": {},
}


def test_each_equate_csv_command_keeps_its_traced_calls(tmp_path, monkeypatch, capsys):
    """A refactor that moves a traced call out of the module the tracer wraps
    fails here, instead of silently zeroing a per-layer metric."""
    monkeypatch.syspath_prepend(str(TRACING.parent))  # run.py imports checks, tracing
    spec = importlib.util.spec_from_file_location("bench_run", TRACING.parent / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    tracing = load_tracing()
    golden = Path(__file__).resolve().parent / "golden"
    got, cells = {}, {}
    for name, base in bench_run.EQUATE_COMMANDS:
        tracer = tracing.Tracer()
        with tracer.installed(tracing.targets(localeq)):
            rc = localeq.cli.main(
                base + ["--data", str(golden / "scores.csv"),
                        "--schema", "form:group,score:total,anchor:anch,num:c1,num:c2,cat:c3",
                        "--out-dir", str(tmp_path / name)]
            )
        assert rc == 0, name
        got[name] = dict(tracer.summary()[0])
        cells[name] = {key: n for key, n in tracer.counts.items() if key.startswith("cells_")}
    assert got == {name: {"cli.parse_dataset": 1, **spans}
                   for name, spans in EQUATE_CSV_SPANS.items()}
    assert cells == EQUATE_CSV_CELLS


def test_kernel_map_inverts_in_one_traced_call():
    """The traced names stay on the kernel path, and one map stays one batched
    inversion: F_Y, then F_X at the support's midpoint and at each predicted
    grid point, while Newton's passes stay inside the inverse's span."""
    tracing = load_tracing()
    rng = np.random.default_rng(3)

    def cdf(p):
        scores = rng.binomial(40, p, 1000).astype(float)
        return KernelCDF(WeightedSample(scores, rng.uniform(0.2, 5.0, scores.size)), 0.6)

    equate = EquipercentileMap(cdf(0.55), cdf(0.45))
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(localeq)):
        equated = equate(np.arange(41.0))
    assert np.all(np.diff(equated) >= 0.0)
    calls, _ = tracer.summary()
    assert calls["equating.EquipercentileMap.call"] == 1
    assert calls["core.inverse_cdf"] == 1
    assert calls["core.KernelCDF"] == 3


def test_traced_study_folds_each_replication_into_fixed_size_accumulators():
    """The insert observer reads the accumulator's arrays; their size must not
    grow with the replication count."""
    tracing = load_tracing()
    methods = ("anchor", "strat", "ipw", "eg")
    sizes = {}
    for replications in (3, 12):
        config = SimulationConfig(
            n=200, items=12, anchor_items=8, strata=3, nbins=4,
            replications=replications, seed=2,
        )
        tracer = tracing.Tracer()
        with tracer.installed(tracing.targets(localeq)):
            report = run_study(config, methods)
        assert all(r.failures == 0 for r in report.methods.values())
        calls, _ = tracer.summary()
        assert calls["evaluation.ErrorAccumulator.insert"] == replications * len(methods)
        sizes[replications] = tracer.accumulator_bytes
    assert sizes[3] > 0
    assert sizes[3] == sizes[12]


def test_traced_study_calls_each_layer_once_per_replication(monkeypatch):
    """The study keeps one traced call per fit: the truth (every populated
    ability bin at once), the propensity model and each family builder once
    per replication. A refactor that moves a call out of the traced name fails here."""
    tracing = load_tracing()
    populated = []

    def counting_bins(theta, nbins):
        labels, edges = bin_by_theta(theta, nbins)
        populated.append(np.unique(labels).size)
        return labels, edges

    monkeypatch.setattr(localeq.evaluation, "bin_by_theta", counting_bins)
    config = SimulationConfig(
        n=150, items=12, anchor_items=8, strata=3, nbins=12, replications=5, seed=4
    )
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(localeq)):
        report = run_study(config, ("anchor", "strat", "ipw", "eg"))
    assert all(r.failures == 0 for r in report.methods.values())
    calls, _ = tracer.summary()
    assert len(populated) == config.replications
    assert sum(populated) < config.replications * config.nbins  # some bin left empty
    for name in ("simulation.true_transform", "propensity.fit_logistic",
                 "equating.anchor_family", "equating.strat_family", "equating.ipw_weights",
                 "equating.ipw_family", "equating.pooled_transform"):
        assert calls[name] == config.replications, name
