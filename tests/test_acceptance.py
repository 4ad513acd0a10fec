"""End-to-end acceptance checks, one test per shipped guarantee.

Every tolerance is pinned in the assert itself. The simulation checks read
the report's statistics as the package defines them: ``bias`` is the mean
ABSOLUTE error per (ability bin, score) cell, an accuracy measure that
floors at the size of the conditional-moment noise (around 1 score point at
N = 1000), while ``signed_mean`` is the Monte Carlo bias and
``signed_mcse`` its Monte Carlo standard error. A claim about systematic
error is therefore judged on ``signed_mean`` against ``signed_mcse``, with
a family-wise t bound over every judged cell, and a claim about relative
accuracy on ``bias`` and ``rmse``.
"""

import csv
import itertools
import math
import time
import warnings

import numpy as np
from scipy import stats
from scipy.optimize import minimize

from localeq import cli
from localeq.core import ScoreTable
from localeq.equating import equipercentile_family, ipw_weights
from localeq.evaluation import apply_omission_rule, run_study
from localeq.propensity import StratumAssignment, fit_logistic, stratify_quantile
from localeq.simulation import (
    ItemParams,
    SimulationConfig,
    draw_design,
    mixture_score_distribution,
    score_distribution,
)


def _neg_loglik(params, design, labels):
    eta = params[0] + design @ params[1:]
    return np.sum(np.logaddexp(0.0, eta)) - np.sum(labels * eta)


def test_logistic_fit_matches_direct_search_oracle():
    # five frozen fixtures, 8..20 records, 1..3 covariates, no separation
    slots = [(0, 8, 1), (1, 11, 2), (2, 14, 2), (3, 17, 3), (4, 20, 3)]
    start = time.perf_counter()
    for seed, n, k in slots:
        rng = np.random.default_rng(seed)
        design = rng.normal(0.0, 1.0, size=(n, k))
        coef = rng.uniform(-0.8, 0.8, size=k)
        eta = 0.2 + design @ coef
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)

        model = fit_logistic(design, labels)
        oracle = minimize(
            _neg_loglik,
            np.zeros(k + 1),
            args=(design, labels),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 40000},
        )
        assert oracle.success
        gap = np.abs(model.coefficients - oracle.x).max()
        assert gap < 1e-3, f"fixture seed {seed}: coefficient gap {gap:.2e}"
    assert time.perf_counter() - start < 1.0


def test_score_recursion_matches_exhaustive_enumeration():
    # a = 1, theta = 0, b = -logit(p) makes the item probabilities exactly p
    start = time.perf_counter()
    for case in range(20):
        rng = np.random.default_rng(100 + case)
        j = int(rng.integers(1, 13))
        p = rng.uniform(0.02, 0.98, j)
        items = ItemParams(a=np.ones(j), b=-np.log(p / (1 - p)))
        got = score_distribution(items, np.array([0.0]), np.array([1.0]))
        brute = np.zeros(j + 1)
        for outcome in itertools.product((0, 1), repeat=j):
            mask = np.array(outcome)
            brute[mask.sum()] += np.prod(np.where(mask == 1, p, 1 - p))
        gap = np.abs(got - brute).max()
        assert gap < 1e-12, f"case {case} (J={j}): gap {gap:.2e}"
    assert time.perf_counter() - start < 5.0


def test_huge_bandwidth_equipercentile_matches_linear():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 200))
        j = int(rng.integers(20, 50))
        px, py = rng.uniform(0.3, 0.7, 2)
        records = ScoreTable(
            form=np.repeat([0, 1], n),
            score=np.concatenate([rng.binomial(j, px, n), rng.binomial(j, py, n)]),
        )
        assignment = stratify_quantile(np.full(2 * n, 0.5), 1)
        y_vals = records.score[records.form == 1].astype(float)
        smooth = equipercentile_family(
            records, assignment, bandwidth=1e4 * y_vals.std()
        ).entries[1]
        linear = equipercentile_family(records, assignment, bandwidth=math.inf).entries[1]
        lo, hi = np.quantile(y_vals, [0.05, 0.95])
        grid = np.linspace(lo, hi, 25)
        gap = np.abs(smooth(grid) - linear(grid)).max()
        assert gap < 0.05, f"dataset seed {seed}: max gap {gap:.3f}"


def test_stabilized_weights_are_unit_when_propensities_match_strata():
    # three strata with form-1 shares 1/4, 2/5, 3/5
    forms = [0, 0, 0, 1] + [0, 0, 0, 1, 1] + [0, 0, 1, 1, 1]
    labels = np.array([1] * 4 + [2] * 5 + [3] * 5)
    shares = {1: 0.25, 2: 0.4, 3: 0.6}
    records = ScoreTable(form=forms, score=10 + np.arange(len(forms)))
    assignment = StratumAssignment(K=3, labels=labels)
    propensities = np.array([shares[k] for k in labels])
    w = ipw_weights(records, assignment, propensities)
    assert np.abs(w.raw - 1.0).max() <= 1e-12
    assert np.abs(w.trimmed - 1.0).max() <= 1e-12


def flag_systematic_bias(report, methods, threshold=0.5, alpha=0.05):
    """Cells whose Monte Carlo bias reaches ``threshold`` beyond noise.

    Judges every retained (method, cell) pair populated by at least two
    replications. A pair is flagged when |signed_mean| minus
    t(1 - alpha / M, reps_used - 1) * signed_mcse is still >= threshold,
    where M is the number of judged pairs (Bonferroni, family-wise alpha).
    Returns (judged, unjudgeable, flagged, worst): the worst pairs are the
    five with the largest lower bound, as (method, bin, score, bias, mcse,
    reps_used, lower bound) tuples.
    """
    pairs, unjudgeable = [], 0
    for method in methods:
        res = report.methods[method]
        populated = report.retained(method)
        judged = populated & (res.reps_used >= 2)
        unjudgeable += int((populated & ~judged).sum())
        for b, s in zip(*np.nonzero(judged)):
            pairs.append(
                (method, int(b) + 1, int(s), float(res.signed_mean[b, s]),
                 float(res.signed_mcse[b, s]), int(res.reps_used[b, s]))
            )
    bounded = [
        (method, b, s, bias, mcse, reps,
         abs(bias) - stats.t.ppf(1.0 - alpha / len(pairs), reps - 1) * mcse)
        for method, b, s, bias, mcse, reps in pairs
    ]
    flagged = [p for p in bounded if p[-1] >= threshold]
    worst = sorted(bounded, key=lambda p: p[-1], reverse=True)[:5]
    return len(pairs), unjudgeable, flagged, worst


def _describe(worst):
    return "; ".join(
        f"{m} bin {b} score {s}: {bias:+.2f} ± {mcse:.2f} (R={r}, lower {lo:.2f})"
        for m, b, s, bias, mcse, r, lo in worst
    )


def test_null_confounding_per_cell_bias_below_half_point():
    # nothing to adjust for: no group gap, assignment independent of everything
    config = SimulationConfig(
        n=1000,
        items=40,
        anchor_items=20,
        strata=8,
        replications=100,
        seed=0,
        group_theta_means=(0.0, 0.0),
        beta=(0.0, 0.0, 0.0, 0.0, 0.0),
    )
    start = time.perf_counter()
    report = run_study(config, methods=("anchor", "strat", "ipw"))
    assert time.perf_counter() - start < 600.0
    judged, unjudgeable, flagged, worst = flag_systematic_bias(
        report, ("anchor", "strat", "ipw")
    )
    assert judged > 0
    assert not flagged, (
        f"{len(flagged)} of {judged} judged cells ({unjudgeable} populated by a "
        "single replication, not judgeable) show a Monte Carlo bias of 0.5 score "
        f"points or more at family-wise alpha 0.05; worst: {_describe(worst)}"
    )


def test_bias_rule_flags_unconditioned_pooled_line():
    # the null check above must be able to fail: one pooled line ignores the
    # weak-covariate scenario's ability gap of 0.5 and is biased cell by cell
    config = SimulationConfig(
        n=1000,
        items=40,
        anchor_items=20,
        strata=8,
        replications=100,
        seed=0,
        covariate_strength="weak",
    )
    report = run_study(config, methods=("eg",))
    judged, unjudgeable, flagged, worst = flag_systematic_bias(report, ("eg",))
    frac = len(flagged) / max(judged, 1)
    assert frac >= 0.5, (
        f"the pooled line is flagged at only {len(flagged)} of {judged} judged "
        f"cells ({unjudgeable} unjudgeable); worst: {_describe(worst)}"
    )


def test_weak_covariate_scenario_ipw_orders_below_anchor():
    config = SimulationConfig(
        n=1000,
        items=40,
        anchor_items=20,
        strata=8,
        replications=100,
        seed=0,
        covariate_strength="weak",
    )
    start = time.perf_counter()
    report = run_study(config, methods=("anchor", "strat", "ipw"))
    assert time.perf_counter() - start < 1800.0
    anchor = report.methods["anchor"]
    ipw = report.methods["ipw"]
    both = report.retained("anchor") & report.retained("ipw")
    frac = float((ipw.bias[both] <= anchor.bias[both]).mean())
    assert frac >= 0.60, (
        f"IPW bias <= anchor bias at only {frac:.1%} of {int(both.sum())} cells"
    )

    # bias is a mean absolute error, so RMSE^2 - bias^2 is the spread of |e|
    # and RMSE/bias sits near sqrt(pi/2) ~ 1.2533 in noise-dominated cells;
    # what RMSE owes bias is bias <= RMSE and the same conclusion
    ratios = {}
    for method in ("anchor", "strat", "ipw"):
        res = report.methods[method]
        cells = report.retained(method)
        ratio = res.rmse[cells] / np.maximum(res.bias[cells], 1e-12)
        excess = float((res.bias[cells] - res.rmse[cells]).max())
        ratios[method] = (float(np.median(ratio)), float(ratio.max()), excess)
    detail = ", ".join(
        f"{m}: RMSE/bias median {med:.3f}, max {mx:.3f}"
        for m, (med, mx, _) in ratios.items()
    )
    assert all(excess <= 1e-12 for _, _, excess in ratios.values()), (
        "per-cell bias must not exceed RMSE: "
        + ", ".join(f"{m}: max bias - RMSE {ex:.2e}" for m, (_, _, ex) in ratios.items())
    )
    rmse_frac = float((ipw.rmse[both] <= anchor.rmse[both]).mean())
    assert rmse_frac >= 0.60, (
        f"IPW RMSE <= anchor RMSE at only {rmse_frac:.1%} of {int(both.sum())} "
        f"cells, against {frac:.1%} on bias ({detail})"
    )


def test_small_sample_cells_stay_within_the_score_range():
    # at N = 30 with 8 strata many IPW cells hold one repeated form-Y score;
    # such a cell must be omitted, not fitted with a slope near 1e15
    config = SimulationConfig(
        n=30, replications=20, strata=8, items=10, anchor_items=5, nbins=3, seed=0
    )
    methods = ("anchor", "strat", "ipw", "eg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # separation clamps, failed replications
        report = run_study(config, methods)
    for method in methods:
        res = report.methods[method]
        cells = report.retained(method)
        assert cells.any()
        worst = float(res.bias[cells].max())
        assert worst <= config.items, (
            f"{method}: a retained cell has bias {worst:.3g}, beyond the "
            f"{config.items}-point score range"
        )


def test_omission_mask_marks_contiguous_extremes():
    config = SimulationConfig()
    for seed in range(10):
        design = draw_design(config, np.random.default_rng(np.random.SeedSequence(seed)))
        for means in [(0.0,), (0.5,), (0.0, 0.5)]:
            probs = mixture_score_distribution(design.form_y_items, means, 1.0)
            mask = apply_omission_rule(probs)
            retained = np.flatnonzero(~mask)
            assert retained.size > 0
            assert np.array_equal(
                retained, np.arange(retained[0], retained[-1] + 1)
            ), f"seed {seed}, means {means}: retained set not contiguous"
    # frozen design where the mask provably fires at the low extreme
    design = draw_design(config, np.random.default_rng(np.random.SeedSequence(0)))
    probs = mixture_score_distribution(design.form_y_items, (0.5,), 1.0)
    mask = apply_omission_rule(probs)
    assert mask[0], f"P(score 0) = {probs[0]:.2e} should fall under 1e-4"
    assert not mask[1:].any()


def test_balance_diagnose_table_shape_and_randomized_balance(tmp_path):
    rng = np.random.default_rng(42)
    n = 10_000
    data = tmp_path / "randomized.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "total", "x1", "x2", "x3"])
        for _ in range(n):
            form = "X" if rng.random() < 0.5 else "Y"
            covs = rng.normal(0.0, 1.0, 3)
            writer.writerow(
                [form, int(rng.integers(0, 41)), *(repr(float(c)) for c in covs)]
            )
    rc = cli.main(
        [
            "diagnose",
            "--data",
            str(data),
            "--schema",
            "form:group,score:total,num:x1,num:x2,num:x3",
            "--strata",
            "20,3",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "balance_K20.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stratum", "x1", "x2", "x3"]
    assert len(rows) - 1 == 20
    with open(tmp_path / "balance_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    fractions = {
        r["covariate"]: float(r["satisfactory_fraction"])
        for r in summary
        if r["strata"] == "3"
    }
    assert set(fractions) == {"x1", "x2", "x3"}
    assert all(v >= 0.9 for v in fractions.values()), fractions


SIM_CONFIG = """
methods = anchor,strat,ipw
seed = 9
workers = {workers}
scenario.demo.n = 200
scenario.demo.items = 12
scenario.demo.anchor_items = 8
scenario.demo.strata = 3
scenario.demo.replications = 6
scenario.demo.nbins = 4
"""


def test_simulate_reports_byte_identical_across_runs_and_workers(tmp_path):
    def run(tag, workers):
        out = tmp_path / tag
        out.mkdir()
        cfg = out / "study.cfg"
        cfg.write_text(SIM_CONFIG.format(workers=workers))
        rc = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        return {
            name: (out / name).read_bytes()
            for name in ("report_demo.csv", "summary.csv")
        }

    first = run("first", workers=1)
    again = run("again", workers=1)
    threaded = run("threaded", workers=3)
    assert first == again, "same config must reproduce byte-identical reports"
    assert first == threaded, "worker count must not change report bytes"
