"""Tests for binning, error accumulation, and the replication harness."""

import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from localeq.cli import main
from localeq.core import LinearTransform, TransformFamily
from localeq.errors import StudyUnstableWarning, WorkerLostError
from localeq.evaluation import (
    METHODS,
    ErrorAccumulator,
    EvaluationReport,
    _forked_map,
    _on_score_grid,
    _run_replication,
    apply_omission_rule,
    bin_by_theta,
    run_study,
    write_rows,
)
from localeq.simulation import SimulationConfig, draw_design, gen_population


class TestBinByTheta:
    def test_two_bins(self):
        labels, edges = bin_by_theta([0.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(labels, [1, 1, 2, 2])
        assert edges[1] == pytest.approx(1.5)

    def test_single_bin(self):
        labels, _ = bin_by_theta([0.3, -1.2, 4.0], 1)
        np.testing.assert_array_equal(labels, [1, 1, 1])

    def test_all_equal_collapses(self):
        labels, edges = bin_by_theta([2.0, 2.0, 2.0], 5)
        np.testing.assert_array_equal(labels, [1, 1, 1])
        assert edges[0] == edges[-1] == 2.0

    def test_maximum_lands_in_top_bin(self):
        labels, _ = bin_by_theta(np.linspace(0, 1, 11), 5)
        assert labels.max() == 5
        assert labels.min() == 1

    def test_equal_width_edges(self):
        _, edges = bin_by_theta(np.array([0.0, 10.0]), 4)
        np.testing.assert_allclose(np.diff(edges), 2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_by_theta([1.0], 0)
        with pytest.raises(ValueError):
            bin_by_theta([], 3)


def add_per_bin(acc, bins, errors):
    """Fold one replication into a one-score accumulator (every score 0)."""
    acc.add(bins, np.zeros(len(bins), dtype=int), errors)


class ReferenceAccumulator:
    """Reference for the streaming fold: one replications x bins x scores
    slot per sum, averaged twice at the end (within each replication, then
    over the replications that touched the cell)."""

    def __init__(self, replications, nbins, n_scores):
        shape = (replications, nbins, n_scores)
        self.abs_sum, self.sq_sum, self.signed_sum = (np.zeros(shape) for _ in range(3))
        self.count = np.zeros(shape, dtype=int)

    def add(self, replication, bins, scores, errors):
        errors = np.asarray(errors, dtype=float)
        idx = (np.full(errors.shape, replication), np.asarray(bins) - 1, np.asarray(scores))
        np.add.at(self.abs_sum, idx, np.abs(errors))
        np.add.at(self.sq_sum, idx, errors**2)
        np.add.at(self.signed_sum, idx, errors)
        np.add.at(self.count, idx, 1)

    def _double_average(self, sums):
        used = self.count > 0
        per_rep = np.where(used, sums / np.maximum(self.count, 1), 0.0)
        n_used = used.sum(axis=0)
        totals = per_rep.sum(axis=0) / np.maximum(n_used, 1)
        return np.where(n_used > 0, totals, np.nan)

    def bias(self):
        return self._double_average(self.abs_sum)

    def rmse(self):
        return np.sqrt(self._double_average(self.sq_sum))

    def signed_mean(self):
        return self._double_average(self.signed_sum)

    def reps_used(self):
        return (self.count > 0).sum(axis=0)

    def signed_mcse(self):  # two passes: centre, then squared deviations
        used = self.count > 0
        n_used = used.sum(axis=0)
        per_rep = self.signed_sum / np.maximum(self.count, 1)
        centre = per_rep.sum(axis=0, where=used) / np.maximum(n_used, 1)
        sq_dev = np.sum((per_rep - centre) ** 2, axis=0, where=used)
        var = sq_dev / np.maximum(n_used - 1, 1)
        return np.where(n_used >= 2, np.sqrt(var / np.maximum(n_used, 1)), np.nan)


def random_replications(seed, reps, nbins, n_scores):
    """(bins, scores, errors) per replication: some empty, some tiny, some
    large; scores stop one short of the top, so the last column stays empty."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(reps):
        n = int(rng.choice([0, 1, 3, 40, 200]))
        bins = rng.integers(1, nbins + 1, n)
        scores = rng.binomial(n_scores - 2, 0.3, n)
        out.append((bins, scores, rng.standard_normal(n) * rng.uniform(0.1, 3) + 0.2))
    return out


class TestErrorAccumulator:
    def test_perfect_estimates(self):
        acc = ErrorAccumulator(2, 1)
        add_per_bin(acc, [1, 2], [0.0, 0.0])
        assert acc.bias()[0, 0] == 0.0
        assert acc.rmse()[1, 0] == 0.0

    def test_constant_offset(self):
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1, 1], [0.7, 0.7, 0.7])
        assert acc.bias()[0, 0] == pytest.approx(0.7)
        assert acc.rmse()[0, 0] == pytest.approx(0.7)
        assert acc.signed_mean()[0, 0] == pytest.approx(0.7)

    def test_absolute_vs_signed(self):
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1], [1.0, -1.0])
        assert acc.bias()[0, 0] == pytest.approx(1.0)
        assert acc.signed_mean()[0, 0] == pytest.approx(0.0)
        assert acc.rmse()[0, 0] == pytest.approx(1.0)

    def test_rmse_hand_value(self):
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1, 1], [1.0, -1.0, 3.0])
        assert acc.rmse()[0, 0] == pytest.approx(math.sqrt(11.0 / 3.0))
        assert acc.bias()[0, 0] == pytest.approx(5.0 / 3.0)
        assert acc.signed_mean()[0, 0] == pytest.approx(1.0)

    def test_double_average_weights_reps_equally(self):
        # rep 0 contributes cell mean 1, rep 1 contributes cell mean 3;
        # the headline number is their plain average, not the pooled mean
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1], [1.0, 1.0])
        add_per_bin(acc, [1], [3.0])
        assert acc.bias()[0, 0] == pytest.approx(2.0)
        assert acc.reps_used()[0, 0] == 2

    def test_untouched_cell_is_nan(self):
        acc = ErrorAccumulator(2, 1)
        add_per_bin(acc, [1], [0.5])
        assert np.isnan(acc.bias()[1, 0])
        assert acc.reps_used()[1, 0] == 0

    def test_each_score_lands_in_its_own_column(self):
        acc = ErrorAccumulator(2, 5)
        acc.add([1, 2, 1], [3, 0, 3], [0.2, -0.5, 0.4])
        expected = np.zeros((2, 5), dtype=int)
        expected[0, 3] = expected[1, 0] = 1
        np.testing.assert_array_equal(acc.reps_used(), expected)
        assert acc.bias()[0, 3] == pytest.approx(0.3)
        assert acc.signed_mean()[1, 0] == pytest.approx(-0.5)
        assert np.isnan(acc.bias()[expected == 0]).all()

    def test_shape_mismatch(self):
        acc = ErrorAccumulator(1, 1)
        with pytest.raises(ValueError):
            add_per_bin(acc, [1, 1], [0.1])
        with pytest.raises(ValueError):
            acc.add([1, 1], [0], [0.1, 0.2])

    @pytest.mark.parametrize(
        "bins, scores, bad",
        [([0], [1], "bin label 0"), ([4], [1], "bin label 4"),
         ([1], [-1], "score -1"), ([2], [4], "score 4"), ([0], [-1], "bin label 0")],
    )
    def test_out_of_range_cell_raises(self, bins, scores, bad):
        # negative indices would wrap into another cell instead
        acc = ErrorAccumulator(3, 4)
        with pytest.raises(ValueError, match=bad):
            acc.add(bins, scores, [0.5])
        assert not acc.count.any()

    def test_insert_matches_direct_adds(self):
        direct = ErrorAccumulator(3, 1)
        add_per_bin(direct, [1, 2], [0.5, -0.3])
        add_per_bin(direct, [2, 3], [1.1, 0.0])

        part0 = ErrorAccumulator(3, 1)
        add_per_bin(part0, [1, 2], [0.5, -0.3])
        part1 = ErrorAccumulator(3, 1)
        add_per_bin(part1, [2, 3], [1.1, 0.0])
        merged = ErrorAccumulator(3, 1)
        merged.insert(part0)
        merged.insert(part1)

        np.testing.assert_array_equal(direct.bias(), merged.bias())
        np.testing.assert_array_equal(direct.rmse(), merged.rmse())
        np.testing.assert_array_equal(direct.count, merged.count)

    def test_signed_mcse_hand_value(self):
        # per-replication cell means 1 and 3: sd (ddof=1) sqrt(2), over sqrt(2)
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1], [0.5, 1.5])
        add_per_bin(acc, [1], [3.0])
        assert acc.signed_mean()[0, 0] == pytest.approx(2.0)
        assert acc.signed_mcse()[0, 0] == pytest.approx(1.0)

    def test_signed_mcse_nan_below_two_replications(self):
        acc = ErrorAccumulator(2, 1)
        add_per_bin(acc, [1, 2, 2], [0.4, 1.0, -2.0])
        add_per_bin(acc, [], [])
        add_per_bin(acc, [2], [0.7])
        mcse = acc.signed_mcse()
        assert np.isnan(mcse[0, 0])
        assert acc.reps_used()[0, 0] == 1
        # rep means -0.5 and 0.7, the empty rep in between is not a zero
        assert mcse[1, 0] == pytest.approx(0.6)

    def test_signed_mcse_insert_matches_direct_adds(self):
        direct = ErrorAccumulator(2, 3)
        parts = []
        for bins, errors, scores in [
            ([1, 1, 2], [0.5, -0.1, 0.3], [0, 2, 1]),
            ([1, 2], [1.2, -0.8], [0, 1]),
            ([1, 2, 2], [-0.4, 0.9, 0.2], [0, 1, 2]),
        ]:
            direct.add(bins, scores, errors)
            part = ErrorAccumulator(2, 3)
            part.add(bins, scores, errors)
            parts.append(part)
        merged = ErrorAccumulator(2, 3)
        for part in parts:
            merged.insert(part)
        np.testing.assert_array_equal(direct.signed_mcse(), merged.signed_mcse())
        assert not np.isnan(direct.signed_mcse()[0, 0])

    @pytest.mark.parametrize("seed", range(4))
    def test_streaming_fold_matches_stored_slot_reference(self, seed):
        nbins, n_scores, reps = 4, 7, 30
        data = random_replications(seed, reps, nbins, n_scores)
        reference = ReferenceAccumulator(reps, nbins, n_scores)
        direct = ErrorAccumulator(nbins, n_scores)
        merged = ErrorAccumulator(nbins, n_scores)
        for rep, (bins, scores, errors) in enumerate(data):
            reference.add(rep, bins, scores, errors)
            direct.add(bins, scores, errors)
            part = ErrorAccumulator(nbins, n_scores)
            part.add(bins, scores, errors)
            merged.insert(part)
            for acc in (direct, merged):  # read mid-stream, after rep + 1 reps
                for stat in ("bias", "rmse", "signed_mean", "reps_used"):
                    np.testing.assert_array_equal(
                        getattr(acc, stat)(), getattr(reference, stat)()
                    )
                np.testing.assert_allclose(
                    acc.signed_mcse(), reference.signed_mcse(), rtol=1e-12, atol=0
                )
        used = reference.reps_used()
        assert (used == 0).any() and (used == 1).any() and (used > 5).any()
        assert any(len(bins) == 0 for bins, _, _ in data)

    def test_signed_mcse_merges_multi_replication_parts(self):
        # merging runs of several replications exercises the pairwise update
        nbins, n_scores = 3, 6
        data = random_replications(11, 24, nbins, n_scores)
        reference = ReferenceAccumulator(len(data), nbins, n_scores)
        merged = ErrorAccumulator(nbins, n_scores)
        for start in range(0, len(data), 5):
            part = ErrorAccumulator(nbins, n_scores)
            for rep in range(start, min(start + 5, len(data))):
                reference.add(rep, *data[rep])
                part.add(*data[rep])
            merged.insert(part)
        np.testing.assert_array_equal(merged.reps_used(), reference.reps_used())
        np.testing.assert_allclose(
            merged.signed_mcse(), reference.signed_mcse(), rtol=1e-12, atol=0
        )

    def test_rmse_dominates_bias(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            acc = ErrorAccumulator(2, 1)
            for rep in range(3):
                n = rng.integers(1, 30)
                add_per_bin(
                    acc,
                    rng.integers(1, 3, n),
                    rng.standard_normal(n) * rng.uniform(0.1, 5),
                )
            bias, rmse = acc.bias(), acc.rmse()
            ok = ~np.isnan(bias)
            assert np.all(rmse[ok] >= bias[ok] - 1e-12)


class TestPerBinWrappers:
    def test_bias_accumulates_across_replications(self):
        acc = ErrorAccumulator(2, 1)
        add_per_bin(acc, [1, 2], np.subtract([1.5, 2.5], [1.0, 2.0]))
        add_per_bin(acc, [1], np.subtract([2.5], [1.0]))
        assert acc.bias().shape == (2, 1)
        assert acc.bias()[0, 0] == pytest.approx((0.5 + 1.5) / 2)

    def test_rmse_wrapper(self):
        acc = ErrorAccumulator(1, 1)
        add_per_bin(acc, [1, 1], np.subtract([3.0, -4.0], [0.0, 0.0]))
        assert acc.rmse()[0, 0] == pytest.approx(math.sqrt(12.5))

    def test_doubling_replications_halves_se_variance(self):
        # bin estimates are plain means over replications, so their Monte
        # Carlo standard error must shrink by ~1/sqrt(2) when the same seed
        # family is extended from R to 2R replications
        nbins, reps, macro = 4, 25, 20
        est_r = np.empty((macro, nbins))
        est_2r = np.empty((macro, nbins))
        for s in range(macro):
            children = np.random.SeedSequence((4, s)).spawn(2 * reps)
            acc = ErrorAccumulator(nbins, 1)
            for r, child in enumerate(children):
                rng = np.random.default_rng(child)
                labels = rng.integers(1, nbins + 1, 400)
                truth = np.zeros(400)
                estimated = truth + rng.normal(0.4 * labels, 1.0)
                add_per_bin(acc, labels, estimated - truth)
                if r == reps - 1:
                    est_r[s] = acc.bias().ravel()
            est_2r[s] = acc.bias().ravel()
        ratio = est_2r.std(axis=0, ddof=1) / est_r.std(axis=0, ddof=1)
        target = 1.0 / math.sqrt(2.0)
        assert np.all(ratio >= 0.8 * target), ratio
        assert np.all(ratio <= 1.2 * target), ratio


class TestOnScoreGrid:
    def test_broadcast_equals_the_per_cell_gather(self):
        # fitted cells 1, 3 and 6; cell 2 ties between 1 and 3 and goes low,
        # cells 0 and 4 resolve to their one nearest neighbour, 9 to the top
        rng = np.random.default_rng(7)
        items = 40
        for _ in range(50):
            entries = {
                cell: LinearTransform(
                    slope=float(rng.uniform(0.2, 3.0)),
                    mu_y=float(rng.uniform(0.0, items)),
                    mu_x=float(rng.uniform(0.0, items)),
                )
                for cell in (1, 3, 6)
            }
            family = TransformFamily("stratum", entries, omitted=[0, 2, 4, 9])
            cells = rng.choice([0, 1, 2, 3, 4, 6, 9], 500)
            scores = rng.integers(0, items + 1, 500)

            def map_of(cell):
                return family.entries[family.nearest(cell)]

            grid = np.arange(items + 1, dtype=float)
            distinct, row = np.unique(cells, return_inverse=True)
            expected = np.stack([map_of(int(c))(grid) for c in distinct])[row, scores]
            got = _on_score_grid(map_of, cells, scores, items)
            assert got.tobytes() == expected.tobytes()
            for cell, nearest in ((0, 1), (2, 1), (4, 3), (9, 6)):
                at = cells == cell
                assert got[at].tobytes() == entries[nearest](scores[at]).tobytes()


class TestOmissionRule:
    def test_uniform_distribution_keeps_everything(self):
        mask = apply_omission_rule(np.full(41, 1.0 / 41.0))
        assert not mask.any()

    def test_masks_thin_scores(self):
        mask = apply_omission_rule([5e-5, 2e-4, 0.9, 9.9e-5])
        np.testing.assert_array_equal(mask, [True, False, False, True])


TINY_FIELDS = dict(n=200, items=12, anchor_items=8, strata=3, replications=3, nbins=4)


class TestWriteRows:
    @given(values=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=20))
    @example(values=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
    @example(values=[1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1.0, 0.1])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_floats_are_written_as_their_repr(self, values, tmp_path):
        # the CLI's curves and tables pass numpy and Python floats straight through
        path = tmp_path / "rows.csv"
        write_rows(path, ("f64", "float"), [(np.float64(v), v) for v in values])
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "f64,float" and lines[-1] == ""
        assert lines[1:-1] == [f"{v!r},{v!r}" for v in values]


def tiny_config(**overrides):
    return SimulationConfig(**{**TINY_FIELDS, "seed": 7, **overrides})


class TestRunStudy:
    def test_numpy_int_fields_give_the_same_report(self):
        methods = ("anchor", "strat", "ipw", "eg")
        fields = {name: np.int64(v) for name, v in {**TINY_FIELDS, "seed": 7}.items()}
        reports = run_study(tiny_config(), methods), run_study(SimulationConfig(**fields), methods)
        assert reports[0].scenario == reports[1].scenario
        expected, got = ([list(map(str, row)) for row in r.to_rows()] for r in reports)
        assert got == expected

    def test_report_shape_and_columns(self):
        report = run_study(tiny_config(), methods=("anchor", "strat", "ipw", "eg"))
        rows = report.to_rows()
        assert len(rows) == 4 * 4 * 13
        assert report.columns == (
            "scenario",
            "method",
            "theta_bin",
            "score",
            "bias",
            "rmse",
            "signed_mean",
            "omitted",
        )
        methods_seen = {r[1] for r in rows}
        assert methods_seen == {"anchor", "strat", "ipw", "eg"}

    def test_deterministic_across_runs(self):
        r1 = run_study(tiny_config(), methods=("strat",))
        r2 = run_study(tiny_config(), methods=("strat",))
        assert r1.to_rows() == r2.to_rows()

    def test_strat_and_ipw_share_one_propensity_fit(self, monkeypatch):
        import localeq.evaluation as evaluation

        calls = []
        fit = evaluation.fit_logistic

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_logistic", counting_fit)
        config = tiny_config()
        report = run_study(config, methods=("strat", "ipw"))
        assert report.methods["strat"].failures == 0
        assert len(calls) == config.replications

    def test_propensity_model_is_fitted_on_the_assignment_design(self, monkeypatch):
        import localeq.evaluation as evaluation

        designs = []
        fit = evaluation.fit_logistic

        def recording_fit(design, labels):
            designs.append(design)
            return fit(design, labels)

        monkeypatch.setattr(evaluation, "fit_logistic", recording_fit)
        pop = gen_population(SimulationConfig(n=200), np.random.default_rng(5))
        evaluation._propensity_stage(pop, 4)
        assert len(designs) == 1 and designs[0] is pop.proxies

    def test_replication_path_calls_no_quantile_wrapper(self, monkeypatch):
        # the strata cut points and the IPW trimming bounds are read off
        # sorted runs; np.quantile stays off the study's replication path
        def no_quantile(*args, **kwargs):
            raise AssertionError("np.quantile called on the replication path")

        monkeypatch.setattr(np, "quantile", no_quantile)
        config = SimulationConfig(replications=1, seed=1)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        out = _run_replication(config, design, METHODS, seeds[1])
        assert all(out[method] is not None for method in METHODS)

    def test_large_replication_peak_memory_per_examinee(self):
        # the peak is reached inside the propensity fit; measured 218.7 B per
        # examinee at N = 10000, bound 240 B (10% margin): the fit runs on
        # first use, while the anchor tally is held; 226.6 B while the fit
        # kept a float copy of the labels, 264 B while the population kept an
        # int copy of its covariates and the fit kept eta and a separate
        # weight array
        config = SimulationConfig(n=10_000, replications=1, seed=1)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        tracemalloc.start()
        try:
            _run_replication(config, design, METHODS, seeds[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 240 * config.n

    def test_worker_count_does_not_change_rows(self):
        serial = run_study(tiny_config(), methods=("anchor", "ipw"))
        parallel = run_study(tiny_config(), methods=("anchor", "ipw"), workers=2)
        assert serial.to_rows() == parallel.to_rows()

    @pytest.mark.parametrize("replications, started", [(3, 3), (1, 0)])
    def test_study_forks_no_more_workers_than_replications(
        self, monkeypatch, replications, started
    ):
        # a study forks all its workers at once; one replication runs in-process
        fork_process = multiprocessing.get_context("fork").Process
        start = fork_process.start
        starts = []

        def counting_start(process):
            starts.append(process)
            start(process)

        monkeypatch.setattr(fork_process, "start", counting_start)
        config = tiny_config(replications=replications)
        report = run_study(config, methods=("anchor",), workers=64)
        assert len(starts) == started
        assert report.to_rows() == run_study(config, methods=("anchor",)).to_rows()
        assert multiprocessing.active_children() == []

    def test_default_scenario_label(self):
        report = run_study(tiny_config(), methods=("eg",))
        assert report.scenario == "N200_medium"

    def test_stats_blank_for_untouched_or_omitted_cells(self):
        report = run_study(tiny_config(), methods=("anchor",))
        retained = report.retained("anchor")
        for row in report.to_rows():
            omitted = row[7] == "1"
            blank = row[4] == ""
            if omitted:
                assert blank
            assert blank != retained[int(row[2]) - 1, int(row[3])]
            if not blank:
                float(row[4]), float(row[5]), float(row[6])
        [summary] = report.summary_rows()
        assert summary[2] == retained.sum() > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_study(tiny_config(), methods=("bogus",))

    @pytest.mark.filterwarnings("ignore::localeq.errors.SeparationWarning")
    def test_too_few_examinees_marks_failures(self):
        config = tiny_config(n=6, strata=8, nbins=2, replications=4)
        with pytest.warns(StudyUnstableWarning):
            report = run_study(config, methods=("strat", "ipw"))
        assert report.methods["strat"].failures == 4
        assert report.methods["ipw"].failures == 4

    def test_a_one_form_sample_fails_every_method(self):
        # an assignment intercept of 60 puts every examinee on form Y, so no
        # replication has a form-X sample to equate to
        config = tiny_config(beta=(60.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.warns(StudyUnstableWarning):
            report = run_study(config, methods=METHODS)
        for method in METHODS:
            assert report.methods[method].failures == 3
            assert not report.methods[method].reps_used.any()

    def test_write_csv_round_trips(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text(
            "methods = eg\nseed = 7\n"
            + "".join(f"scenario.tiny.{k} = {v}\n" for k, v in TINY_FIELDS.items()),
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "report_tiny.csv"
        assert f"wrote {path}" in capsys.readouterr().out.splitlines()
        report = run_study(tiny_config(), methods=("eg",), scenario="tiny")
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(EvaluationReport.columns)
        assert [tuple(line.split(",")) for line in lines[1:]] == report.to_rows()


class TestForkedMap:
    """Worker j of w runs items j, j + w, ...; outcomes come back in item order,
    and no worker outlives the map."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    def test_rows_equal_the_serial_run(self, workers):
        # five replications split into shares of unequal length, or one each
        # when there are more workers than replications
        config = tiny_config(replications=5)
        serial = run_study(config, methods=("anchor", "ipw"))
        assert run_study(config, methods=("anchor", "ipw"), workers=workers).to_rows() == (
            serial.to_rows()
        )

    def test_an_exception_reaches_the_caller_as_in_the_serial_run(self, monkeypatch):
        def fails_at_replication_3(config, design, methods, seed_seq):
            if seed_seq.spawn_key == (4,):  # seeds[0] draws the design
                raise ValueError("replication 3 failed")
            return _run_replication(config, design, methods, seed_seq)

        monkeypatch.setattr("localeq.evaluation._run_replication", fails_at_replication_3)
        config = tiny_config(replications=5)
        raised = []
        for workers in (1, 2):
            with pytest.raises(Exception) as exc:
                run_study(config, methods=("anchor",), workers=workers)
            raised.append((type(exc.value), str(exc.value)))
        assert raised == [(ValueError, "replication 3 failed")] * 2

    def test_an_exception_ends_the_map_after_the_outcomes_before_it(self):
        def square_unless_three(i):
            if i == 3:
                raise ValueError("replication 3 failed")
            return i * i

        got = []
        with pytest.raises(ValueError, match="replication 3 failed"):
            for outcome in _forked_map(square_unless_three, range(8), 2):
                got.append(outcome)
        assert got == [0, 1, 4]

    def test_closing_the_map_early_leaves_no_worker(self):
        outcomes = _forked_map(lambda i: i * i, range(10), 2)
        assert [next(outcomes), next(outcomes)] == [0, 1]
        outcomes.close()
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_is_a_localeq_error_naming_it(self):
        def dies_at_three(i):
            if i == 3:
                os._exit(9)
            return i

        got = []
        with pytest.raises(WorkerLostError, match="^study worker 1 exited with code 9 "):
            for outcome in _forked_map(dies_at_three, range(8), 2):
                got.append(outcome)
        assert got == [0, 1, 2]

    def test_parent_peak_memory_of_a_two_worker_study(self):
        # the parent holds the tallies and the outcome it folds, never a
        # replication; unread outcomes wait in the pipes: measured 223-226 kB at N = 1000 and
        # R = 20, bound 260 kB (15% margin); 326-340 kB on a process pool
        config = SimulationConfig(n=1000, replications=20, seed=1)
        run_study(config, METHODS, workers=2)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_study(config, METHODS, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 260_000
