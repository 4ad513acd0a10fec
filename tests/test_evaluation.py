"""Tests for binning, error accumulation, and the replication harness."""

import math
import multiprocessing
import os
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from localeq.cli import main
from localeq.core import LinearTransform, TransformFamily
from localeq.equating import anchor_family, ipw_family, ipw_weights, strat_family
from localeq.errors import RowError, StudyUnstableWarning, WorkerLostError
from localeq.evaluation import (
    METHODS,
    ErrorAccumulator,
    EvaluationReport,
    MethodResult,
    _forked_map,
    _on_score_grid,
    _propensity_stage,
    _run_replication,
    apply_omission_rule,
    bin_by_theta,
    grid_cells,
    run_study,
    tally,
    write_rows,
)
from localeq.simulation import SimulationConfig, draw_design, gen_population, true_transform


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
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="ability values must be finite"):
                bin_by_theta([0.0, bad, 1.0], 2)


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


class DenseFold:
    """Reference for the compact fold: every array spans all cells, a replication's
    tally included, with its untouched cells at 0.0 and a bool count, merged by
    one whole-array update (the fold before tallies kept only touched cells)."""

    def __init__(self, nbins, n_scores):
        shape = (nbins, n_scores)
        self.abs_sum, self.sq_sum, self.signed_sum, self.signed_m2 = (
            np.zeros(shape) for _ in range(4)
        )
        self.count = np.zeros(shape, dtype=int)

    def add(self, bins, scores, errors):
        shape, errors = self.count.shape, np.asarray(errors, dtype=float)
        bins, scores = np.asarray(bins, dtype=int), np.asarray(scores, dtype=int)
        index = np.ravel_multi_index((bins - 1, scores), shape)
        n = np.bincount(index, minlength=self.count.size).reshape(shape)
        tally = object.__new__(DenseFold)
        tally.abs_sum, tally.sq_sum, tally.signed_sum = (
            np.bincount(index, values, n.size).reshape(shape) / np.maximum(n, 1)
            for values in (np.abs(errors), errors**2, errors)
        )
        tally.signed_m2, tally.count = 0.0, n > 0
        self.insert(tally)

    def insert(self, other):
        n_a, n_b = self.count, other.count
        delta = other.signed_sum / np.maximum(n_b, 1) - self.signed_sum / np.maximum(n_a, 1)
        self.signed_m2 += other.signed_m2 + delta**2 * (n_a * n_b / np.maximum(n_a + n_b, 1))
        self.abs_sum += other.abs_sum
        self.sq_sum += other.sq_sum
        self.signed_sum += other.signed_sum
        self.count += n_b


SUMS = ("abs_sum", "sq_sum", "signed_sum", "signed_m2", "count")


@st.composite
def replication_runs(draw):
    """(nbins, n_scores, replications of (bins, scores, errors) records)."""
    nbins, n_scores = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    record = st.tuples(
        st.integers(1, nbins), st.integers(0, n_scores - 1),
        st.floats(-1e6, 1e6, allow_subnormal=True),
    )
    reps = [
        tuple(np.array(column) for column in zip(*records)) if records else ([], [], [])
        for records in draw(st.lists(st.lists(record, max_size=8), min_size=1, max_size=10))
    ]
    return nbins, n_scores, reps


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
         ([1], [-1], "score -1"), ([2], [4], "score 4"), ([0], [-1], "bin label 0"),
         ([1.7], [1], "bin labels must be whole"), ([2], [2.5], "scores must be whole"),
         ([np.nan], [1], "bin labels must be whole"), ([1], [np.inf], "score inf"),
         ([-np.inf], [1], "bin label -inf")],
    )
    def test_out_of_range_cell_raises(self, bins, scores, bad):
        # negative indices would wrap into another cell instead, and a cast
        # would truncate 1.7 into bin 1
        acc = ErrorAccumulator(3, 4)
        with pytest.raises(ValueError, match=bad):
            acc.add(bins, scores, [0.5])
        assert not acc.count.any()

    def test_whole_float_cells_count_as_integers(self):
        floats, ints = ErrorAccumulator(3, 4), ErrorAccumulator(3, 4)
        floats.add([3.0, 1.0], [2.0, 0.0], [0.5, -1.0])
        ints.add([3, 1], [2, 0], [0.5, -1.0])
        np.testing.assert_array_equal(floats.count, ints.count)
        np.testing.assert_array_equal(floats.signed_sum, ints.signed_sum)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_streaming_fold_matches_stored_slot_reference(self, seed):
        nbins, n_scores, reps = 4, 7, 30
        data = random_replications(seed, reps, nbins, n_scores)
        reference = ReferenceAccumulator(reps, nbins, n_scores)
        acc = ErrorAccumulator(nbins, n_scores)
        for rep, (bins, scores, errors) in enumerate(data):
            reference.add(rep, bins, scores, errors)
            acc.add(bins, scores, errors)
            # read mid-stream, after rep + 1 reps
            for stat in ("bias", "rmse", "signed_mean", "reps_used"):
                np.testing.assert_array_equal(getattr(acc, stat)(), getattr(reference, stat)())
            np.testing.assert_allclose(
                acc.signed_mcse(), reference.signed_mcse(), rtol=1e-12, atol=0
            )
        used = reference.reps_used()
        assert (used == 0).any() and (used == 1).any() and (used > 5).any()
        assert any(len(bins) == 0 for bins, _, _ in data)

    @given(run=replication_runs())
    @example(run=(2, 3, [([1, 1, 2], [0, 0, 2], [-0.0, 0.5, -2.0]), ([], [], []),
                         ([1], [0], [1.5]), ([2], [2], [-0.0])]))
    @example(run=(1, 1, [([1], [0], [e]) for e in (0.1, 0.7, 1.3, -0.2, 2.9)]))
    @settings(max_examples=200, deadline=None)
    def test_compact_tallies_fold_to_the_dense_reference_bits(self, run):
        # each replication folded on its own: the same bits as the dense fold,
        # cell for cell, in the cells touched once, many times and never
        nbins, n_scores, reps = run
        acc, dense = ErrorAccumulator(nbins, n_scores), DenseFold(nbins, n_scores)
        for bins, scores, errors in reps:
            acc.add(bins, scores, errors)
            dense.add(bins, scores, errors)
        for name in SUMS:
            assert getattr(acc, name).tobytes() == getattr(dense, name).tobytes(), name

    def test_a_tally_holds_only_the_cells_it_touched(self):
        out = tally(grid_cells((3, 4), [3, 1, 3], [2, 0, 2]), [1.0, -0.5, 2.0])
        touched, abs_mean, sq_mean, signed_mean = out
        assert touched.tolist() == [0, 10]
        assert abs_mean.tolist() == [0.5, 1.5] and signed_mean.tolist() == [-0.5, 1.5]
        assert sq_mean.tolist() == [0.25, 2.5]
        acc = ErrorAccumulator(3, 4)
        acc.insert(out)
        assert acc.reps_used().tolist() == [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]

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
            columns = np.array([(t.slope, t.mu_y, t.mu_x) for t in entries.values()]).T
            family = TransformFamily(
                "stratum", list(entries), LinearTransform(*columns[..., None]), omitted=[0, 2, 4, 9]
            )
            cells = rng.choice([0, 1, 2, 3, 4, 6, 9], 500)
            scores = rng.integers(0, items + 1, 500)

            def map_of(cell):
                return family.entries[family.nearest(cell)]

            grid = np.arange(items + 1, dtype=float)
            distinct, row = np.unique(cells, return_inverse=True)
            expected = np.stack([map_of(int(c))(grid) for c in distinct])[row, scores]
            got = _on_score_grid(family, cells, scores, items)
            assert got.tobytes() == expected.tobytes()
            for cell, nearest in ((0, 1), (2, 1), (4, 3), (9, 6)):
                at = cells == cell
                assert got[at].tobytes() == entries[nearest](scores[at]).tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_each_study_family_equals_the_per_record_map(self, seed):
        # the families of one replication and its truth; some anchor values
        # of the target group have no fitted cell and take their nearest one
        config = SimulationConfig(n=1000, seed=seed)
        design = draw_design(config, np.random.default_rng(seed))
        pop = gen_population(config, np.random.default_rng(seed + 100), design)
        table, target = pop.to_records(), pop.form == 1
        assignment, propensities = _propensity_stage(pop.proxies, pop.form, config.strata)
        weights = ipw_weights(table, assignment, propensities, config.trim_alpha)
        labels, _ = bin_by_theta(pop.theta[target], config.nbins)
        truth = true_transform(pop.theta[target], labels, design.form_x_items, design.form_y_items)
        strata = assignment.labels[target]
        families = {
            "anchor": (anchor_family(table), pop.anchor_score[target]),
            "strat": (strat_family(table, assignment), strata),
            "ipw": (ipw_family(table, weights), strata),
            "truth": (truth, labels),
        }
        scores = pop.score[target]
        anchor, anchors = families["anchor"]
        assert not np.isin(anchors, anchor.cells).all()
        for name, (family, cells) in families.items():
            pairs = zip(cells.tolist(), scores.tolist())
            want = np.array([family.entries[family.nearest(c)](s) for c, s in pairs])
            got = _on_score_grid(family, cells, scores, config.items)
            assert got.tobytes() == want.tobytes(), name


def test_a_replication_builds_no_map_per_cell(monkeypatch):
    # one linear map per family and the truth, one more for the pooled
    # baseline's cell: as many with 4 strata and 10 anchor items as with 16 and 30
    built = []
    check = LinearTransform.__post_init__
    monkeypatch.setattr(LinearTransform, "__post_init__", lambda t: built.append(t) or check(t))
    counts = []
    for strata, anchor_items in ((4, 10), (16, 30)):
        config = SimulationConfig(n=1000, strata=strata, anchor_items=anchor_items, nbins=strata)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        built.clear()
        out = _run_replication(config, design, METHODS, seeds[1])
        assert all(tally is not None for tally in out.values())
        counts.append(len(built))
    assert counts == [6, 6]


@pytest.mark.parametrize("methods", [METHODS, ("eg", "anchor")])
def test_a_replication_outcome_is_plain_arrays_over_one_touched_array(monkeypatch, methods):
    # each method's tally is (touched, abs_mean, sq_mean, signed_mean), all the
    # methods share one touched array, and only run_study builds accumulators
    built = []
    init = ErrorAccumulator.__init__
    monkeypatch.setattr(
        ErrorAccumulator, "__init__", lambda acc, *shape: built.append(shape) or init(acc, *shape)
    )
    config = SimulationConfig(replications=1, seed=3)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    design = draw_design(config, np.random.default_rng(seeds[0]))
    out = _run_replication(config, design, methods, seeds[1])
    assert built == []
    assert list(out) == list(methods) and None not in out.values()  # every method fits here
    touched = out[methods[0]][0]
    for outcome in out.values():
        assert type(outcome) is tuple and len(outcome) == 4
        assert all(type(part) is np.ndarray for part in outcome)
        assert outcome[0] is touched
        assert all(part.shape == touched.shape for part in outcome[1:])
    assert 0 < touched.size < config.nbins * (config.items + 1)
    run_study(config, methods)
    assert built == [(config.nbins, config.items + 1)] * len(methods)


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
        rows = list(report.to_rows())
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
        assert list(r1.to_rows()) == list(r2.to_rows())

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
        evaluation._propensity_stage(pop.proxies, pop.form, 4)
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
        # the peak is reached inside the propensity fit; measured 166.4-166.8 B
        # per examinee at N = 10000 over seeds 1-3, bound 185 B (10% margin): the
        # fit runs on first use, while the anchor tally is held, and the drawn
        # population is gone; 168.1-168.8 B while the replication built a dense
        # accumulator to number its cells, 216.5-216.8 B while it held the
        # population's latent columns and covariates through the fit, 226.6 B
        # while the fit kept a float copy of the labels, 264 B while the
        # population kept an int copy of its covariates and the fit kept eta
        # and a separate weight array
        config = SimulationConfig(n=10_000, replications=1, seed=1)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        tracemalloc.start()
        try:
            _run_replication(config, design, METHODS, seeds[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 185 * config.n

    def test_the_population_is_freed_before_the_propensity_fit(self, monkeypatch):
        # the fit reads the proxies and the form column only; the population's
        # latent columns and its covariates must not be held through it
        import localeq.evaluation as evaluation

        populations, alive_at_fit = [], []
        draw, fit = evaluation.gen_population, evaluation.fit_logistic

        def drawing(*args):
            pop = draw(*args)
            populations.append(weakref.ref(pop))
            return pop

        def fitting(*args):
            alive_at_fit.append(populations[-1]() is not None)
            return fit(*args)

        monkeypatch.setattr(evaluation, "gen_population", drawing)
        monkeypatch.setattr(evaluation, "fit_logistic", fitting)
        config = SimulationConfig(n=1000, replications=1, seed=1)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        out = _run_replication(config, design, METHODS, seeds[1])
        assert all(out[method] is not None for method in METHODS)
        assert alive_at_fit == [False]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_pickled_replication_outcome_holds_only_touched_cells(self, seed):
        # a forked worker pickles each outcome down its pipe: at the default
        # design, N = 1000, 91-110 of the 410 cells are touched, and the four
        # tallies share one array of them; measured 10.1-12.1 kB over three
        # designs of 20 replications, bound 16 kB; 10.3-12.3 kB while each tally
        # was an accumulator object, 41.9 kB while every tally was dense
        config = SimulationConfig(seed=seed)
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        design = draw_design(config, np.random.default_rng(seeds[0]))
        out = _run_replication(config, design, METHODS, seeds[1])
        assert all(out[method] is not None for method in METHODS)
        assert len(pickle.dumps(out)) <= 16_000

    def test_worker_count_does_not_change_rows(self):
        serial = run_study(tiny_config(), methods=("anchor", "ipw"))
        parallel = run_study(tiny_config(), methods=("anchor", "ipw"), workers=2)
        assert list(serial.to_rows()) == list(parallel.to_rows())

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
        assert list(report.to_rows()) == list(run_study(config, methods=("anchor",)).to_rows())
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

    def test_no_method_is_refused_before_the_design_is_drawn(self, monkeypatch):
        # an empty list once drew every population and truth for a report of no methods
        import localeq.evaluation as evaluation

        def no_design(*args):
            raise AssertionError("design drawn")

        monkeypatch.setattr(evaluation, "draw_design", no_design)
        config = SimulationConfig(n=60, replications=2, strata=2, nbins=2)
        with pytest.raises(ValueError, match="no methods"):
            run_study(config, [])

    def test_repeated_method(self):
        # a repeat once folded each replication into one tally twice
        with pytest.raises(ValueError, match="repeat"):
            run_study(tiny_config(), methods=["anchor", "anchor"])

    @pytest.mark.filterwarnings("ignore::localeq.errors.SeparationWarning")
    def test_too_few_examinees_marks_failures(self):
        # one examinee per stratum: no stratum cell qualifies for a transform
        config = tiny_config(n=6, strata=6, nbins=2, replications=4)
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
        assert [tuple(line.split(",")) for line in lines[1:]] == list(report.to_rows())


@pytest.mark.parametrize("nbins, items", [(10, 40), (20, 80)])
def test_writing_a_report_holds_no_list_of_its_rows(tmp_path, nbins, items):
    # 1640 and 6480 rows are written one at a time: measured 35.3 and 36.7 kB,
    # one bound of 45 kB for both; 0.39 and 1.89 MB while to_rows built a list
    rng = np.random.default_rng(1)
    shape = (nbins, items + 1)
    methods = {
        m: MethodResult(*(rng.random(shape) for _ in range(4)), rng.integers(0, 3, shape), 0)
        for m in METHODS
    }
    config = SimulationConfig(nbins=nbins, items=items)
    report = EvaluationReport("N1000_medium", config, methods, rng.random(items + 1) < 0.2)
    path = tmp_path / "report.csv"
    report.write_csv(path)  # the first write opens the codec outside the trace
    tracemalloc.start()
    try:
        report.write_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + len(METHODS) * nbins * (items + 1)
    assert peak <= 45_000


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
        assert list(run_study(config, methods=("anchor", "ipw"), workers=workers).to_rows()) == (
            list(serial.to_rows())
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

    def test_a_localeq_error_reaches_the_caller_whole(self):
        # a worker's exception crosses its pipe pickled
        def bad_row_at_three(i):
            if i == 3:
                raise RowError(i, "bad")
            return i

        with pytest.raises(RowError) as exc:
            list(_forked_map(bad_row_at_three, range(8), workers=2))
        assert type(exc.value) is RowError
        assert (exc.value.row, str(exc.value)) == (3, "row 3: bad")

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
        # replication; unread outcomes wait in the pipes: measured 126.6-128.6 kB at N = 1000
        # and R = 20 over seeds 1-3, bound 146 kB (13% margin), the omission rule's score
        # distribution the largest part; 173-177 kB while that distribution allocated a new
        # array per item and a folded outcome was held through the next receive, 223-226 kB
        # while each outcome held four dense tallies, 326-340 kB on a process pool
        config = SimulationConfig(n=1000, replications=20, seed=1)
        run_study(config, METHODS, workers=2)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_study(config, METHODS, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 146_000
