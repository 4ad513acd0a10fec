"""Tests for dataset parsing and the three CLI verbs."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localeq.cli import (
    DatasetSchema,
    _raise_first_bad_row,
    _resolve_study,
    main,
    parse_dataset,
    write_dataset,
)
from localeq.errors import ConfigError, RowError, SchemaError
from localeq.simulation import SimulationConfig, gen_population


class TestDatasetSchema:
    def test_full_schema(self):
        schema = DatasetSchema.from_string(
            "form:group,score:total,anchor:anch,num:age,cat:gender,ignore:id"
        )
        assert schema.form == "group"
        assert schema.score == "total"
        assert schema.anchor == "anch"
        assert schema.covariates == (("age", "numeric"), ("gender", "categorical"))
        assert schema.ignore == ("id",)
        assert schema.covariate_kinds == ["numeric", "categorical"]

    def test_missing_score(self):
        with pytest.raises(SchemaError) as exc:
            DatasetSchema.from_string("form:group")
        assert exc.value.column == "score"

    def test_unknown_role(self):
        with pytest.raises(SchemaError):
            DatasetSchema.from_string("form:group,score:total,weight:w")

    def test_duplicate_role(self):
        with pytest.raises(SchemaError):
            DatasetSchema.from_string("form:a,form:b,score:total")

    def test_malformed_entry(self):
        with pytest.raises(SchemaError):
            DatasetSchema.from_string("form:group,score")


SCHEMA = "form:group,score:total,anchor:anch,cat:gender"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(
        path,
        [
            "group,total,anch,gender",
            "X,12,3,f",
            "Y,10,3,m",
            "Y,11,4,f",
        ],
    )
    return path


class TestParseDataset:
    def test_happy_path(self, small_file):
        ds = parse_dataset(small_file, DatasetSchema.from_string(SCHEMA))
        table = ds.table
        assert len(ds) == 3
        assert table.form[0] == 0 and table.form[1] == 1
        assert table.score[0] == 12
        assert table.anchor[0] == 3
        # categorical coded as position in the sorted level list
        assert ds.categorical_levels["gender"] == ["f", "m"]
        assert tuple(table.covariates[0]) == (0,)
        assert tuple(table.covariates[1]) == (1,)

    def test_bad_score_reports_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,anch,gender", "X,abc,3,f", "Y,10,3,m"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert exc.value.row == 2
        assert "row 2" in str(exc.value)

    def test_unknown_form_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,anch,gender", "Z,12,3,f"])
        with pytest.raises(RowError):
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,gender", "X,12,f"])
        with pytest.raises(SchemaError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert exc.value.column == "anch"

    def test_untagged_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,anch,gender,extra", "X,12,3,f,1"])
        with pytest.raises(SchemaError):
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,anch,gender", "X,12,3"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert exc.value.row == 2

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_lines(path, ["group,total,anch,gender"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert exc.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))

    def test_bad_numeric_covariate(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,age", "X,12,old"])
        with pytest.raises(RowError):
            parse_dataset(
                path, DatasetSchema.from_string("form:group,score:total,num:age")
            )

    def test_ignored_column_skipped(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, ["id,group,total", "a1,X,12", "a2,Y,10"])
        ds = parse_dataset(
            path, DatasetSchema.from_string("form:group,score:total,ignore:id")
        )
        assert len(ds) == 2

    def test_write_round_trip(self, small_file, tmp_path):
        schema = DatasetSchema.from_string(SCHEMA)
        ds = parse_dataset(small_file, schema)
        out = tmp_path / "copy.csv"
        write_dataset(ds, out)
        again = parse_dataset(out, schema)
        assert again.table == ds.table
        assert again.categorical_levels == ds.categorical_levels

    def test_first_bad_line_wins_across_error_kinds(self, tmp_path):
        # bad form label on line 7, negative score on line 4, short row on 9
        path = tmp_path / "bad.csv"
        lines = ["group,total,anch,gender"] + ["X,12,3,f"] * 8
        lines[4 - 1] = "Y,-3,3,m"
        lines[7 - 1] = "Q,12,3,f"
        lines[9 - 1] = "X,12"
        write_lines(path, lines)
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert exc.value.row == 4
        assert str(exc.value) == "row 4: total score must be non-negative, got -3"

    def test_blank_lines_count_toward_the_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,anch,gender", "X,12,3,f", "", "Y,10,-1,m"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert str(exc.value) == "row 4: anchor score must be non-negative, got -1"

    def test_blank_lines_hold_no_record(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, ["group,total,anch,gender", "X,12,3,f", "", "Y,10,1,m"])
        ds = parse_dataset(path, DatasetSchema.from_string(SCHEMA))
        assert ds.table.score.tolist() == [12, 10]

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_numeric_covariate(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,c1", "X,12,0.5", f"Y,10,{text}"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string("form:group,score:total,num:c1"))
        assert str(exc.value) == f"row 3: column 'c1': '{text}' is not finite"

    def test_integer_beyond_int64(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total", "X,12", f"Y,{2**64}"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string("form:group,score:total"))
        assert exc.value.row == 3
        assert "out of range" in str(exc.value)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(["X", "y", "1", "Q", "", "3", "-2", "abc", "1.5",
                                 "nan", "-inf", "1e3", str(2**64)]),
                min_size=3,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_column_parse_agrees_with_the_row_scan(self, tmp_path_factory, rows):
        # whole-column conversion and the row-by-row scan accept the same
        # files, and on a bad file the scan raises the error parse_dataset does
        schema = DatasetSchema.from_string("form:group,score:total,anchor:anch,num:c1")
        path = tmp_path_factory.mktemp("scan") / "data.csv"
        write_lines(path, ["group,total,anch,c1"] + [",".join(row) for row in rows])
        try:
            parse_dataset(path, schema)
            error = None
        except RowError as exc:
            error = str(exc)
        positions = {"group": 0, "total": 1, "anch": 2, "c1": 3}
        try:
            _raise_first_bad_row(path, schema, 4, positions)
            assert error is None
        except RowError as exc:
            assert str(exc) == error

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["X", "x", "0", "Y", "y", "1"]),
                st.integers(0, 10**6),
                st.integers(0, 60),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text("abcXYZ_", min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_write_then_parse_round_trip(self, tmp_path_factory, rows):
        schema = DatasetSchema.from_string(
            "form:group,score:total,anchor:anch,num:age,cat:tag"
        )
        path = tmp_path_factory.mktemp("trip") / "data.csv"
        write_lines(
            path,
            ["group,total,anch,age,tag"]
            + [f"{f},{s},{a},{age!r},{tag}" for f, s, a, age, tag in rows],
        )
        ds = parse_dataset(path, schema)
        copy = path.with_name("copy.csv")
        write_dataset(ds, copy)
        again = parse_dataset(copy, schema)
        assert again.table == ds.table
        assert again.categorical_levels == ds.categorical_levels
        assert ds.categorical_levels["tag"] == sorted({row[4] for row in rows})


def write_identity_dataset(path):
    """Same score distribution on both forms at every anchor value."""
    rows = ["group,total,anch"]
    for anchor in (1, 2, 3):
        for score in (10, 12, 14):
            rows.append(f"X,{score},{anchor}")
            rows.append(f"Y,{score},{anchor}")
    write_lines(path, rows)


def write_sim_dataset(path, n=200, seed=3):
    config = SimulationConfig(n=n, items=20, anchor_items=10)
    pop = gen_population(config, np.random.default_rng(seed))
    rows = ["group,total,anch,c1,c2,c3"]
    for i in range(n):
        form = "Y" if pop.form[i] else "X"
        cov = ",".join(str(v) for v in pop.covariates[i])
        rows.append(f"{form},{pop.score[i]},{pop.anchor_score[i]},{cov}")
    write_lines(path, rows)


SIM_SCHEMA = "form:group,score:total,anchor:anch,num:c1,num:c2,num:c3"


class TestEquateCommand:
    def test_identity_curves(self, tmp_path):
        data = tmp_path / "data.csv"
        write_identity_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", "form:group,score:total,anchor:anch",
                "--method", "anchor",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        curves = sorted(tmp_path.glob("anchor_p*_index*.csv"))
        assert len(curves) == 5
        for curve in curves:
            with open(curve) as fh:
                rows = list(csv.DictReader(fh))
            # grid spans 0..max observed score inclusive
            assert len(rows) == 15
            for row in rows:
                assert abs(float(row["equated_minus_raw"])) < 1e-9

    def test_family_table(self, tmp_path):
        data = tmp_path / "data.csv"
        write_identity_dataset(data)
        main(
            [
                "equate",
                "--data", str(data),
                "--schema", "form:group,score:total,anchor:anch",
                "--method", "anchor",
                "--out-dir", str(tmp_path),
            ]
        )
        with open(tmp_path / "anchor_family.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["index"] for r in rows] == ["1", "2", "3"]
        for row in rows:
            assert float(row["slope"]) == pytest.approx(1.0)
            assert row["omitted"] == "0"

    def test_anchor_method_requires_anchor_column(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["group,total", "X,12", "X,14", "Y,10", "Y,12"])
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", "form:group,score:total",
                "--method", "anchor",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_strat_method_on_simulated_data(self, tmp_path):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", SIM_SCHEMA,
                "--method", "strat",
                "--strata", "3",
                "--percentiles", "50",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "strat_family.csv").exists()
        assert len(list(tmp_path.glob("strat_p50_index*.csv"))) == 1

    def test_equipercentile_family_blanks_moment_columns(self, tmp_path):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", SIM_SCHEMA,
                "--method", "equipercentile-ipw",
                "--strata", "3",
                "--percentiles", "50",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        with open(tmp_path / "equipercentile-ipw_family.csv") as fh:
            rows = list(csv.DictReader(fh))
        fitted = [r for r in rows if r["omitted"] == "0"]
        assert fitted and all(r["slope"] == "" for r in fitted)

    def test_infinite_bandwidth_gives_linear_entries(self, tmp_path):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", SIM_SCHEMA,
                "--method", "equipercentile-strat",
                "--strata", "3",
                "--bandwidth", "inf",
                "--percentiles", "50",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        with open(tmp_path / "equipercentile-strat_family.csv") as fh:
            rows = list(csv.DictReader(fh))
        fitted = [r for r in rows if r["omitted"] == "0"]
        assert fitted and all(float(r["slope"]) > 0 for r in fitted)

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            ("ipw", "--trim-alpha", "0.7"),
            ("ipw", "--trim-alpha", "-0.1"),
            ("ipw", "--trim-alpha", "half"),
            ("strat", "--strata", "0"),
            ("strat", "--strata", "two"),
            ("equipercentile-anchor", "--bandwidth", "0"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, method, flag, value):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data)
        proc = subprocess.run(
            [
                sys.executable, "-m", "localeq.cli", "equate",
                "--data", str(data),
                "--schema", SIM_SCHEMA,
                "--method", method,
                flag, value,
                "--out-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"argument {flag}" in proc.stderr

    def test_strat_needs_covariates(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_identity_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", "form:group,score:total,anchor:anch",
                "--method", "strat",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "covariate" in capsys.readouterr().err


    def test_seeded_kernel_command_completes(self, tmp_path):
        # the seeded 20k-row file on which the kernel CDF once overshot 1
        config = SimulationConfig(n=20000, seed=1)
        pop = gen_population(config, np.random.default_rng(1))
        data = tmp_path / "scores.csv"
        np.savetxt(
            data,
            np.column_stack([pop.form, pop.score, pop.anchor_score, pop.covariates]),
            fmt="%d", delimiter=",", header="form,score,anchor,c1,c2,c3", comments="",
        )
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", "form:form,score:score,anchor:anchor,num:c1,num:c2,num:c3",
                "--method", "equipercentile-anchor",
                "--bandwidth", "0.6",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        curves = sorted(tmp_path.glob("equipercentile-anchor_p*_index*.csv"))
        assert len(curves) == 5
        for curve in curves:
            with open(curve) as fh:
                equated = [float(row["equated"]) for row in csv.DictReader(fh)]
            assert np.all(np.isfinite(equated))
            assert np.all(np.diff(equated) >= 0.0)


def write_non_finite_dataset(path):
    write_sim_dataset(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[4].split(",")
    fields[3] = "nan"  # c1 on file line 5
    lines[4] = ",".join(fields)
    write_lines(path, lines)


@pytest.mark.parametrize(
    "argv",
    [["equate", "--method", "strat"], ["diagnose"]],
    ids=["equate", "diagnose"],
)
def test_non_finite_covariate_is_a_row_error(tmp_path, capsys, argv):
    data = tmp_path / "sim.csv"
    write_non_finite_dataset(data)
    rc = main(
        argv + ["--data", str(data), "--schema", SIM_SCHEMA, "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: row 5: column 'c1': 'nan' is not finite\n"
    assert "Traceback" not in err


class TestDiagnoseCommand:
    def test_balance_tables_per_strata_count(self, tmp_path):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data, n=400)
        rc = main(
            [
                "diagnose",
                "--data", str(data),
                "--schema", SIM_SCHEMA,
                "--strata", "5,10",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        for k in (5, 10):
            with open(tmp_path / f"balance_K{k}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["stratum", "c1", "c2", "c3"]
            assert len(rows) == k + 1
        with open(tmp_path / "balance_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strata", "covariate", "satisfactory_fraction"]
        assert len(rows) == 1 + 2 * 3

    def test_requires_covariates(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_identity_dataset(data)
        rc = main(
            [
                "diagnose",
                "--data", str(data),
                "--schema", "form:group,score:total,anchor:anch",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "covariate" in capsys.readouterr().err


TINY_CONFIG = """
# comment lines and blanks are fine
methods = anchor,eg
seed = 5
workers = 1
scenario.tiny.n = 120
scenario.tiny.items = 8
scenario.tiny.anchor_items = 6
scenario.tiny.strata = 3
scenario.tiny.replications = 2
scenario.tiny.nbins = 3
"""


class TestSimulateCommand:
    def run_simulate(self, tmp_path, out_name, extra=()):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        out = tmp_path / out_name
        rc = main(
            ["simulate", "--config", str(config), "--out-dir", str(out), *extra]
        )
        return rc, out

    def test_outputs_exist(self, tmp_path):
        rc, out = self.run_simulate(tmp_path, "run1")
        assert rc == 0
        assert (out / "resolved_config.txt").exists()
        assert (out / "report_tiny.csv").exists()
        assert (out / "summary.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = self.run_simulate(tmp_path, "run1")
        _, out2 = self.run_simulate(tmp_path, "run2")
        for name in ("report_tiny.csv", "summary.csv", "resolved_config.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_resolved_config_reparses_to_same_study(self, tmp_path):
        _, out = self.run_simulate(tmp_path, "run1")
        configs, methods, workers, seed = _resolve_study(out / "resolved_config.txt")
        assert list(configs) == ["tiny"]
        assert configs["tiny"].n == 120
        assert configs["tiny"].seed == 5
        assert methods == ("anchor", "eg")
        assert workers == 1 and seed == 5

    def test_seed_flag_overrides_config(self, tmp_path):
        rc, out = self.run_simulate(tmp_path, "run1", extra=("--seed", "11"))
        assert rc == 0
        configs, _, _, seed = _resolve_study(out / "resolved_config.txt")
        assert seed == 11
        assert configs["tiny"].seed == 11

    def test_unknown_key_is_collected(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text("scenario.tiny.stratas = 8\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "stratas" in capsys.readouterr().err

    def test_bad_value_is_reported(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text("scenario.tiny.n = many\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "scenario.tiny.n" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text("methods = anchor,bogus\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            _resolve_study(config)

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("LOCALEQ_OUT_DIR", str(env_dir))
        rc = main(["simulate", "--config", str(config)])
        assert rc == 0
        assert (env_dir / "summary.csv").exists()


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "localeq.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "equate" in proc.stdout
        assert "simulate" in proc.stdout
