"""Tests for dataset parsing and the three CLI verbs."""

import codecs
import csv
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localeq.cli import (
    EQUATE_METHODS,
    MAX_CURVE_SCORES,
    DatasetSchema,
    _echo_config,
    _parse_columns,
    _resolve_study,
    _scan_rows,
    main,
    parse_dataset,
)
from localeq.errors import (
    ConfigError,
    DegenerateColumnWarning,
    RowError,
    SchemaError,
    StudyUnstableWarning,
)
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

    @pytest.mark.parametrize(
        "text, repeated",
        [
            ("form:g,score:s,num:s,ignore:c", "s"),  # the score read as a covariate too
            ("form:g,score:s,num:c,num:c", "c"),  # two identical covariates
            ("form:g,score:s,ignore:s,ignore:c", "s"),
            ("form:g,score:g,ignore:s,ignore:c", "g"),  # the 0/1 form labels read as scores
            ("form:g,score:s,ignore:c,ignore:c", "c"),
        ],
    )
    def test_a_column_takes_one_role(self, tmp_path, text, repeated):
        path = tmp_path / "data.csv"
        write_lines(path, ["g,s,c", "0,1,5", "0,2,6", "1,1,7", "1,2,8"])
        message = f"column {repeated!r} takes more than one schema role"
        with pytest.raises(SchemaError, match=message) as exc:
            parse_dataset(path, DatasetSchema.from_string(text))
        assert exc.value.column == repeated

    def test_direct_construction_checks_the_roles_too(self):
        with pytest.raises(SchemaError, match="'s' takes more than one") as exc:
            DatasetSchema(form="g", score="s", covariates=(("s", "numeric"),))
        assert exc.value.column == "s"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def src_env():
    """This environment with src/ first on PYTHONPATH, for a localeq subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


SCHEMA = "form:group,score:total,anchor:anch,cat:gender"

# texts put in place of any one field of a generated record
SWAP_TEXTS = ["X", "y", "1", "Q", "", "3", "-2", "abc", "1.5", "nan", "-inf", "1e3",
              str(2**64), '"Y"', '"7"', '"3.25"', '"a,b"']


# score and anchor texts the byte path must read exactly or leave to int:
# a sign, leading zeros, spaces, an underscore, a non-ASCII digit, 2**63 and
# the byte after "9"
BYTE_PATH_INTEGERS = ["-0", "+4", "007", "4 ", "1_0", "\u0663", str(2**63), "1:2"]


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
        table = parse_dataset(small_file, DatasetSchema.from_string(SCHEMA))
        assert len(table) == 3
        assert table.form[0] == 0 and table.form[1] == 1
        assert table.score[0] == 12
        assert table.anchor[0] == 3
        # categorical coded as position in the sorted level list
        levels = sorted({"f", "m"})
        assert table.covariates[:, 0].tolist() == [levels.index(g) for g in "fmf"]

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

    @pytest.mark.parametrize("quoted", [False, True])
    def test_header_names_a_column_once(self, tmp_path, quoted):
        # the second s was once dropped silently; the unquoted file takes the
        # column parse, the quoted copy the row scan, and both say the same
        path = tmp_path / "dup.csv"
        lines = ["g,s,s", "X,1,5", "X,2,6", "Y,1,7", "Y,2,8"]
        if quoted:
            lines = [",".join(f'"{f}"' for f in line.split(",")) for line in lines]
        write_lines(path, lines)
        with pytest.raises(SchemaError) as exc:
            parse_dataset(path, DatasetSchema.from_string("form:g,score:s"))
        assert exc.value.column == "s"
        assert str(exc.value) == "header names column 's' more than once"

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

    def test_multi_line_quoted_field_counts_toward_the_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["form,score,c1", 'X,12,"two', 'lines"', "X,3,a", "Y,-1,b"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string("form:form,score:score,cat:c1"))
        assert str(exc.value) == "row 5: total score must be non-negative, got -1"

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['X,12,"two', 'lines"', '"X",3,"a"', "Y,-1,b", "Q,2,c"],
             "row 5: total score must be non-negative, got -1"),
            (['"X",12,"a"', '"Y",1x,b', '"X",3,' + "c" * (csv.field_size_limit() + 1)],
             "row 3: column 'total': '1x' is not an integer"),
            (['"X",12,"a,b"', '"Y",10', '"Y",11,c'], "row 3: expected 3 fields, got 2"),
            (['"X",12,"0.5"', '"Y",10,"2"', '"Y",11,"inf"'],
             "row 4: column 'c1': 'inf' is not finite"),
            (['"X",12,"a"', f'"Y",{2**63},"b"'],
             f"row 3: column 'total': '{2**63}' is out of range"),
        ],
    )
    def test_quoted_file_with_a_bad_record_names_its_line(self, tmp_path, lines, message):
        # a quoted file takes the row scan: the first bad record wins, also
        # over a csv error on a later line
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total,c1"] + lines)
        kind = "num" if "inf" in message else "cat"
        schema = DatasetSchema.from_string(f"form:group,score:total,{kind}:c1")
        with pytest.raises(RowError) as exc:
            parse_dataset(path, schema)
        assert str(exc.value) == message

    def test_blank_lines_hold_no_record(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, ["group,total,anch,gender", "X,12,3,f", "", "Y,10,1,m", ""])
        schema = DatasetSchema.from_string(SCHEMA)
        assert parse_dataset(path, schema).score.tolist() == [12, 10]
        # the column parse reads it too; it need not go to the row scan
        assert _parse_columns(path.read_bytes(), schema) is not None

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        schema = DatasetSchema.from_string("form:group,score:total,anchor:anch")
        lines = ["group,total,anch", "X,12,3", "Y,10,4"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_lines(plain, lines)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse_dataset(marked, schema) == parse_dataset(plain, schema)

    def test_field_over_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        label = "a" * (csv.field_size_limit() + 1)
        write_lines(path, ["group,total,tag", "X,12,a", f"Y,10,{label}"])
        with pytest.raises(RowError) as exc:
            parse_dataset(path, DatasetSchema.from_string("form:group,score:total,cat:tag"))
        assert exc.value.row == 3
        assert "field larger than field limit" in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["X", "y", "1", "0"]),
                st.sampled_from(["3", "0", "12", " 4"] + BYTE_PATH_INTEGERS),
                st.sampled_from(["1", "0", "7"] + BYTE_PATH_INTEGERS),
                st.sampled_from(["1.5", "-0.0", "2", "1e3", "-0", "12", "+3", str(2**63)]),
                st.sampled_from(["a", "b", "", "a b", 'a"b', '"a,b"', '"x""y"', '"b"']),
                st.integers(0, 11),  # the field swapped, if below 5
                st.sampled_from(SWAP_TEXTS),
                st.sampled_from([0] * 8 + [-1, 1]),  # fields dropped or added
                st.sampled_from([False] * 3 + [True]),  # a blank line after the record
            ),
            min_size=1,
            max_size=6,
        ),
        line_end=st.sampled_from(["\n", "\n", "\r\n", "\r"]),
        quotes=st.booleans(),
        final_newline=st.booleans(),
    )
    def test_column_parse_agrees_with_the_row_scan(
        self, tmp_path_factory, rows, line_end, quotes, final_newline
    ):
        # parse_dataset, the column parse and the reference row scan return
        # the same table bit for bit, or raise the same RowError
        schema = DatasetSchema.from_string("form:group,score:total,anchor:anch,num:c1,cat:c2")
        lines = ["group,total,anch,c1,c2"]
        for *values, swap_at, swap_text, width_change, blank in rows:
            if swap_at < len(values):
                values[swap_at] = swap_text
            values = values[: len(values) + width_change] + ["5"] * width_change
            line = ",".join(values)
            lines += [line if quotes else line.replace('"', "")] + [""] * blank
        text = line_end.join(lines) + (line_end if final_newline else "")
        path = tmp_path_factory.mktemp("scan") / "data.csv"
        path.write_bytes(text.encode("utf-8"))

        def columns(table):
            arrays = (table.form, table.score, table.anchor, table.covariates)
            return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]

        def outcome(parse, source):
            try:
                return columns(parse(source, schema))
            except RowError as exc:
                return str(exc)

        reference = outcome(_scan_rows, text)
        assert outcome(parse_dataset, path) == reference
        parsed = _parse_columns(text.encode(), schema)
        if parsed is not None:
            assert columns(parsed) == reference

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,1", "1,1,1", "0,1"], "row 3: expected 2 fields, got 3"),
            (["0,1", "1", "0,1"], "row 3: expected 2 fields, got 1"),
            (["0,1", "10,1"], "row 3: unknown form label '10'"),
            (["0,1", "1,-3"], "row 3: total score must be non-negative, got -3"),
            (["0,1", f"1,{2**63}"], f"row 3: column 'total': '{2**63}' is out of range"),
        ],
    )
    def test_all_digit_file_with_a_bad_record_takes_the_row_scan(self, tmp_path, rows, message):
        # fields of digits only: a shifted column or a label's first byte
        # would read as valid, so the column parse must decline the file
        path = tmp_path / "bad.csv"
        write_lines(path, ["group,total"] + rows)
        schema = DatasetSchema.from_string("form:group,score:total")
        assert _parse_columns(path.read_bytes(), schema) is None
        with pytest.raises(RowError) as exc:
            parse_dataset(path, schema)
        assert str(exc.value) == message

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
    def test_parse_reads_every_generated_value(self, tmp_path_factory, rows):
        schema = DatasetSchema.from_string(
            "form:group,score:total,anchor:anch,num:age,cat:tag"
        )
        path = tmp_path_factory.mktemp("parse") / "data.csv"
        write_lines(
            path,
            ["group,total,anch,age,tag"]
            + [f"{f},{s},{a},{age!r},{tag}" for f, s, a, age, tag in rows],
        )
        table = parse_dataset(path, schema)
        forms, scores, anchors, ages, tags = zip(*rows)
        levels = sorted(set(tags))
        assert table.form.tolist() == [int(f in "Yy1") for f in forms]
        assert table.score.tolist() == list(scores)
        assert table.anchor.tolist() == list(anchors)
        # a repr-written float reads back bit for bit, the sign of zero included
        assert table.covariates[:, 0].tobytes() == np.array(ages, dtype=float).tobytes()
        assert table.covariates[:, 1].tolist() == [levels.index(t) for t in tags]


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
            env=src_env(),
            timeout=120,
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
        data = tmp_path / "scores.csv"
        write_bench_dataset(data)
        rc = main(
            [
                "equate",
                "--data", str(data),
                "--schema", BENCH_SCHEMA,
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


def write_bench_dataset(path, n=20000, seed=1):
    """The benchmark's seeded integer file: form, score, anchor and three covariates."""
    pop = gen_population(SimulationConfig(n=n, seed=seed), np.random.default_rng(seed))
    np.savetxt(
        path,
        np.column_stack([pop.form, pop.score, pop.anchor_score, pop.covariates]),
        fmt="%d", delimiter=",", header="form,score,anchor,c1,c2,c3", comments="",
    )


BENCH_SCHEMA = "form:form,score:score,anchor:anchor,num:c1,num:c2,num:c3"


def test_column_parse_reads_a_20k_row_file_within_its_memory_bound(tmp_path):
    # a Python list per record, as csv.reader makes, peaks at 6.4 MB on this
    # file, one flat field list at 4.4 MB; the byte columns with a decoded
    # copy of the file and a second copy of each column at 3.47 MB (173.6
    # B/row), the bytes alone and each column once at 2.88 MB (144.1 B/row)
    data = tmp_path / "scores.csv"
    write_bench_dataset(data)
    schema = DatasetSchema.from_string(BENCH_SCHEMA)
    assert _parse_columns(data.read_bytes(), schema) is not None
    tracemalloc.start()
    try:
        table = parse_dataset(data, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 20000
    assert peak <= 150 * 20000, f"parse peaked at {peak / 20000:.1f} B/row"


def test_column_parse_reads_float_covariates_as_the_row_scan_does(tmp_path):
    # repr-written floats of up to 17 significant digits, -0.0 among them,
    # take the column parse's field texts, not the row scan
    rng = np.random.default_rng(4)
    covariates = rng.normal(size=(2000, 3)) * [1.0, 1e-5, 1e5]
    covariates[::7, 1] = -0.0
    lines = ["form,score,anchor,c1,c2,c3"] + [
        f"{f},{s},{a},{c1!r},{c2!r},{c3!r}"
        for f, s, a, (c1, c2, c3) in zip(
            rng.integers(0, 2, 2000), rng.integers(0, 41, 2000), rng.integers(0, 16, 2000),
            covariates.tolist(),
        )
    ]
    significant = [len(repr(v).lstrip("-0.").replace(".", "")) for v in covariates[:, 0].tolist()]
    assert max(significant) == 17
    data = tmp_path / "floats.csv"
    write_lines(data, lines)
    schema = DatasetSchema.from_string(BENCH_SCHEMA)
    text = data.read_text(encoding="utf-8")
    parsed = _parse_columns(text.encode(), schema)
    assert parsed is not None
    reference = _scan_rows(text, schema)
    for name in ("form", "score", "anchor", "covariates"):
        got, want = getattr(parsed, name), getattr(reference, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert np.signbit(parsed.covariates[::7, 1]).all()
    assert parsed.covariates[:, 0].tobytes() == covariates[:, 0].tobytes()


BYTE_PATH_SCHEMA = "form:g,score:s,anchor:a,cat:c,num:n,ignore:i"


@pytest.mark.parametrize(
    "data",
    [
        codecs.BOM_UTF8 + b"g,s,a,c,n,i\nX,1,2,b,0.5,z\nY,3,4,a,-1,z\n",
        b"g,s,a,c,n,i\r\nX,1,2,b,0.5,z\r\nY,3,4,a,-1,z\r\n",
        b"g,s,a,c,n,i\rX,1,2,b,0.5,z\rY,3,4,a,-1,z",
        b"g,s,a,c,n,i\n\n\nX,1,2,b,0.5,z\n\nY,3,4,a,-1,z\n\n\n",
        b"\ng,s,a,c,n,i\nX,1,2,b,0.5,z\nY,3,4,a,-1,z\n",
        "g,s,a,c,n,i\nX,1,2,\u00e9t\u00e9,0.5,\u65e5\nY,3,4,a,-1,\U0001d11e\n".encode(),
        b"g,s,a,c,n,i\nX,1,2,b,-0,z\nY,3,4,a,0,z\n",
    ],
    ids=["bom", "crlf", "lone-cr", "blank-lines", "blank-before-header", "non-ascii",
         "minus-zero"],
)
def test_byte_path_matches_the_row_scan(tmp_path, data):
    # parse_dataset and the column parse on the file's bytes return the row
    # scan's table bit for bit, or raise its error
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    schema = DatasetSchema.from_string(BYTE_PATH_SCHEMA)
    data = data.removeprefix(codecs.BOM_UTF8)

    def outcome(parse, source):
        try:
            table = parse(source, schema)
        except SchemaError as exc:
            return str(exc)
        arrays = (table.form, table.score, table.anchor, table.covariates)
        return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]

    reference = outcome(_scan_rows, data.decode())
    assert outcome(parse_dataset, path) == reference
    if isinstance(reference, str):  # a blank header: the column parse declines
        assert _parse_columns(data, schema) is None
        return
    assert outcome(_parse_columns, data) == reference
    if b"-0," in data:  # read by digits, it keeps its sign as a float
        assert np.signbit(parse_dataset(path, schema).covariates[:, 1]).tolist() == [True, False]


@pytest.mark.parametrize(
    "prefix, line_end, second",
    [(b"", b"\n", "X,12,3"), (codecs.BOM_UTF8, b"\n", "X,12,3"), (b"", b"\r\n", "X,12,3"),
     (b"", b"\r", "X,12,3"), (b"", b"\r\n", "X,12,3\u00e9\u65e5")],  # bytes, not characters
)
def test_undecodable_byte_is_a_row_error(tmp_path, capsys, prefix, line_end, second):
    data = tmp_path / "bad.csv"
    lines = [b"group,total,anch", second.encode(), b"Y,1\xff,4", b""]
    data.write_bytes(prefix + line_end.join(lines))
    rc = main(
        ["equate", "--method", "anchor", "--data", str(data),
         "--schema", "form:group,score:total,anchor:anch", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: row 3: byte 0xff is not valid UTF-8\n"


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


def _missing_role_case(method):
    """equate ``method`` on a schema without the role its conditioning reads."""
    if method.endswith("anchor"):
        schema, columns = "form:group,score:total,num:c1", "an anchor column"
    else:
        schema, columns = "form:group,score:total,anchor:anch", "covariate columns"
    argv = ["equate", "--method", method, "--schema", schema]
    return pytest.param(argv, f"method {method!r} needs {columns} in the schema",
                        id=f"equate-{method}")


def _linear_bandwidth_case(method):
    """A linear ``method`` with --bandwidth, on a schema that suits it."""
    argv = ["equate", "--method", method, "--schema", SIM_SCHEMA, "--bandwidth", "0.6"]
    return pytest.param(argv, f"--bandwidth needs an equipercentile method, not {method!r}",
                        id=f"equate-{method}-bandwidth")


@pytest.mark.parametrize(
    "argv, message",
    [
        *map(_missing_role_case, EQUATE_METHODS),
        *map(_linear_bandwidth_case, ("anchor", "strat", "ipw")),
        pytest.param(["diagnose", "--schema", "form:group,score:total,anchor:anch"],
                     "diagnose needs covariate columns in the schema", id="diagnose"),
    ],
)
def test_schema_usage_error_comes_before_the_file_is_read(tmp_path, capsys, argv, message):
    absent = tmp_path / "absent.csv"
    rc = main(argv + ["--data", str(absent), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not absent.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("present, missing", [("X", "Y"), ("Y", "X")])
@pytest.mark.parametrize(
    "argv",
    [["equate", "--method", "anchor"], ["equate", "--method", "strat"], ["diagnose"]],
    ids=["equate-anchor", "equate-strat", "diagnose"],
)
def test_one_form_file_is_rejected_before_any_fit(tmp_path, capsys, argv, present, missing):
    # strat once failed on such a file with a misleading empty-family message,
    # and diagnose wrote blank balance tables and exited 0
    rng = np.random.default_rng(6)
    data = tmp_path / "one_form.csv"
    write_lines(data, ["group,total,anch,c1,c2,c3"] + [
        f"{present},{rng.integers(0, 21)},{rng.integers(0, 11)},{rng.normal():.3f},"
        f"{rng.normal():.3f},{rng.integers(0, 3)}"
        for _ in range(60)
    ])
    out = tmp_path / "out"
    out.mkdir()
    rc = main(argv + ["--data", str(data), "--schema", SIM_SCHEMA, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: form column 'group' holds no form {missing} records\n"
    )
    assert not any(out.iterdir())


def test_score_range_past_the_curve_bound_is_rejected_before_any_write(tmp_path, capsys):
    # each curve lists every raw score 0..max: near 10**12 that once asked for
    # 7.28 TiB after the family table was already written
    data = tmp_path / "huge.csv"
    write_lines(data, ["g,s,a"] + [
        f"{form},{10**12 + score},{anchor}"
        for form in "XY" for score, anchor in ((0, 1), (3, 1), (5, 2), (9, 2))
    ])
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["equate", "--method", "anchor", "--data", str(data),
               "--schema", "form:g,score:s,anchor:a", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: scores run to {10**12 + 9}; equate writes each curve over the raw scores "
        f"0..max, so the maximum score must be below {MAX_CURVE_SCORES}\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "argv, flag, message",
    [
        (["equate", "--method", "anchor", "--percentiles", "25,50,50"], "--percentiles",
         "repeat no"),
        (["equate", "--method", "anchor", "--percentiles", "50,50.0000001"], "--percentiles",
         "repeat no"),
        (["diagnose", "--strata", "3,5,3"], "--strata", "repeat no"),
        (["equate", "--method", "strat", "--strata", "abc"], "--strata",
         "bad strata count 'abc'"),
        (["equate", "--method", "anchor", "--percentiles", "50,ten"], "--percentiles",
         "bad percentile list '50,ten'"),
        (["diagnose", "--strata", "5,abc"], "--strata", "bad strata list '5,abc'"),
    ],
    ids=["equate-percentiles", "equate-percentile-names", "diagnose-strata",
         "equate-strata-unparseable", "equate-percentiles-unparseable",
         "diagnose-strata-unparseable"],
)
def test_bad_flag_value_is_a_usage_error_before_the_file_is_read(
    tmp_path, capsys, argv, flag, message
):
    # a repeat once wrote the same curve or balance table twice, and doubled
    # the repeated count's rows in balance_summary.csv; two percentiles equal
    # to 6 significant digits name one curve file, anchor_p50_index5.csv
    absent = tmp_path / "absent.csv"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--data", str(absent), "--schema", SIM_SCHEMA, "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and message in err
    assert not absent.exists() and not out.exists()


@pytest.mark.parametrize(
    "argv", [["equate", "--method", "ipw"], ["diagnose"]], ids=["equate-ipw", "diagnose"]
)
def test_constant_covariate_leaves_no_column_to_fit(tmp_path, capsys, argv):
    data = tmp_path / "constant.csv"
    write_lines(data, ["group,total,anch,c1"] + [f"{'XY'[i % 2]},{i},{i % 3},7" for i in range(8)])
    out = tmp_path / "out"
    schema = "form:group,score:total,anchor:anch,num:c1"
    with pytest.warns(DegenerateColumnWarning):
        rc = main(argv + ["--data", str(data), "--schema", schema, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: no usable covariate columns after encoding\n"
    assert not out.exists()


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

    def test_a_strata_count_that_fails_writes_nothing(self, tmp_path, capsys):
        # the first count's balance table was once written before the second failed,
        # and the command exited 2 without a balance_summary.csv
        out = tmp_path / "out"
        out.mkdir()
        rc = main(
            [
                "diagnose",
                "--data", os.path.join(os.path.dirname(__file__), "golden", "scores.csv"),
                "--schema", "form:group,score:total,anchor:anch,num:c1,num:c2,cat:c3",
                "--strata", "5,100000",
                "--out-dir", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: K=100000 exceeds the 600 available records\n"
        assert not any(out.iterdir())

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

    def test_every_config_field_round_trips_through_echo(self, tmp_path):
        config = SimulationConfig(
            n=123, items=17, anchor_items=7, group_theta_means=(-0.25, 0.1),
            theta_sd=1.5, covariate_categories=(2, 6), covariate_strength="weak",
            beta=(0.5, -0.2, 0.3, 1e-3), strata=5, replications=9, seed=4,
            nbins=3, trim_alpha=0.05,
        )
        default = SimulationConfig()
        for f in fields(SimulationConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "echo.txt"
        _echo_config(path, {"s": config}, ("anchor",), 1, 4)
        configs, _, _, _ = _resolve_study(path)
        assert configs == {"s": config}

    def test_seed_flag_overrides_config(self, tmp_path):
        rc, out = self.run_simulate(tmp_path, "run1", extra=("--seed", "11"))
        assert rc == 0
        configs, _, _, seed = _resolve_study(out / "resolved_config.txt")
        assert seed == 11
        assert configs["tiny"].seed == 11

    def test_seed_flag_overrides_echoed_scenario_seeds(self, tmp_path):
        _, first = self.run_simulate(tmp_path, "run1")
        rerun = tmp_path / "rerun"
        echo = first / "resolved_config.txt"
        rc = main(["simulate", "--config", str(echo), "--seed", "99", "--out-dir", str(rerun)])
        assert rc == 0
        lines = (rerun / "resolved_config.txt").read_text(encoding="utf-8").splitlines()
        seeds = [line for line in lines if line.startswith("scenario.") and ".seed = " in line]
        assert seeds == ["scenario.tiny.seed = 99"]
        _, fresh = self.run_simulate(tmp_path, "fresh", extra=("--seed", "99"))
        for name in ("report_tiny.csv", "summary.csv"):
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes()

    def test_scenario_seed_beats_top_level_seed(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text("seed = 5\nscenario.a.seed = 7\nscenario.b.n = 50\n", encoding="utf-8")
        configs, _, _, seed = _resolve_study(config)
        assert (seed, configs["a"].seed, configs["b"].seed) == (5, 7, 5)
        configs, _, _, seed = _resolve_study(config, seed_override=99)
        assert (seed, configs["a"].seed, configs["b"].seed) == (99, 99, 99)

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

    def test_a_key_set_twice_takes_its_last_value(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text("scenario.a.n = many\nscenario.a.n = 50\n", encoding="utf-8")
        configs, _, _, _ = _resolve_study(config)
        assert configs["a"].n == 50
        config.write_text("scenario.a.n = 50\nscenario.a.n = many\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["scenario.a.n"]

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "localeq.cli", "simulate",
                "--config", str(config), "--seed", "-1", "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "argument --seed: seed must be non-negative" in proc.stderr
        assert not (out / "resolved_config.txt").exists()

    @pytest.mark.parametrize(
        "line, key", [("seed = -1", "seed"), ("scenario.tiny.seed = -1", "scenario.tiny.seed")]
    )
    def test_negative_seed_in_the_file_is_a_config_error(self, tmp_path, capsys, line, key):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG + line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == [key]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        assert f"seeds must be non-negative: ['{key}']" in capsys.readouterr().err
        assert not (out / "resolved_config.txt").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_worker_count_below_one_is_a_config_error(self, tmp_path, capsys, count):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG + f"workers = {count}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["workers"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {count}\n"
        assert not (out / "resolved_config.txt").exists()

    def test_covariate_with_one_category_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text(
            TINY_CONFIG
            + "scenario.tiny.covariate_categories = 1\nscenario.tiny.beta = 0,-0.35,0.1\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["scenario.tiny"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scenario 'tiny': covariate_categories" in err and "Traceback" not in err
        assert not (out / "resolved_config.txt").exists()

    @pytest.mark.parametrize(
        "line, name",
        [
            ("scenario.tiny.theta_sd = nan", "theta_sd"),
            ("scenario.tiny.theta_sd = inf", "theta_sd"),
            ("scenario.tiny.beta = 0,nan,0,0,0", "beta"),
            ("scenario.tiny.group_theta_means = inf,0", "group_theta_means"),
        ],
        ids=["theta_sd-nan", "theta_sd-inf", "beta-nan", "group_theta_means-inf"],
    )
    def test_non_finite_setting_is_a_config_error(self, tmp_path, capsys, line, name):
        # once a traceback, a study of failed replications, or a degenerate bin
        # reported after resolved_config.txt was written
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG + line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["scenario.tiny"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: scenario 'tiny': {name} must be finite\n"
        assert not out.exists()

    def test_more_strata_than_examinees_is_a_config_error(self, tmp_path, capsys):
        # every strat and ipw replication once failed, with empty report rows
        config = tmp_path / "study.cfg"
        config.write_text(
            "scenario.a.n = 50\nscenario.a.strata = 60\nscenario.a.replications = 3\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["scenario.a"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: scenario 'a': strata (60) exceeds n (50)\n"
        assert not out.exists()

    def test_a_failed_truth_fails_its_replication(self, tmp_path, capsys):
        # at theta_sd = 30 one replication's top ability bin answers every item
        # right: its true score variance is 0, and the study once stopped there
        config = tmp_path / "study.cfg"
        config.write_text(
            "scenario.a.theta_sd = 30\nscenario.a.replications = 3\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        with pytest.warns(StudyUnstableWarning):
            rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["failures"], r["replications"]) for r in rows] == [
            ("anchor", "1", "3"), ("ipw", "1", "3"), ("strat", "1", "3")
        ]

    def test_unknown_method_rejected(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text("methods = anchor,bogus\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            _resolve_study(config)

    def test_repeated_method_rejected(self, tmp_path, capsys):
        # a repeat once folded each replication into one tally twice, and the
        # study exited 0 with reps_used twice the replications
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG + "methods = anchor,strat,anchor\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            _resolve_study(config)
        assert exc.value.keys == ["methods"]
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: study method 'anchor' is listed more than once\n"
        )
        assert not out.exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("LOCALEQ_OUT_DIR", str(env_dir))
        rc = main(["simulate", "--config", str(config)])
        assert rc == 0
        assert (env_dir / "summary.csv").exists()

    def test_a_dead_worker_is_one_error_line(self, tmp_path):
        # in a subprocess, with a timeout, so a hung study fails the test
        config = tmp_path / "study.cfg"
        config.write_text(
            TINY_CONFIG.replace("workers = 1", "workers = 2").replace(
                "replications = 2", "replications = 6"
            ),
            encoding="utf-8",
        )
        argv = ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", DYING_WORKER_PROBE, *argv],
            capture_output=True, text=True, cwd=tmp_path, env=src_env(), timeout=120,
        )
        assert proc.stderr == "error: study worker 1 exited with code 9 before sending its share\n"
        # the exit code, then the child processes left behind
        assert proc.stdout.splitlines()[-1] == "2 0"


# worker 1 of 2 runs replications 1, 3, 5 and dies at 3; prints main()'s
# exit code and the number of child processes left
DYING_WORKER_PROBE = """
import multiprocessing, os, sys
from localeq import evaluation
from localeq.cli import main

replicate = evaluation._run_replication

def dies_at_replication_3(config, design, methods, seed_seq):
    if seed_seq.spawn_key == (4,):  # seeds[0] draws the design
        os._exit(9)
    return replicate(config, design, methods, seed_seq)

evaluation._run_replication = dies_at_replication_3
rc = main(sys.argv[1:])
print(rc, len(multiprocessing.active_children()))
"""


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "localeq.cli", "--help"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert proc.returncode == 0
        assert "equate" in proc.stdout
        assert "simulate" in proc.stdout


# runs main() on its arguments (none: the import alone), then prints the
# exit code and which of the modules a cold start should not pay for got loaded
COLD_PROBE = """
import sys
from localeq.cli import main

rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = ("scipy", "multiprocessing", "concurrent.futures.process")
print(rc, *[name for name in heavy if name in sys.modules])
"""


class TestColdStart:
    """Only a kernel (--bandwidth) method loads scipy; no one-worker run loads multiprocessing."""

    def probe(self, tmp_path, command):
        data = tmp_path / "sim.csv"
        write_sim_dataset(data)
        config = tmp_path / "study.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        out = ["--out-dir", str(tmp_path / "out")]
        equate = ["equate", "--data", str(data), "--schema", SIM_SCHEMA, *out, "--method"]
        argv = {
            "import": [],
            "equate-anchor": [*equate, "anchor"],
            "equate-kernel": [*equate, "equipercentile-anchor", "--bandwidth", "0.6"],
            "diagnose": ["diagnose", "--data", str(data), "--schema", SIM_SCHEMA, *out],
            "simulate": ["simulate", "--config", str(config), *out],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-c", COLD_PROBE, *argv],
            capture_output=True, text=True, cwd=tmp_path, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rc, *loaded = proc.stdout.splitlines()[-1].split()
        return int(rc), loaded

    @pytest.mark.parametrize("command", ["import", "equate-anchor", "diagnose", "simulate"])
    def test_command_loads_neither_scipy_nor_the_process_pool(self, tmp_path, command):
        assert self.probe(tmp_path, command) == (0, [])

    def test_kernel_method_loads_scipy(self, tmp_path):
        rc, loaded = self.probe(tmp_path, "equate-kernel")
        assert rc == 0
        assert "scipy" in loaded
