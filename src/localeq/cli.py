"""Command-line front end: `localeq equate | diagnose | simulate`.

All input and output is comma-separated UTF-8 text with a header row; an
input file may start with a byte-order mark.
Floats are written with repr so identical runs produce identical bytes.
The default output directory comes from --out-dir, then the
LOCALEQ_OUT_DIR environment variable, then the working directory.

`equate` and `diagnose` read their input through one loader, `_load`: it
checks the schema against what the command needs (an anchor role, or
covariate roles) before it opens the data file, then parses the file into a
validated ScoreTable and rejects one that holds only one form. Each command
fits the propensity model at most once.
`simulate` reads its study file against one key table built from the
top-level and scenario defaults; `--seed` sets the seed of every scenario.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .core import LinearTransform, ScoreTable, TransformFamily
from .equating import (
    anchor_family,
    equipercentile_family,
    family_at_percentiles,
    ipw_family,
    ipw_weights,
    strat_family,
)
from .errors import ConfigError, LocalEqError, RowError, SchemaError, UsageError
from .evaluation import METHODS, EvaluationReport, run_study, write_rows
from .propensity import (
    balance_report,
    encode_covariates,
    estimate_propensity,
    fit_logistic,
    stratify_quantile,
)
from .simulation import SimulationConfig

__all__ = [
    "DatasetSchema",
    "parse_dataset",
    "cmd_equate",
    "cmd_diagnose",
    "cmd_simulate",
    "main",
]

OUT_DIR_ENV = "LOCALEQ_OUT_DIR"

DEFAULT_PERCENTILES = (10.0, 30.0, 50.0, 70.0, 90.0)

EQUATE_METHODS = (
    "anchor",
    "strat",
    "ipw",
    "equipercentile-anchor",
    "equipercentile-strat",
    "equipercentile-ipw",
)

_FORM_LABELS = {"X": 0, "x": 0, "0": 0, "Y": 1, "y": 1, "1": 1}
# each form label's code at its byte, -1 at every other byte
_FORM_BYTES = np.full(256, -1)
_FORM_BYTES[[ord(label) for label in _FORM_LABELS]] = list(_FORM_LABELS.values())


def _first_repeat(names):
    """The first of ``names`` that occurs more than once, or None."""
    counts = Counter(names)
    return next((name for name in names if counts[name] > 1), None)


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a delimited dataset.

    Built from a compact string such as
    ``form:group,score:total,anchor:anch,num:age,cat:gender,ignore:id``.
    Every file column must be named by exactly one role. ``covariates``
    lists (column, kind) pairs in schema order, kind being ``numeric`` or
    ``categorical``.
    """

    form: str
    score: str
    anchor: str | None = None
    covariates: tuple = ()
    ignore: tuple = ()

    def __post_init__(self):
        column = _first_repeat(self.required_columns + list(self.ignore))
        if column is not None:
            raise SchemaError(column, f"column {column!r} takes more than one schema role")

    @classmethod
    def from_string(cls, text: str) -> "DatasetSchema":
        single = dict.fromkeys(("form", "score", "anchor"))
        covariates, ignore = [], []
        for part in filter(None, (p.strip() for p in text.split(","))):
            role, _, column = part.partition(":")
            if not column:
                raise SchemaError(part, f"schema entry {part!r} is not role:column")
            if role in single:
                if single[role] is not None:
                    raise SchemaError(column, f"multiple {role} columns")
                single[role] = column
            elif role == "num":
                covariates.append((column, "numeric"))
            elif role == "cat":
                covariates.append((column, "categorical"))
            elif role == "ignore":
                ignore.append(column)
            else:
                raise SchemaError(column, f"unknown role {role!r}")
        for role in ("form", "score"):
            if single[role] is None:
                raise SchemaError(role, f"schema must name a {role} column")
        return cls(**single, covariates=tuple(covariates), ignore=tuple(ignore))

    @property
    def required_columns(self) -> list:
        """The columns the data file must hold: form, score, anchor, covariates."""
        singles = [c for c in (self.form, self.score, self.anchor) if c is not None]
        return singles + self.covariate_names

    @property
    def covariate_names(self) -> list:
        return [name for name, _ in self.covariates]

    @property
    def covariate_kinds(self) -> list:
        return [kind for _, kind in self.covariates]


def parse_dataset(path, schema: DatasetSchema) -> ScoreTable:
    """Read and validate a delimited dataset against a schema, column by column.

    The file is decoded once. ``_parse_columns`` reads a file without quotes
    from its bytes; the reference row scan, ``_scan_rows``, takes every other
    file and every file the column parse declines, and names the first bad
    1-based file line (the header is line 1). Numeric covariates must be
    finite; categorical ones, arbitrary strings, are coded as positions in the
    column's sorted level list.
    """
    text = _read_text(path)
    table = _parse_columns(text, schema)
    return _scan_rows(text, schema) if table is None else table


def _read_text(path):
    """The file decoded as UTF-8 after an optional byte-order mark.

    An undecodable byte is a RowError naming its file line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]  # the bytes after the mark
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        bad = exc.object[exc.start]
        raise RowError(line, f"byte {bad:#04x} is not valid UTF-8") from None


def _parse_columns(text, schema):
    """The table read column by column, or None where the row scan must decide.

    It declines a file with a quote or a NUL, a line as long as csv's field
    size limit, a blank header, a row of the wrong width and any invalid
    value, so what it returns is what ``_scan_rows`` would. A column the bytes
    do not give (``_byte_columns``) is read from field texts, split once.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:  # outside quotes, CRLF and a lone CR end a record as LF does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    head_end = text.find("\n")
    if head_end < 1:  # a blank header or no record
        return None
    header = text[:head_end].split(",")
    positions = _column_positions(header, schema)
    if "\n\n" in text:  # blank lines hold no record
        text = "\n".join(filter(None, text.split("\n")))
    if not text.endswith("\n"):
        text += "\n"
    width, fields = len(header), []
    read = _byte_columns(text, width, positions, schema)

    def column(name):
        if not fields:
            fields.extend(text[head_end + 1 : -1].replace("\n", ",").split(","))
        return fields[positions[name] :: width]

    try:
        return None if read is None else _table_from_values(*read, schema, column)
    except (ValueError, OverflowError):
        return None


def _byte_columns(text, width, positions, schema):
    """The form codes and each numeric column's ``_digits``, read off the bytes
    of ``text``, lines ending in a newline; None unless every record has
    ``width`` fields, every line is below csv's field size limit and every
    form label is one byte."""
    raw = np.frombuffer(text.encode(), np.uint8)
    newline = raw == ord("\n")
    ends = np.flatnonzero((raw == ord(",")) | newline)  # every field's end
    lines = ends[width - 1 :: width]  # increasing: all newlines iff as many as newlines
    if lines.size < 2 or lines.size != np.count_nonzero(newline) or not newline[lines].all():
        return None
    del newline  # before the digit pass, whose peak it would raise
    if np.diff(lines, prepend=-1).max() > csv.field_size_limit():
        return None
    ends = ends[width - 1 :]  # the header's newline, then every record field's end

    def span(name):
        j = positions[name]
        return ends[j:-1:width] + 1, ends[j + 1 :: width]

    start, stop = span(schema.form)
    if np.any(stop - start != 1):
        return None
    numeric = [schema.score, schema.anchor, *(c for c, k in schema.covariates if k == "numeric")]
    digits = {name: _digits(raw, *span(name)) for name in numeric if name is not None}
    return _FORM_BYTES[raw[start]], digits


def _digits(raw, start, stop):
    """The magnitudes and minus signs of the fields ``raw[start:stop]``, or None
    unless every one matches ``-?[0-9]{1,18}`` (18 digits always fit int64)."""
    minus = raw[start] == ord("-")
    start = start + minus
    count = stop - start
    if count.min() < 1 or count.max() > 18:
        return None
    magnitude = np.zeros(count.size, np.int64)
    for k in range(count.max()):
        live = count > k
        digit = raw[np.where(live, start + k, stop)] - ord("0")  # a uint8 past 9 unless a digit
        if np.any(live & (digit > 9)):
            return None
        magnitude = np.where(live, magnitude * 10 + digit, magnitude)
    return magnitude, minus


def _column_positions(header, schema):
    """Each schema column's index in ``header``; SchemaError unless the header
    names each column once and the schema covers it."""
    column = _first_repeat(header)
    if column is not None:
        raise SchemaError(column, f"header names column {column!r} more than once")
    required = schema.required_columns
    for column in required:
        if column not in header:
            raise SchemaError(column, f"required column {column!r} missing from header")
    untagged = [c for c in header if c not in required and c not in schema.ignore]
    if untagged:
        raise SchemaError(
            untagged[0],
            f"columns not covered by the schema or its ignore list: {untagged}",
        )
    return {column: header.index(column) for column in required}


def _table_from_values(form, digits, schema, column):
    """The table of the records coded ``form``. A numeric column is read from
    ``digits[name]`` where that is not None, else from its field texts,
    ``column(name)``, by int or float; ValueError or OverflowError on a bad value.
    """
    n = form.size

    def numbers(name, convert):
        dtype = np.int64 if convert is int else float
        read = digits.get(name)
        if read is None:
            return np.fromiter(map(convert, column(name)), dtype, n)
        magnitude, minus = read
        value = magnitude.astype(dtype)
        return np.negative(value, out=value, where=minus)  # "-0" keeps its sign as a float

    anchor = None if schema.anchor is None else numbers(schema.anchor, int)
    covariates = np.empty((n, len(schema.covariates)))
    for j, (name, kind) in enumerate(schema.covariates):
        if kind == "numeric":
            covariates[:, j] = numbers(name, float)
        else:
            texts = column(name)
            code = {level: i for i, level in enumerate(sorted(set(texts)))}
            covariates[:, j] = np.fromiter(map(code.get, texts), float, n)
    return ScoreTable(form, numbers(schema.score, int), anchor, covariates)


def _scan_rows(text, schema):
    """The reference parse: csv.reader, row by row, in the excel dialect.

    Returns the table, or raises the RowError of the first invalid record,
    named by the file line it starts on (a quoted field may span lines). A
    csv error (a field over the size limit) is a RowError on the line where
    the reader stopped.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError(schema.form, "file has no header row")
        positions = _column_positions(header, schema)
        rows = []
        end = reader.line_num  # the file line the previous record ended on
        for row in reader:
            if row:
                _check_row(row, end + 1, schema, len(header), positions)
                rows.append(row)
            end = reader.line_num
    except csv.Error as exc:
        raise RowError(reader.line_num, str(exc)) from None
    if not rows:
        raise RowError(2, "file contains no data rows")
    values, width = list(chain.from_iterable(rows)), len(header)

    def column(name):
        return values[positions[name] :: width]

    form = np.fromiter(map(_FORM_LABELS.__getitem__, column(schema.form)), np.int64, len(rows))
    return _table_from_values(form, {}, schema, column)


def _check_row(row, line, schema, width, positions):
    """Raise a RowError if the record on ``line`` is invalid.

    Its width, form label and number syntax come first, its score and anchor
    signs last.
    """
    if len(row) != width:
        raise RowError(line, f"expected {width} fields, got {len(row)}")
    form_text = row[positions[schema.form]]
    if form_text not in _FORM_LABELS:
        raise RowError(line, f"unknown form label {form_text!r}")
    score = _parse_number(row[positions[schema.score]], schema.score, line)
    anchor = None
    if schema.anchor is not None:
        anchor = _parse_number(row[positions[schema.anchor]], schema.anchor, line)
    for name, kind in schema.covariates:
        if kind == "numeric":
            _parse_number(row[positions[name]], name, line, float)
    if score < 0:
        raise RowError(line, f"total score must be non-negative, got {score}")
    if anchor is not None and anchor < 0:
        raise RowError(line, f"anchor score must be non-negative, got {anchor}")


def _parse_number(text, column, line, convert=int):
    """``text`` read by ``convert`` (int or float); RowError unless an int64 or finite."""
    try:
        value = convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "numeric"
        raise RowError(line, f"column {column!r}: {text!r} is not {kind}") from None
    if convert is int and value.bit_length() > 63:
        raise RowError(line, f"column {column!r}: {text!r} is out of range")
    if convert is float and not math.isfinite(value):
        raise RowError(line, f"column {column!r}: {text!r} is not finite")
    return value


def _fmt(value) -> str:
    return repr(float(value))


def _fmt_or_blank(value) -> str:  # NaN, a value the table lacks, as an empty field
    return "" if math.isnan(value) else _fmt(value)


def _write_table(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    write_rows(path, header, rows)
    print(f"wrote {path}")


def _load(args, role, usage):
    """The schema and table of ``args.data``, once the schema names ``role``.

    ``role`` is ``anchor`` or ``covariates``. A schema without it is a usage
    error, raised before the data file is opened. A file that holds only one
    form is an error too, raised before any fit: both commands compare forms.
    """
    schema = DatasetSchema.from_string(args.schema)
    if not getattr(schema, role):
        raise UsageError(usage)
    table = parse_dataset(args.data, schema)
    for form, label in ((0, "X"), (1, "Y")):
        if not np.any(table.form == form):
            raise UsageError(f"form column {schema.form!r} holds no form {label} records")
    return schema, table


def _propensities(schema, table):
    """Fit the propensity model once; each record's estimated propensity."""
    encoded = encode_covariates(table, schema.covariate_kinds)
    if encoded.shape[1] == 0:
        raise UsageError("no usable covariate columns after encoding")
    return estimate_propensity(fit_logistic(encoded, table.form), encoded)


def _build_family(schema, table, args) -> tuple:
    """Family plus the per-record conditioning values for percentile picks."""
    method, bandwidth = args.method, args.bandwidth
    if method == "anchor":
        return anchor_family(table), table.anchor
    if method == "equipercentile-anchor":
        return equipercentile_family(table, "anchor", bandwidth), table.anchor
    propensities = _propensities(schema, table)
    assignment = stratify_quantile(propensities, args.strata)
    index_values = assignment.labels
    if method == "strat":
        return strat_family(table, assignment), index_values
    if method == "equipercentile-strat":
        return equipercentile_family(table, assignment, bandwidth), index_values
    weights = ipw_weights(table, assignment, propensities, args.trim_alpha)
    if method == "ipw":
        return ipw_family(table, weights), index_values
    return equipercentile_family(table, weights, bandwidth), index_values


def _family_rows(family: TransformFamily):
    rows = []
    for index in sorted(set(family.entries) | set(family.omitted)):
        transform = family.entries.get(index)
        if isinstance(transform, LinearTransform):
            stats = (_fmt(transform.slope), _fmt(transform.mu_y), _fmt(transform.mu_x))
        else:
            stats = ("", "", "")
        rows.append((index,) + stats + (0 if index in family.entries else 1,))
    return rows


def cmd_equate(args) -> int:
    if args.method in ("anchor", "equipercentile-anchor"):
        need = ("anchor", "method needs an anchor column in the schema")
    else:
        need = ("covariates", "this method needs covariate columns in the schema")
    schema, table = _load(args, *need)
    family, index_values = _build_family(schema, table, args)
    out_dir = _resolve_out_dir(args.out_dir)

    header = ("index", "slope", "mu_y", "mu_x", "omitted")
    _write_table(out_dir, f"{args.method}_family.csv", header, _family_rows(family))

    grid = np.arange(table.score.max() + 1, dtype=float)
    for pick in family_at_percentiles(family, args.percentiles, index_values):
        equated = np.asarray(pick.transform(grid), dtype=float)
        _write_table(
            out_dir,
            f"{args.method}_p{pick.percentile:g}_index{pick.index}.csv",
            ("raw_score", "equated", "equated_minus_raw"),
            [(int(raw), _fmt(eq), _fmt(eq - raw)) for raw, eq in zip(grid, equated)],
        )
    return 0


def cmd_diagnose(args) -> int:
    schema, table = _load(args, "covariates", "diagnose needs covariate columns in the schema")
    propensities = _propensities(schema, table)
    names = schema.covariate_names
    # every count is stratified before the first write: one that fails writes nothing
    reports = [
        balance_report(table, stratify_quantile(propensities, strata), names)
        for strata in args.strata_list
    ]
    out_dir = _resolve_out_dir(args.out_dir)
    summary_rows = []
    for report in reports:
        rows = [[k] + list(map(_fmt_or_blank, row)) for k, row in enumerate(report.asmd, 1)]
        _write_table(out_dir, f"balance_K{report.K}.csv", ["stratum"] + names, rows)
        summary_rows += [
            (report.K, name, _fmt_or_blank(frac))
            for name, frac in zip(names, report.satisfactory_fraction)
        ]
    header = ("strata", "covariate", "satisfactory_fraction")
    _write_table(out_dir, "balance_summary.csv", header, summary_rows)
    return 0


def _field_parser(default):
    """Parse a config value as the type of ``default``; tuples split on commas."""
    if isinstance(default, tuple):
        kind = type(default[0])
        return lambda text: tuple(kind(v.strip()) for v in text.split(","))
    return type(default)


_TOP_LEVEL_DEFAULTS = {"methods": ("anchor", "strat", "ipw"), "seed": 0, "workers": 1}

# one parser per config key; ``scenario.<name>.<field>`` is looked up as
# ``scenario.*.<field>``, with the SimulationConfig fields as defaults
_CONFIG_PARSERS = {
    key: _field_parser(default)
    for key, default in [
        *_TOP_LEVEL_DEFAULTS.items(),
        *((f"scenario.*.{f.name}", f.default) for f in fields(SimulationConfig)),
    ]
}


def _read_config(path):
    """Parse the flat key=value study config in one pass.

    Every bad key and every unparseable value is collected; bad keys are
    raised first. Returns the top-level settings and each scenario's fields.
    """
    top, scenarios, bad_keys, bad_values = {}, {}, [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (p.strip() for p in line.partition("="))
            parts = key.split(".")
            scenario = parts[1] if len(parts) == 3 and parts[0] == "scenario" else None
            parser = _CONFIG_PARSERS.get(key if scenario is None else f"scenario.*.{parts[2]}")
            if not sep or parser is None:
                bad_keys.append(key)
                continue
            target = top if scenario is None else scenarios.setdefault(scenario, {})
            try:
                target[parts[-1]] = parser(value)
                bad_values.pop(key, None)  # a key set twice takes its last value
            except ValueError:
                bad_values[key] = None
    if bad_keys:
        raise ConfigError(bad_keys)
    if bad_values:
        bad = list(bad_values)
        raise ConfigError(bad, f"unparseable config values: {bad}")
    return top, scenarios


def _resolve_study(path, seed_override=None):
    """Scenario configs, methods, workers and seed of a study file.

    Unset keys take their defaults. A scenario's own seed beats the
    top-level ``seed``; ``seed_override`` (the --seed flag) beats both.
    A negative seed or a worker count below 1 in the file is a ConfigError
    naming its key; an invalid scenario, one with more strata than examinees
    included, is one naming ``scenario.<name>``.
    """
    top, scenarios = _read_config(path)
    seeds = [("seed", top.get("seed", 0))]
    seeds += [(f"scenario.{name}.seed", v.get("seed", 0)) for name, v in scenarios.items()]
    negative = [key for key, seed in seeds if seed < 0]
    if negative:
        raise ConfigError(negative, f"seeds must be non-negative: {negative}")
    flag = {} if seed_override is None else {"seed": seed_override}
    settings = {**_TOP_LEVEL_DEFAULTS, **top, **flag}
    if settings["workers"] < 1:
        raise ConfigError(["workers"], f"workers must be at least 1, got {settings['workers']}")
    for method in settings["methods"]:
        if method not in METHODS:
            raise ConfigError(["methods"], f"unknown study method {method!r}")
    configs = {}
    for name, overrides in sorted((scenarios or {"default": {}}).items()):
        overrides = {"seed": settings["seed"], **overrides, **flag}
        try:
            config = configs[name] = SimulationConfig(**overrides)
            if config.strata > config.n:  # a stratum needs an examinee
                raise ValueError(f"strata ({config.strata}) exceeds n ({config.n})")
        except ValueError as exc:
            raise ConfigError(
                [f"scenario.{name}"], f"scenario {name!r}: {exc}"
            ) from None
    return configs, settings["methods"], settings["workers"], settings["seed"]


def _echo_config(path, configs, methods, workers, seed):
    """Write the fully resolved study configuration, reparseable as input."""
    entries = [("methods", methods), ("seed", seed), ("workers", workers)]
    for name in sorted(configs):
        entries += sorted(
            (f"scenario.{name}.{f.name}", getattr(configs[name], f.name))
            for f in fields(SimulationConfig)
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries:  # str(float) is its repr
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            fh.write(f"{key} = {text}\n")


def cmd_simulate(args) -> int:
    configs, methods, workers, seed = _resolve_study(args.config, args.seed)
    out_dir = _resolve_out_dir(args.out_dir)

    echo_path = os.path.join(out_dir, "resolved_config.txt")
    _echo_config(echo_path, configs, methods, workers, seed)
    print(f"wrote {echo_path}")

    summary_rows = []
    for name in sorted(configs):
        report = run_study(configs[name], methods, scenario=name, workers=workers)
        _write_table(out_dir, f"report_{name}.csv", report.columns, report.to_rows())
        summary_rows += report.summary_rows()
    _write_table(out_dir, "summary.csv", EvaluationReport.summary_columns, summary_rows)
    return 0


def _resolve_out_dir(flag_value) -> str:
    out_dir = flag_value or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _checked_arg(parse, valid, what, rule):
    """An argparse type: ``parse`` the text, then require ``valid(value)``."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{what} {rule}")
        return value

    return convert


def _number_list(kind):
    return lambda text: [kind(v) for v in text.split(",") if v.strip()]


_percentiles_arg = _checked_arg(
    _number_list(float),
    lambda ps: ps and all(0 <= p <= 100 for p in ps)
    and _first_repeat([f"{p:g}" for p in ps]) is None,  # as curve files name them
    "percentile list",
    "must be non-empty, lie in [0, 100] and repeat no value to 6 significant digits",
)
_bandwidth_arg = _checked_arg(float, lambda h: h > 0, "bandwidth", "must be positive")
_strata_arg = _checked_arg(int, lambda k: k >= 1, "strata count", "must be positive")
_strata_list_arg = _checked_arg(
    _number_list(int),
    lambda ks: ks and all(k >= 1 for k in ks) and _first_repeat(ks) is None,
    "strata list",
    "must be non-empty, positive and repeat no count",
)
_seed_arg = _checked_arg(int, lambda s: s >= 0, "seed", "must be non-negative")
_trim_alpha_arg = _checked_arg(
    float, lambda a: 0.0 <= a < 0.5, "trim fraction", "must lie in [0, 0.5)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localeq",
        description="Local observed-score equating with propensity strata, "
        "IPW, or an anchor test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    equate = sub.add_parser("equate", help="fit a transform family and emit curves")
    equate.add_argument("--data", required=True, help="dataset file (CSV with header)")
    equate.add_argument("--schema", required=True, help="role:column list")
    equate.add_argument("--method", required=True, choices=EQUATE_METHODS)
    equate.add_argument("--strata", type=_strata_arg, default=20)
    equate.add_argument("--trim-alpha", type=_trim_alpha_arg, default=0.01)
    equate.add_argument("--bandwidth", type=_bandwidth_arg, default=None)
    equate.add_argument(
        "--percentiles", type=_percentiles_arg, default=list(DEFAULT_PERCENTILES)
    )
    equate.add_argument("--out-dir", default=None)
    equate.set_defaults(func=cmd_equate)

    diagnose = sub.add_parser("diagnose", help="covariate balance tables per K")
    diagnose.add_argument("--data", required=True)
    diagnose.add_argument("--schema", required=True)
    diagnose.add_argument(
        "--strata", dest="strata_list", type=_strata_list_arg, default=[20]
    )
    diagnose.add_argument("--out-dir", default=None)
    diagnose.set_defaults(func=cmd_diagnose)

    simulate = sub.add_parser("simulate", help="run the replication study")
    simulate.add_argument("--config", required=True, help="flat key=value study file")
    simulate.add_argument("--seed", type=_seed_arg, default=None)
    simulate.add_argument("--out-dir", default=None)
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LocalEqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
