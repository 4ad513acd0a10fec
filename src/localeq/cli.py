"""Command-line front end: `localeq equate | diagnose | simulate`.

All input and output is comma-separated UTF-8 text with a header row.
Floats are written with repr so identical runs produce identical bytes.
The default output directory comes from --out-dir, then the
LOCALEQ_OUT_DIR environment variable, then the working directory.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields

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
from .evaluation import METHODS, run_study, write_rows
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
    "ParsedDataset",
    "parse_dataset",
    "write_dataset",
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
    def covariate_names(self) -> list:
        return [name for name, _ in self.covariates]

    @property
    def covariate_kinds(self) -> list:
        return [kind for _, kind in self.covariates]


@dataclass
class ParsedDataset:
    """A validated :class:`ScoreTable` plus what re-serializes it losslessly.

    ``categorical_levels`` maps each categorical column to its sorted level
    strings, whose positions the table stores. ``len()`` counts the rows.
    """

    table: ScoreTable
    schema: DatasetSchema
    categorical_levels: dict

    def __len__(self):
        return len(self.table)


def _read_rows(path, schema):
    """The header and every record after it; record i sits on file line i + 2."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(schema.form, "file has no header row") from None
        rows = list(reader)
    return header, rows


def parse_dataset(path, schema: DatasetSchema) -> ParsedDataset:
    """Read and validate a delimited dataset against a schema, column by column.

    Only when a value is invalid are the rows read again, one by one, to name
    the first bad 1-based file line (the header is line 1). Numeric covariates
    must be finite; categorical ones, arbitrary strings, are coded as
    positions in the column's sorted level list.
    """
    header, rows = _read_rows(path, schema)
    positions = {}
    required = [schema.form, schema.score]
    if schema.anchor is not None:
        required.append(schema.anchor)
    required.extend(schema.covariate_names)
    for column in required:
        if column not in header:
            raise SchemaError(column, f"required column {column!r} missing from header")
        positions[column] = header.index(column)
    untagged = [c for c in header if c not in required and c not in schema.ignore]
    if untagged:
        raise SchemaError(
            untagged[0],
            f"columns not covered by the schema or its ignore list: {untagged}",
        )

    rows = [row for row in rows if row]  # blank lines hold no record
    if not rows:
        raise RowError(2, "file contains no data rows")
    if set(map(len, rows)) == {len(header)}:
        columns = list(zip(*rows))
        del rows  # the columns hold every value; the error path rereads the file
        try:
            table, levels = _table_from_columns(columns, positions, schema)
            return ParsedDataset(table=table, schema=schema, categorical_levels=levels)
        except (KeyError, ValueError, OverflowError):
            pass
    _raise_first_bad_row(path, schema, len(header), positions)
    raise AssertionError("the row scan accepted what the column parse rejected")


def _table_from_columns(columns, positions, schema):
    """The table and categorical levels; KeyError or ValueError on a bad value."""
    n = len(columns[0])
    column = {name: columns[i] for name, i in positions.items()}

    def integers(name):
        return np.fromiter(map(int, column[name]), np.int64, n)

    form = np.fromiter(map(_FORM_LABELS.__getitem__, column[schema.form]), np.int64, n)
    anchor = None if schema.anchor is None else integers(schema.anchor)
    levels, covariates = {}, np.empty((n, len(schema.covariates)))
    for j, (name, kind) in enumerate(schema.covariates):
        if kind == "numeric":
            covariates[:, j] = np.fromiter(map(float, column[name]), float, n)
        else:
            levels[name] = sorted(set(column[name]))
            code = {level: i for i, level in enumerate(levels[name])}
            covariates[:, j] = np.fromiter(map(code.get, column[name]), float, n)
    return ScoreTable(form, integers(schema.score), anchor, covariates), levels


def _raise_first_bad_row(path, schema, width, positions):
    """Read the rows again and raise the RowError of the first invalid one."""
    _, rows = _read_rows(path, schema)
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise RowError(line, f"expected {width} fields, got {len(row)}")
        form_text = row[positions[schema.form]]
        if form_text not in _FORM_LABELS:
            raise RowError(line, f"unknown form label {form_text!r}")
        score = _parse_number(row[positions[schema.score]], schema.score, line)
        anchor = None
        if schema.anchor is not None:
            anchor = [_parse_number(row[positions[schema.anchor]], schema.anchor, line)]
        for name, kind in schema.covariates:
            if kind == "numeric":
                _parse_number(row[positions[name]], name, line, float)
        try:
            ScoreTable([_FORM_LABELS[form_text]], [score], anchor)
        except ValueError as exc:
            raise RowError(line, str(exc)) from None


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


def write_dataset(dataset: ParsedDataset, path):
    """Serialize a parsed dataset back to delimited text (role columns only)."""
    schema, table = dataset.schema, dataset.table
    header = [schema.form, schema.score]
    columns = [map(str, table.form.tolist()), map(str, table.score.tolist())]
    if schema.anchor is not None:
        header.append(schema.anchor)
        columns.append(map(str, table.anchor.tolist()))
    header.extend(schema.covariate_names)
    for (name, kind), values in zip(schema.covariates, table.covariates.T.tolist()):
        if kind == "categorical":
            columns.append(map(dataset.categorical_levels[name].__getitem__, map(int, values)))
        else:
            columns.append(map(repr, values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _fmt(value) -> str:
    return repr(float(value))


def _write_table(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    write_rows(path, header, rows)
    print(f"wrote {path}")


def _fit_strata(dataset: ParsedDataset, strata: int):
    if not dataset.schema.covariates:
        raise UsageError("this method needs covariate columns in the schema")
    encoded = encode_covariates(dataset.table, dataset.schema.covariate_kinds)
    if encoded.shape[1] == 0:
        raise UsageError("no usable covariate columns after encoding")
    model = fit_logistic(encoded, dataset.table.form)
    propensities = estimate_propensity(model, encoded)
    assignment = stratify_quantile(propensities, strata)
    return assignment, propensities


def _build_family(dataset, method, strata, trim_alpha, bandwidth) -> tuple:
    """Family plus the per-record conditioning values for percentile picks."""
    table = dataset.table
    if method in ("anchor", "equipercentile-anchor"):
        if dataset.schema.anchor is None:
            raise UsageError("method needs an anchor column in the schema")
        if method == "anchor":
            return anchor_family(table), table.anchor
        return equipercentile_family(table, "anchor", bandwidth), table.anchor
    assignment, propensities = _fit_strata(dataset, strata)
    index_values = assignment.labels
    if method == "strat":
        return strat_family(table, assignment), index_values
    if method == "equipercentile-strat":
        return equipercentile_family(table, assignment, bandwidth), index_values
    weights = ipw_weights(table, assignment, propensities, trim_alpha)
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
    schema = DatasetSchema.from_string(args.schema)
    dataset = parse_dataset(args.data, schema)
    family, index_values = _build_family(
        dataset, args.method, args.strata, args.trim_alpha, args.bandwidth
    )
    out_dir = _resolve_out_dir(args.out_dir)

    header = ("index", "slope", "mu_y", "mu_x", "omitted")
    _write_table(out_dir, f"{args.method}_family.csv", header, _family_rows(family))

    grid = np.arange(dataset.table.score.max() + 1, dtype=float)
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
    schema = DatasetSchema.from_string(args.schema)
    dataset = parse_dataset(args.data, schema)
    if not schema.covariates:
        raise UsageError("diagnose needs covariate columns in the schema")
    out_dir = _resolve_out_dir(args.out_dir)
    names = schema.covariate_names
    summary_rows = []
    for strata in args.strata_list:
        assignment, _ = _fit_strata(dataset, strata)
        report = balance_report(dataset.table, assignment, names)
        rows = []
        for k in range(1, report.K + 1):
            cells = [
                "" if math.isnan(report.asmd[k - 1, j]) else _fmt(report.asmd[k - 1, j])
                for j in range(len(names))
            ]
            rows.append([k] + cells)
        _write_table(out_dir, f"balance_K{strata}.csv", ["stratum"] + names, rows)
        for j, name in enumerate(names):
            frac = report.satisfactory_fraction[j]
            summary_rows.append(
                (strata, name, "" if math.isnan(frac) else _fmt(frac))
            )
    header = ("strata", "covariate", "satisfactory_fraction")
    _write_table(out_dir, "balance_summary.csv", header, summary_rows)
    return 0


def _field_parser(default):
    """Parse a config value as the type of ``default``; tuples split on commas."""
    if isinstance(default, tuple):
        kind = type(default[0])
        return lambda text: tuple(kind(v) for v in text.split(","))
    return type(default)


_SCENARIO_FIELD_PARSERS = {
    f.name: _field_parser(f.default) for f in fields(SimulationConfig)
}

_TOP_LEVEL_PARSERS = {
    "seed": int,
    "workers": int,
    "methods": lambda text: tuple(p.strip() for p in text.split(",")),
}


def _parse_values(entries, parsers, bad_values) -> dict:
    """Parse each ``name: (full key, text)`` entry; collect keys that fail."""
    parsed = {}
    for name, (full_key, value) in entries.items():
        try:
            parsed[name] = parsers[name](value)
        except ValueError:
            bad_values.append(full_key)
    return parsed


def _read_config(path):
    """Parse the flat key=value study config; collect every bad key at once."""
    top = {}
    scenario_fields = {}
    bad_keys = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (p.strip() for p in line.partition("="))
            if not sep:
                bad_keys.append(key)
                continue
            if key in _TOP_LEVEL_PARSERS:
                top[key] = (key, value)
            elif key.startswith("scenario."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] not in _SCENARIO_FIELD_PARSERS:
                    bad_keys.append(key)
                    continue
                scenario_fields.setdefault(parts[1], {})[parts[2]] = (key, value)
            else:
                bad_keys.append(key)
    if bad_keys:
        raise ConfigError(bad_keys)

    bad_values = []
    parsed_top = _parse_values(top, _TOP_LEVEL_PARSERS, bad_values)
    scenarios = {
        name: _parse_values(mapping, _SCENARIO_FIELD_PARSERS, bad_values)
        for name, mapping in scenario_fields.items()
    }
    if bad_values:
        raise ConfigError(bad_values, f"unparseable config values: {bad_values}")
    return parsed_top, scenarios


def _resolve_study(path, seed_override=None):
    top, scenario_fields = _read_config(path)
    workers = top.get("workers", 1)
    methods = top.get("methods", ("anchor", "strat", "ipw"))
    for method in methods:
        if method not in METHODS:
            raise ConfigError(["methods"], f"unknown study method {method!r}")
    seed = seed_override if seed_override is not None else top.get("seed", 0)
    if not scenario_fields:
        scenario_fields = {"default": {}}
    configs = {}
    for name in sorted(scenario_fields):
        overrides = dict(scenario_fields[name])
        overrides.setdefault("seed", seed)
        try:
            configs[name] = SimulationConfig(**overrides)
        except ValueError as exc:
            raise ConfigError(
                [f"scenario.{name}"], f"scenario {name!r}: {exc}"
            ) from None
    return configs, methods, workers, seed


def _echo_config(path, configs, methods, workers, seed):
    """Write the fully resolved study configuration, reparseable as input."""
    lines = [
        f"methods = {','.join(methods)}",
        f"seed = {seed}",
        f"workers = {workers}",
    ]
    for name in sorted(configs):
        config = configs[name]
        for f in sorted(fields(SimulationConfig), key=lambda f: f.name):
            value = getattr(config, f.name)  # str(float) is its repr
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"scenario.{name}.{f.name} = {text}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
        retained = ~report.omitted
        for method in sorted(report.methods):
            result = report.methods[method]
            usable = retained[np.newaxis, :] & (result.reps_used > 0)
            if usable.any():
                stats = (
                    _fmt(result.bias[usable].mean()),
                    _fmt(result.bias[usable].max()),
                    _fmt(result.rmse[usable].mean()),
                )
            else:
                stats = ("", "", "")
            summary_rows.append(
                (name, method, int(usable.sum()))
                + stats
                + (result.failures, report.replications)
            )
    header = "scenario,method,retained_cells,mean_bias,max_bias,mean_rmse,failures,replications"
    _write_table(out_dir, "summary.csv", header.split(","), summary_rows)
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
    lambda ps: ps and all(0 <= p <= 100 for p in ps),
    "percentile list",
    "must be non-empty and lie in [0, 100]",
)
_bandwidth_arg = _checked_arg(float, lambda h: h > 0, "bandwidth", "must be positive")
_strata_arg = _checked_arg(int, lambda k: k >= 1, "strata count", "must be positive")
_strata_list_arg = _checked_arg(
    _number_list(int),
    lambda ks: ks and all(k >= 1 for k in ks),
    "strata list",
    "must be non-empty and positive",
)
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
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out-dir", default=None)
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LocalEqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
