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

from .core import ExamineeRecord, LinearTransform, TransformFamily
from .equating import (
    anchor_family,
    equipercentile_family,
    family_at_percentiles,
    ipw_family,
    ipw_weights,
    strat_family,
)
from .errors import ConfigError, LocalEqError, RowError, SchemaError, UsageError
from .evaluation import METHODS, run_study
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
    """Validated records plus what is needed to re-serialize them losslessly.

    ``categorical_levels`` maps each categorical column to its sorted level
    strings; records store the level's position so downstream numeric code
    paths work unchanged. Behaves as a sequence of records.
    """

    records: list
    schema: DatasetSchema
    categorical_levels: dict

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]


def _read_rows(path, schema):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(schema.form, "file has no header row") from None
        rows = [(line, row) for line, row in enumerate(reader, start=2) if row]
    return header, rows


def parse_dataset(path, schema: DatasetSchema) -> ParsedDataset:
    """Read and validate a delimited dataset against a schema.

    Row numbers in errors are 1-based file lines (the header is line 1).
    Categorical covariate values may be arbitrary strings; they are coded
    as positions in the column's sorted level list.
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

    levels = {}
    for name, kind in schema.covariates:
        if kind == "categorical":
            seen = {row[positions[name]] for _, row in rows if len(row) > positions[name]}
            levels[name] = sorted(seen)

    records = []
    for line, row in rows:
        if len(row) != len(header):
            raise RowError(line, f"expected {len(header)} fields, got {len(row)}")
        form_text = row[positions[schema.form]]
        if form_text not in _FORM_LABELS:
            raise RowError(line, f"unknown form label {form_text!r}")
        form = _FORM_LABELS[form_text]
        score = _parse_int(row[positions[schema.score]], schema.score, line)
        anchor = None
        if schema.anchor is not None:
            anchor = _parse_int(row[positions[schema.anchor]], schema.anchor, line)
        values = []
        for name, kind in schema.covariates:
            text = row[positions[name]]
            if kind == "numeric":
                try:
                    values.append(float(text))
                except ValueError:
                    raise RowError(
                        line, f"column {name!r}: {text!r} is not numeric"
                    ) from None
            else:
                values.append(levels[name].index(text))
        try:
            records.append(
                ExamineeRecord(
                    form=form, score=score, anchor=anchor, covariates=tuple(values)
                )
            )
        except ValueError as exc:
            raise RowError(line, str(exc)) from None
    if not records:
        raise RowError(2, "file contains no data rows")
    return ParsedDataset(records=records, schema=schema, categorical_levels=levels)


def _parse_int(text, column, line) -> int:
    try:
        return int(text)
    except ValueError:
        raise RowError(line, f"column {column!r}: {text!r} is not an integer") from None


def write_dataset(dataset: ParsedDataset, path):
    """Serialize a parsed dataset back to delimited text (role columns only)."""
    schema = dataset.schema
    header = [schema.form, schema.score]
    if schema.anchor is not None:
        header.append(schema.anchor)
    header.extend(schema.covariate_names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for record in dataset.records:
            row = [str(record.form), str(record.score)]
            if schema.anchor is not None:
                row.append(str(record.anchor))
            for (name, kind), value in zip(schema.covariates, record.covariates):
                if kind == "categorical":
                    row.append(dataset.categorical_levels[name][int(value)])
                else:
                    row.append(repr(float(value)))
            fh.write(",".join(row) + "\n")


def _fmt(value) -> str:
    return repr(float(value))


def _write_table(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _fit_strata(dataset: ParsedDataset, strata: int):
    if not dataset.schema.covariates:
        raise UsageError("this method needs covariate columns in the schema")
    encoded = encode_covariates(dataset.records, dataset.schema.covariate_kinds)
    if encoded.shape[1] == 0:
        raise UsageError("no usable covariate columns after encoding")
    labels = np.array([r.form for r in dataset.records])
    model = fit_logistic(encoded, labels)
    propensities = estimate_propensity(model, encoded)
    assignment = stratify_quantile(propensities, strata)
    return assignment, propensities


def _build_family(dataset, method, strata, trim_alpha, bandwidth) -> tuple:
    """Family plus the per-record conditioning values for percentile picks."""
    records = dataset.records
    if method in ("anchor", "equipercentile-anchor"):
        if dataset.schema.anchor is None:
            raise UsageError("method needs an anchor column in the schema")
        index_values = np.array([r.anchor for r in records])
        if method == "anchor":
            return anchor_family(records), index_values
        return equipercentile_family(records, "anchor", bandwidth), index_values
    assignment, propensities = _fit_strata(dataset, strata)
    index_values = assignment.labels
    if method == "strat":
        return strat_family(records, assignment), index_values
    if method == "equipercentile-strat":
        return equipercentile_family(records, assignment, bandwidth), index_values
    weights = ipw_weights(records, assignment, propensities, trim_alpha)
    if method == "ipw":
        return ipw_family(records, weights), index_values
    return equipercentile_family(records, weights, bandwidth), index_values


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

    family_path = os.path.join(out_dir, f"{args.method}_family.csv")
    _write_table(
        family_path,
        ("index", "slope", "mu_y", "mu_x", "omitted"),
        _family_rows(family),
    )
    print(f"wrote {family_path}")

    max_score = max(r.score for r in dataset.records)
    grid = np.arange(max_score + 1, dtype=float)
    for pick in family_at_percentiles(family, args.percentiles, index_values):
        equated = np.asarray(pick.transform(grid), dtype=float)
        curve_path = os.path.join(
            out_dir, f"{args.method}_p{pick.percentile:g}_index{pick.index}.csv"
        )
        _write_table(
            curve_path,
            ("raw_score", "equated", "equated_minus_raw"),
            [
                (int(raw), _fmt(eq), _fmt(eq - raw))
                for raw, eq in zip(grid, equated)
            ],
        )
        print(f"wrote {curve_path}")
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
        report = balance_report(dataset.records, assignment, names)
        rows = []
        for k in range(1, report.K + 1):
            cells = [
                "" if math.isnan(report.asmd[k - 1, j]) else _fmt(report.asmd[k - 1, j])
                for j in range(len(names))
            ]
            rows.append([k] + cells)
        path = os.path.join(out_dir, f"balance_K{strata}.csv")
        _write_table(path, ["stratum"] + names, rows)
        print(f"wrote {path}")
        for j, name in enumerate(names):
            frac = report.satisfactory_fraction[j]
            summary_rows.append(
                (strata, name, "" if math.isnan(frac) else _fmt(frac))
            )
    summary_path = os.path.join(out_dir, "balance_summary.csv")
    _write_table(
        summary_path, ("strata", "covariate", "satisfactory_fraction"), summary_rows
    )
    print(f"wrote {summary_path}")
    return 0


_SCENARIO_FIELD_PARSERS = {
    "n": int,
    "items": int,
    "anchor_items": int,
    "strata": int,
    "replications": int,
    "nbins": int,
    "seed": int,
    "theta_sd": float,
    "trim_alpha": float,
    "covariate_strength": str,
    "group_theta_means": lambda text: tuple(float(v) for v in text.split(",")),
    "beta": lambda text: tuple(float(v) for v in text.split(",")),
    "covariate_categories": lambda text: tuple(int(v) for v in text.split(",")),
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
            value = getattr(config, f.name)
            if isinstance(value, tuple):
                text = ",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in value
                )
            else:
                text = str(value)
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
        report_path = os.path.join(out_dir, f"report_{name}.csv")
        report.write_csv(report_path)
        print(f"wrote {report_path}")
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
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_table(
        summary_path,
        (
            "scenario",
            "method",
            "retained_cells",
            "mean_bias",
            "max_bias",
            "mean_rmse",
            "failures",
            "replications",
        ),
        summary_rows,
    )
    print(f"wrote {summary_path}")
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
