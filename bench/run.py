"""Benchmark for localeq: replication-study throughput and CSV equate latency.

    python3 bench/run.py --workload study-default --seed 1 --seconds 15 --trace 0

It imports localeq from the ``src/`` directory beside ``bench/`` and drives
the public API (``run_study`` and ``localeq.cli.main``) from one process.
Timed rounds alternate with rounds of ``bench/reference/localeq_ref``, a
frozen copy of the package, so that the end-to-end time is a ratio taken
under the same machine load.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
adds a traced pass and prints the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

STUDY_METHODS = ("anchor", "strat", "ipw", "eg")
# study-default is the paper's scenario (N = 1000, 40 items, 20 anchor
# items, 8 strata, 10 bins); study-parallel is the same config on 2 workers
STUDIES = {
    "study-default": {"n": 1000, "replications": 20, "workers": 1},
    "study-large-n": {"n": 10000, "replications": 5, "workers": 1},
    "study-parallel": {"n": 1000, "replications": 20, "workers": 2},
}
EQUATE_ROWS = 20000
EQUATE_SCHEMA = "form:form,score:score,anchor:anchor,num:c1,num:c2,num:c3"
DIAGNOSE_STRATA = (5, 10, 20)
# one closed-loop client issues these in turn; the linear ones write slopes
EQUATE_COMMANDS = (
    ("equate-anchor", ["equate", "--method", "anchor"]),
    ("equate-strat", ["equate", "--method", "strat"]),
    ("equate-ipw", ["equate", "--method", "ipw"]),
    ("equate-eqp-anchor", ["equate", "--method", "equipercentile-anchor"]),
    ("equate-eqp-anchor-kernel",
     ["equate", "--method", "equipercentile-anchor", "--bandwidth", "0.6"]),
    ("equate-eqp-ipw-kernel",
     ["equate", "--method", "equipercentile-ipw", "--bandwidth", "0.6"]),
    ("diagnose", ["diagnose", "--strata", ",".join(map(str, DIAGNOSE_STRATA))]),
)
LINEAR_METHODS = ("anchor", "strat", "ipw")
WORKLOADS = (*STUDIES, "equate-csv")
SETUP_REPEATS = 3


def _p50(values):
    return statistics.median(values) if values else 0.0


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _fresh_import_seconds():
    """Start an interpreter and import the CLI, as every command invocation does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import localeq.cli"], env=env, cwd=ROOT, check=True,
        timeout=120,
    )
    return perf_counter() - start


class Round:
    """What one timed round did: its timed seconds and its outputs."""

    def __init__(self, seconds, digest):
        self.seconds = seconds
        self.digest = digest
        self.command_ms = {}      # equate-csv: command -> ms, successes only
        self.failures = Counter()  # (operation, error class, first line) -> count
        self.report = None
        self.partner_seconds = None  # the reference's time for the same work


class Study:
    """run_study at a fixed scenario; one round is one run_study call."""

    def __init__(self, lq, name, seed, work):
        spec = STUDIES[name]
        self.workers = spec["workers"]
        self.config = lq.simulation.SimulationConfig(
            n=spec["n"], replications=spec["replications"], seed=seed
        )
        self.work = work
        self.params = dict(spec, methods=list(STUDY_METHODS), seed=seed,
                           items=self.config.items,
                           anchor_items=self.config.anchor_items,
                           strata=self.config.strata, nbins=self.config.nbins)
        self.units_per_round = self.config.replications
        self.run_study = lq.evaluation.run_study

    def setup(self):
        return _fresh_import_seconds()

    def round(self, tracer=None, workers=None, partner=None, partner_first=False):
        """One run_study call; a partner workload runs its own just before or after."""
        workers = self.workers if workers is None else workers
        if partner is not None and partner_first:
            partner_seconds = partner.round().seconds
        start = perf_counter()
        with _span(tracer, "evaluation.run_study"):
            report = self.run_study(self.config, STUDY_METHODS, workers=workers)
        seconds = perf_counter() - start
        if partner is not None and not partner_first:
            partner_seconds = partner.round().seconds
        out = self.work / "study"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        report.write_csv(out / "report.csv")
        result = Round(seconds, checks.digest_files(out))
        result.report = report
        if partner is not None:
            result.partner_seconds = partner_seconds
        for method, r in report.methods.items():
            if r.failures:
                result.failures[(method, "LocalEqError", "")] += r.failures
        return result

    def operations(self, rounds):
        """(attempted, failed) method-replications of the run.

        Every round repeats the same replications, so each is one operation;
        a method counts as many failed replications as its worst round.
        """
        attempted = self.config.replications * len(STUDY_METHODS)
        failed = sum(max(r.report.methods[m].failures for r in rounds)
                     for m in STUDY_METHODS)
        return attempted, failed

    def check(self, first):
        problems = []
        for method, (value, _) in self.mean_bias(first.report).items():
            if not value > 0.0:
                problems.append(f"{method}: mean bias {value} over retained cells")
        if self.workers > 1:
            serial = self.round(workers=1)
            problems += checks.check_same_digest(
                "study-parallel report vs workers=1", serial.digest, first.digest
            )
        return problems

    @staticmethod
    def mean_bias(report):
        """Mean over retained cells of the per-cell bias, per method."""
        retained = ~report.omitted
        out = {}
        for method, result in report.methods.items():
            usable = retained[None, :] & (result.reps_used > 0)
            value = float(result.bias[usable].mean()) if usable.any() else float("nan")
            out[method] = (value, int(usable.sum()))
        return out


class EquateCsv:
    """The CLI on a seeded 20k-row CSV; one round issues every command once."""

    def __init__(self, lq, seed, work):
        self.lq = lq
        self.seed = seed
        self.work = work
        self.data = work / "scores.csv"
        self.params = {"rows": EQUATE_ROWS, "seed": seed, "schema": EQUATE_SCHEMA,
                       "commands": {name: argv for name, argv in EQUATE_COMMANDS},
                       "clients": 1, "loop": "closed"}
        self.units_per_round = 1

    def setup(self):
        """Import in a fresh interpreter, then draw and write the dataset."""
        seconds = _fresh_import_seconds()
        start = perf_counter()
        sim = self.lq.simulation
        config = sim.SimulationConfig(n=EQUATE_ROWS, seed=self.seed)
        pop = sim.gen_population(config, np.random.default_rng(self.seed))
        table = np.column_stack([pop.form, pop.score, pop.anchor_score, pop.covariates])
        self.work.mkdir(parents=True, exist_ok=True)
        np.savetxt(self.data, table, fmt="%d", delimiter=",",
                   header="form,score,anchor,c1,c2,c3", comments="")
        return seconds + perf_counter() - start

    def argv(self, base, out_dir):
        return base + ["--data", str(self.data), "--schema", EQUATE_SCHEMA,
                       "--out-dir", str(out_dir)]

    def command(self, name, base, tracer=None):
        """Run one CLI command; return (seconds, exit code, captured stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            with _span(tracer, f"cli.{name}"):
                code = self.lq.cli.main(self.argv(base, self.work / "out" / name))
            seconds = perf_counter() - start
        return seconds, code, stderr.getvalue()

    def round(self, tracer=None, partner=None, partner_first=False):
        """Every command once. A partner workload runs each command just
        before or after this one, so both see the same machine load."""
        for wl in (self, partner):
            if wl is not None:
                shutil.rmtree(wl.work / "out", ignore_errors=True)
        total = partner_total = 0.0
        command_ms, failures = {}, Counter()
        for name, base in EQUATE_COMMANDS:
            if partner is not None and partner_first:
                partner_total += partner.command(name, base)[0]
            seconds, code, stderr = self.command(name, base, tracer)
            if partner is not None and not partner_first:
                partner_total += partner.command(name, base)[0]
            total += seconds
            if code == 0:
                command_ms[name] = 1000.0 * seconds
            else:
                lines = [l for l in stderr.splitlines() if l.startswith("error:")]
                message = lines[0] if lines else f"exit {code}"
                failures[(name, f"exit {code}", message)] += 1
        result = Round(total, checks.digest_files(self.work / "out"))
        result.command_ms = command_ms
        result.failures = failures
        if partner is not None:
            result.partner_seconds = partner_total
        return result

    def operations(self, rounds):
        """(attempted, failed) commands of the run.

        Every round reissues the same commands on the same file, so each
        command is one operation, failed if it failed in any round.
        """
        failed = {op for r in rounds for op, _, _ in r.failures}
        return len(EQUATE_COMMANDS), len(failed)

    def check(self, first):
        out = self.work / "out"
        problems = []
        for name, base in EQUATE_COMMANDS:
            if name not in first.command_ms:
                continue
            if base[0] == "diagnose":
                problems += checks.check_balance_tables(out / name, DIAGNOSE_STRATA, 3)
            else:
                method = base[2]
                problems += checks.check_equate_output(
                    out / name, method, method in LINEAR_METHODS
                )
        return problems

    def error_classes(self, failures):
        """Re-run each failed command once, untimed, to name its exception."""
        classes = {}
        for name, argv in EQUATE_COMMANDS:
            if not any(op == name for op, _, _ in failures):
                continue
            args = self.lq.cli.build_parser().parse_args(
                self.argv(argv, self.work / "probe" / name)
            )
            classes[name] = "no error on re-run"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    args.func(args)
                except (self.lq.errors.LocalEqError, OSError) as exc:
                    classes[name] = type(exc).__name__
        return classes


def timed_rounds(do_round, seconds):
    """Closed loop: start the next round when the last ends, for `seconds`."""
    rounds = []
    end = perf_counter() + seconds
    while not rounds or perf_counter() < end:
        rounds.append(do_round())
    return rounds


def peak_memory_mb(do_round):
    """tracemalloc peak of one untimed round in MB (10**6 bytes), and the round."""
    tracemalloc.start()
    try:
        result = do_round()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


# span names whose self time is reported as "<span>.ms"
SPAN_MS = (
    "simulation.gen_population",
    "simulation.to_records",
    "simulation.true_transform",
    "simulation.mixture_score_distribution",
    "propensity.fit_logistic",
    "propensity.stratify_quantile",
    "propensity.estimate_propensity",
    "propensity.encode_covariates",
    "propensity.balance_report",
    "equating.anchor_family",
    "equating.strat_family",
    "equating.ipw_weights",
    "equating.ipw_family",
    "equating.pooled_transform",
    "equating.equipercentile_family",
    "equating.EquipercentileMap.call",
    "core.KernelCDF",
    "evaluation.ErrorAccumulator.add",
    "evaluation.ErrorAccumulator.insert",
    "evaluation.finalize",
    "cli.parse_dataset",
)


def layer_metrics(tracer, units):
    """Per-layer values from the spans, per unit of work (replication or round)."""
    calls, self_s = tracer.summary()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{span}.ms": 1000.0 * self_s.get(span, 0.0) / units for span in SPAN_MS}
    fits = calls.get("propensity.fit_logistic", 0)
    out.update({
        "simulation.true_transform.calls": calls.get("simulation.true_transform", 0) / units,
        "propensity.fit_logistic.calls": fits / units,
        "propensity.fit_logistic.iterations": ratio(counts["fit_logistic.iterations"], fits),
        "propensity.fit_logistic.converged_frac": ratio(counts["fit_logistic.converged"], fits),
        "core.inverse_cdf.calls": calls.get("core.inverse_cdf", 0) / units,
        "core.KernelCDF.evals": calls.get("core.KernelCDF", 0) / units,
        "evaluation.accumulator_bytes": float(tracer.accumulator_bytes),
        "evaluation.self.ms": 1000.0 * self_s.get("evaluation.run_study", 0.0) / units,
        "cli.parse_dataset.rows_per_s": ratio(
            counts["parse_dataset.rows"], self_s.get("cli.parse_dataset", 0.0)
        ),
    })
    for family in ("anchor", "strat", "ipw", "equipercentile"):
        out[f"equating.cells_fitted_ratio.{family}"] = ratio(
            counts[f"cells_fitted.{family}"], counts[f"cells_observed.{family}"]
        )
    for name, _ in EQUATE_COMMANDS:
        out[f"cli.self.ms.{name}"] = 1000.0 * self_s.get(f"cli.{name}", 0.0) / units
    return out


def workload_metrics(wl, first, rounds):
    """Untraced per-workload results: failures, throughput, bias, latencies."""
    attempted, failed = wl.operations([first, *rounds])
    out = {"failed_frac": (failed / attempted, attempted)}
    is_study = isinstance(wl, Study)
    p50 = _p50([r.seconds for r in rounds])
    out["reps_per_s"] = (wl.config.replications / p50, len(rounds)) if is_study else (0.0, 0)
    bias = Study.mean_bias(first.report) if is_study else {}
    for method in STUDY_METHODS:
        out[f"mean_bias.{method}"] = bias.get(method, (0.0, 0))
    for name, _ in EQUATE_COMMANDS:
        samples = [r.command_ms[name] for r in rounds if name in r.command_ms]
        out[f"ms_p50.{name}"] = (_p50(samples), len(samples))
    return out


def load_localeq():
    """The package under test and the frozen reference copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH / "reference"))
    import localeq.cli  # each package imports every other module
    import localeq_ref.cli

    return localeq, localeq_ref


def paired_rounds(wl, ref, seconds):
    """Pair every round with the same work on the reference, in ABBA order.

    Returns the rounds under test and, per pair, the time ratio test / ref.
    Both sides of a pair run back to back (per command on equate-csv), so a
    change in machine load between pairs cancels in the ratio.
    """
    rounds, ratios = [], []
    end = perf_counter() + seconds
    while not rounds or perf_counter() < end:
        result = wl.round(partner=ref, partner_first=len(rounds) % 2 == 1)
        rounds.append(result)
        ratios.append(result.seconds / result.partner_seconds)
    return rounds, ratios


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def make_workload(lq, name, seed, work):
    if name == "equate-csv":
        return EquateCsv(lq, seed, work)
    return Study(lq, name, seed, work)


def run(args, lq, lq_ref, spec, work):
    problems = [f"self-test missed: {m}" for m in checks.self_test(work / "selftest")]
    wl = make_workload(lq, args.workload, args.seed, work)
    values = {}  # metric -> (value, sample count)
    phases = {}  # wall seconds per step of the run, for the run record
    clock = perf_counter()

    def phase(name):
        nonlocal clock
        now = perf_counter()
        phases[name] = now - clock
        clock = now

    setups = [wl.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
    phase("setup")
    first = wl.round()  # warm-up; its outputs are the expected bytes of every round
    problems += wl.check(first)
    phase("warm-up and checks")

    parallel = isinstance(wl, Study) and wl.workers > 1
    serial = []
    if not args.trace:
        ref = make_workload(lq_ref, args.workload, args.seed, work / "reference")
        if isinstance(wl, EquateCsv):
            ref.data = wl.data  # the same input file
        ref.round()  # warm-up
        rounds, ratios = paired_rounds(wl, ref, args.seconds)
    elif parallel:
        # alternate worker counts so load drift hits both sides alike
        rounds = []
        end = perf_counter() + args.seconds
        while not rounds or perf_counter() < end:
            rounds.append(wl.round())
            serial.append(wl.round(workers=1))
    else:
        rounds = timed_rounds(wl.round, args.seconds)
    values.update(workload_metrics(wl, first, rounds))
    values["round_ms_p50"] = (1000.0 * _p50([r.seconds for r in rounds]), len(rounds))
    phase("timed")

    later = []  # memory or traced rounds, held to the same expected bytes
    tracer = tracing.Tracer()
    if not args.trace:
        values["setup_s"] = (statistics.median(setups), len(setups))
        values["round_ratio_p50"] = (statistics.median(ratios), len(ratios))
        peak, memory_round = peak_memory_mb(wl.round)
        values["peak_mem_mb"] = (peak, 1)
        later = [memory_round]
        phase("memory")
    elif not parallel:
        with tracer.installed(tracing.targets(lq)):
            later = timed_rounds(lambda: wl.round(tracer), args.seconds)
        units = len(later) * wl.units_per_round
        values.update({k: (v, units) for k, v in layer_metrics(tracer, units).items()})
        overhead = _p50([r.seconds for r in later]) / _p50([r.seconds for r in rounds]) - 1.0
        values["trace.overhead_frac"] = (overhead, len(later))
        values["evaluation.parallel_efficiency"] = (0.0, 0)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_csv(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
        phase("traced")
    else:
        # spans inside process-pool workers are not observed: only the ratio
        values.update({k: (0.0, 0) for k in layer_metrics(tracer, 1)})
        values["trace.overhead_frac"] = (0.0, 0)
        efficiency = _p50([r.seconds for r in serial]) / (
            2.0 * _p50([r.seconds for r in rounds])
        )
        values["evaluation.parallel_efficiency"] = (efficiency, len(rounds))

    measured = rounds + serial + later
    mismatched = sum(r.digest != first.digest for r in measured)
    if mismatched:
        problems.append(f"{mismatched} of {len(measured)} rounds changed the output bytes")

    failures = Counter()
    for r in rounds + serial:
        failures.update(r.failures)
    classes = wl.error_classes(failures) if isinstance(wl, EquateCsv) else {}
    phase("failure classes")
    failure_rows = [
        {"operation": op, "error": classes.get(op, cls), "message": msg, "count": n}
        for (op, cls, msg), n in sorted(failures.items())
    ]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(values):
        value, n = values[name]
        print(f"{name:<44} {value:>16.6f} {units.get(name, ''):<8} n={n}")
    for row in failure_rows:
        print(f"failure: {row['operation']} x{row['count']}: {row['error']}: {row['message']}")
    for problem in problems:
        print(f"check failed: {problem}")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    record = {
        "machine": machine_record(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
        "phase_seconds": phases,
        "samples": {name: n for name, (_, n) in sorted(values.items())},
        "failures": failure_rows,
        "traced_errors": [
            {"span": span, "error": err, "count": n}
            for (span, err), n in sorted(tracer.escaped_errors().items())
        ],
        "problems": problems,
    }
    print("run record: " + json.dumps(record, sort_keys=True))
    attempted, failed = wl.operations([first, *measured])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name][0], "unit": units[name]} for name in wanted
        },
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "localeq" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no localeq sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    lq, lq_ref = load_localeq()
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        try:
            run(argparse.Namespace(**{**vars(args), "workload": name}), lq, lq_ref, spec,
                work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only when no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
