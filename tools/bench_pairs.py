"""Paired before/after benchmark runs, written as a BENCH_<pr>.json file.

    python3 tools/bench_pairs.py --pr N

Copies two source trees under ``.bench_pairs/`` at the repository root, so
both sides run from fresh directories on identical terms: the parent, the
committed files of HEAD, exported with ``git archive``; and the change, the
working tree's files that git tracks or would track (ignored files left
out). The directory is removed at exit. Then, for every workload of
BENCHMARK.json and every seed 1-10, it runs one pair of ``bench/run.py
--workload W --seed S --seconds T --trace 0``, T being BENCHMARK.json's
``run_seconds``, one run per side, one run at a time. Pair i runs the
parent first when i is even and the change first when i is odd (ABBA).
The JSON line each run prints is kept as is.

The output holds ``what``, ``order``, ``machine``, ``seeds``, ``summary`` and
``runs``. ``summary`` gives, per workload and end-to-end metric, each side's
median and quartiles (``statistics.quantiles``, exclusive method) and the
number of pairs in which the change read lower, ties counting for neither.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_parent(into: Path) -> Path:
    """The committed files of HEAD, copied under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def export_change(into: Path) -> Path:
    """The working tree's tracked and untracked, not ignored, files, copied
    under ``into``."""
    into.mkdir(parents=True)
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():  # a deleted file stays listed until staged
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``bench/run.py`` run in ``tree``. A run that
    exits non-zero, or whose result reads ``"correct": false`` (bench/run.py
    exits 0 then), stops the tool, naming the command."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(command)} in {tree} exited {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        checks = [line for line in lines if line.startswith("check failed:")]
        sys.exit("\n".join([f"error: {' '.join(command)} in {tree} failed its checks", *checks]))
    return result


def summarize(runs: list, metrics: list) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        summary[workload] = {}
        for metric in metrics:
            sides = {
                side: [pair[side][metric]["value"] for pair in pairs.values()]
                for side in ("parent", "change")
            }
            entry = {"pairs": len(pairs)}
            for side, values in sides.items():
                quartiles = statistics.quantiles(values, n=4)
                entry[f"{side}_median"] = round(statistics.median(values), 4)
                entry[f"{side}_quartiles"] = [round(quartiles[0], 4), round(quartiles[2], 4)]
            entry["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(sides["parent"], sides["change"])
            )
            summary[workload][metric] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    parent = git("rev-parse", "--short", "HEAD")

    work = ROOT / ".bench_pairs"
    if work.exists():
        sys.exit(f"error: {work} exists; another run may be using it")
    runs = []
    try:
        trees = {"parent": export_parent(work / "parent"),
                 "change": export_change(work / "change")}
        for workload in workloads:
            for pair, seed in enumerate(SEEDS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "pair": pair, "result": result})
                    value = result["metrics"]["round_ratio_p50"]["value"]
                    print(f"{workload} seed {seed} {side}: round_ratio_p50 {value:.4f}",
                          flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = (f"{os.cpu_count()}-vCPU {platform.system()}, Python {platform.python_version()}"
               f", numpy {np.__version__}; the runs are sequential")
    out = {
        "what": (f"bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                 f"parent commit {parent} against the working tree, each run from its own copy"),
        "order": "ABBA: pair i runs the parent first when i is even and the change first "
                 "when i is odd",
        "machine": machine,
        "seeds": "1-10 on every workload",
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
