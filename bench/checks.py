"""Output checks for the benchmark, and a self-test that they catch faults.

Each check returns a list of problems (empty when the output is good), so
one run reports every fault it finds instead of stopping at the first.
"""

from __future__ import annotations

import csv
import hashlib
import math
import tempfile
from pathlib import Path


def digest_files(directory) -> str:
    """sha256 over the relative paths and bytes of every file under a directory."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def check_same_digest(label, expected, actual):
    if expected != actual:
        return [f"{label}: digest {actual[:12]} differs from {expected[:12]}"]
    return []


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_curve(path):
    """An equate curve: finite equated scores, non-decreasing in raw score."""
    rows = _rows(path)
    if rows[:1] != [["raw_score", "equated", "equated_minus_raw"]] or len(rows) < 2:
        return [f"{path.name}: malformed curve file"]
    try:
        points = sorted((int(r[0]), float(r[1])) for r in rows[1:])
    except (ValueError, IndexError):
        return [f"{path.name}: unparseable curve row"]
    equated = [eq for _, eq in points]
    if not all(math.isfinite(v) for v in equated):
        return [f"{path.name}: non-finite equated score"]
    drops = [i for i in range(1, len(equated)) if equated[i] < equated[i - 1]]
    if drops:
        raw = points[drops[0]][0]
        return [f"{path.name}: equated score decreases at raw score {raw}"]
    return []


def check_family(path):
    """Every fitted linear family row has a positive slope."""
    problems = []
    for row in _rows(path)[1:]:
        index, slope, omitted = row[0], row[1], row[-1]
        if omitted == "0" and slope and not float(slope) > 0.0:
            problems.append(f"{path.name}: index {index} has slope {slope}")
    return problems


def check_equate_output(out_dir, method, linear):
    """Family table plus at least one curve, each well formed."""
    out_dir = Path(out_dir)
    family = out_dir / f"{method}_family.csv"
    if not family.is_file():
        return [f"{method}: no family table written"]
    problems = check_family(family)
    if linear:
        fitted = [r for r in _rows(family)[1:] if r[-1] == "0"]
        if any(not r[1] for r in fitted):
            problems.append(f"{method}: fitted linear row without a slope")
    curves = sorted(out_dir.glob(f"{method}_p*_index*.csv"))
    if not curves:
        problems.append(f"{method}: no curve written")
    for curve in curves:
        problems += check_curve(curve)
    return problems


def check_balance_tables(out_dir, strata_counts, n_covariates):
    """Each balance_K{K}.csv has K rows and one column per covariate."""
    problems = []
    for k in strata_counts:
        path = Path(out_dir) / f"balance_K{k}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        rows = _rows(path)
        shape = (len(rows) - 1, {len(r) - 1 for r in rows})
        if shape != (k, {n_covariates}):
            problems.append(f"{path.name}: shape {shape}, expected ({k}, {n_covariates})")
    return problems


def self_test(scratch_dir):
    """Feed the checks known-bad outputs; return the faults they missed."""
    missed = []
    Path(scratch_dir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        tmp = Path(tmp)

        def curve(name, values):
            path = tmp / name
            lines = ["raw_score,equated,equated_minus_raw"]
            lines += [f"{i},{v!r},{v - i!r}" for i, v in enumerate(values)]
            path.write_text("\n".join(lines) + "\n")
            return path

        if check_curve(curve("good.csv", [0.5, 1.5, 1.5, 3.0])):
            missed.append("a good curve was rejected")
        if not check_curve(curve("nan.csv", [0.5, float("nan"), 2.0, 3.0])):
            missed.append("corrupted (non-finite) curve")
        if not check_curve(curve("dip.csv", [0.5, 1.5, 1.4, 3.0])):
            missed.append("non-monotone curve")
        family = tmp / "anchor_family.csv"
        family.write_text("index,slope,mu_y,mu_x,omitted\n3,-0.5,1.0,2.0,0\n")
        if not check_family(family):
            missed.append("non-positive slope in a fitted family row")
        (tmp / "a").mkdir()
        (tmp / "a" / "report.csv").write_bytes(b"x,1\n")
        before = digest_files(tmp / "a")
        (tmp / "a" / "report.csv").write_bytes(b"x,2\n")
        if not check_same_digest("report", before, digest_files(tmp / "a")):
            missed.append("mismatched report digest")
    return missed


if __name__ == "__main__":
    faults = self_test(Path(__file__).resolve().parent.parent / ".bench_work")
    for fault in faults:
        print(f"not caught: {fault}")
    print("self-test", "failed" if faults else "passed")
    raise SystemExit(1 if faults else 0)
