"""tools/bench_pairs.py keeps only runs whose outputs passed the benchmark's checks."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(monkeypatch, returncode, stdout):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, returncode, stdout, "a traceback")

    monkeypatch.setattr(subprocess, "run", run)


def result_line(correct):
    return json.dumps({"correct": correct, "attempted": 80, "failed": 0,
                       "metrics": {"round_ratio_p50": {"value": 1.0, "unit": "ratio"}}})


def test_a_correct_run_is_kept(monkeypatch, tmp_path):
    tool = load_bench_pairs()
    fake_run(monkeypatch, 0, "setup_s 0.1\n" + result_line(True) + "\n")
    assert tool.run_once(tmp_path, "study-default", 1, 15)["correct"] is True


def test_a_run_that_failed_its_checks_stops_the_tool(monkeypatch, tmp_path):
    # bench/run.py exits 0 when its checks fail; only the last line says so
    tool = load_bench_pairs()
    checks = ["check failed: 1 of 3 rounds changed the output bytes",
              "check failed: the curve is not increasing"]
    fake_run(monkeypatch, 0, "\n".join(["setup_s 0.1", *checks, result_line(False)]) + "\n")
    with pytest.raises(SystemExit) as exc:
        tool.run_once(tmp_path, "equate-csv", 3, 15)
    message = str(exc.value.code)
    assert "bench/run.py --workload equate-csv --seed 3 --seconds 15 --trace 0" in message
    assert message.splitlines()[1:] == checks


def test_a_non_zero_exit_stops_the_tool(monkeypatch, tmp_path):
    tool = load_bench_pairs()
    fake_run(monkeypatch, 1, "")
    with pytest.raises(SystemExit, match="exited 1\na traceback"):
        tool.run_once(tmp_path, "study-default", 1, 15)
