"""Golden bytes: the CLI's reports for a fixed seed stay byte-identical.

``tests/golden/SHA256SUMS`` pins the SHA-256 of every file that
``simulate`` (two small scenarios, all four methods, one worker; and one
32-replication, 10-bin scenario on two worker processes), every linear and
step-equipercentile ``equate`` method the CLI offers (``cli.EQUATE_METHODS``,
so a new one cannot ship without a digest), the anchor and IPW
kernel-equipercentile ``equate`` methods (bandwidth 0.6) and ``diagnose``
write for the inputs beside it. ``equate`` and ``diagnose`` must write the
same bytes when ``scores.csv`` is rewritten with a byte-order mark, CRLF
line ends and every field quoted, and, in a fresh process, under another OpenBLAS
kernel or with numpy's AVX2 paths in place of its AVX-512 ones, except the commands
whose bytes still follow the CPU (``CPU_DEPENDENT``).
A change that is meant to alter these bytes must say so and regenerate the digests
explicitly:

    PYTHONPATH=src python tests/test_golden.py
"""

import codecs
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from localeq.cli import EQUATE_METHODS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SUMS = GOLDEN / "SHA256SUMS"
SCORES = str(GOLDEN / "scores.csv")
SCHEMA = "form:group,score:total,anchor:anch,num:c1,num:c2,cat:c3"
# output subdirectory -> CLI arguments (without --out-dir)
COMMANDS = {
    "simulate": ["simulate", "--config", str(GOLDEN / "study.cfg")],
    "simulate-parallel": ["simulate", "--config", str(GOLDEN / "study_parallel.cfg")],
    **{
        method: ["equate", "--method", method, "--strata", "6",
                 "--data", SCORES, "--schema", SCHEMA]
        for method in EQUATE_METHODS
    },
    **{
        f"{method}-kernel": ["equate", "--method", method, "--bandwidth", "0.6",
                             "--strata", "6", "--data", SCORES,
                             "--schema", SCHEMA]
        for method in ("equipercentile-anchor", "equipercentile-ipw")
    },
    "diagnose": ["diagnose", "--strata", "3,6",
                 "--data", SCORES, "--schema", SCHEMA],
}
# every propensity, so every IPW weight, still moves with the CPU: fit_logistic's
# BLAS products and numpy's exp dispatch (ROADMAP item 2)
CPU_DEPENDENT = ("simulate", "simulate-parallel", "ipw", "equipercentile-ipw-kernel")
# OpenBLAS x86 kernels to rerun under: Prescott (SSE3) runs on any x86-64 CPU,
# Haswell needs AVX2
CORETYPES = ["Prescott"] + (["Haswell"] if __cpu_features__.get("AVX2") else [])
# a fresh process prints the digests of the commands argv names, into argv[1]
PRINT_DIGESTS = """
import contextlib, io, json, sys
import test_golden
with contextlib.redirect_stdout(io.StringIO()):
    found = {}
    for name in sys.argv[2:]:
        found.update(test_golden.digests(name, sys.argv[1]))
print(json.dumps(found))
"""


def digests(name, out_root, data=SCORES):
    """Run one command, ``data`` in place of scores.csv, into ``out_root/name``;
    sha256 per written file."""
    out = Path(out_root) / name
    argv = [data if arg == SCORES else arg for arg in COMMANDS[name]]
    assert main(argv + ["--out-dir", str(out)]) == 0
    return {
        f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def pinned(name):
    pairs = (line.split("  ", 1) for line in SUMS.read_text().splitlines())
    return {path: digest for digest, path in pairs if path.startswith(f"{name}/")}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_outputs_match_golden_digests(name, tmp_path, capsys):
    expected = pinned(name)
    assert expected, f"no golden digests for {name}"
    assert digests(name, tmp_path) == expected


@pytest.mark.parametrize("name", [name for name in COMMANDS if SCORES in COMMANDS[name]])
def test_quoted_crlf_file_with_a_byte_order_mark_matches(name, tmp_path, capsys):
    lines = Path(SCORES).read_text(encoding="utf-8").splitlines()
    quoted = "".join('"' + '","'.join(line.split(",")) + '"\r\n' for line in lines)
    data = tmp_path / "scores.csv"
    data.write_bytes(codecs.BOM_UTF8 + quoted.encode("utf-8"))
    assert digests(name, tmp_path / "out", str(data)) == pinned(name)


def fresh_process_digests(env, tmp_path):
    """The digests of every command but the ``CPU_DEPENDENT`` ones, from a fresh process
    under ``env``, against their pins: OpenBLAS and numpy read their CPU paths once, at load."""
    names = [name for name in COMMANDS if name not in CPU_DEPENDENT]
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", PRINT_DIGESTS, str(tmp_path)]
        + names,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {k: v for name in names for k, v in pinned(name).items()}


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86 kernels"
)
@pytest.mark.parametrize("coretype", CORETYPES)
def test_digests_do_not_depend_on_the_openblas_kernel(coretype, tmp_path):
    fresh_process_digests({"OPENBLAS_CORETYPE": coretype}, tmp_path)


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="numpy dispatches no AVX-512")
def test_digests_do_not_depend_on_numpy_avx512_dispatch(tmp_path):
    # numpy's AVX2 paths in place of its AVX-512 ones; a name numpy 2.4.6 does not
    # dispatch raises an ImportWarning, an error in the fresh process
    fresh_process_digests({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, tmp_path)


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout
    from io import StringIO

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        found = {}
        for name in COMMANDS:
            found.update(digests(name, tmp))
    SUMS.write_text("".join(f"{d}  {p}\n" for p, d in sorted(found.items())))
    print(f"wrote {len(found)} digests to {SUMS}", file=sys.stderr)
