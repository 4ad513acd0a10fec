"""Golden bytes: the CLI's reports for a fixed seed stay byte-identical.

``tests/golden/SHA256SUMS`` pins the SHA-256 of every file that
``simulate`` (two small scenarios, all four methods, one worker), the six
linear and step-equipercentile ``equate`` methods and ``diagnose`` write for
the inputs beside it. A change that is meant to alter these bytes must say
so and regenerate the digests explicitly:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
from pathlib import Path

import pytest

from localeq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SUMS = GOLDEN / "SHA256SUMS"
SCHEMA = "form:group,score:total,anchor:anch,num:c1,num:c2,cat:c3"
EQUATE_METHODS = (
    "anchor",
    "strat",
    "ipw",
    "equipercentile-anchor",
    "equipercentile-strat",
    "equipercentile-ipw",
)
# output subdirectory -> CLI arguments (without --out-dir)
COMMANDS = {
    "simulate": ["simulate", "--config", str(GOLDEN / "study.cfg")],
    **{
        method: ["equate", "--method", method, "--strata", "6",
                 "--data", str(GOLDEN / "scores.csv"), "--schema", SCHEMA]
        for method in EQUATE_METHODS
    },
    "diagnose": ["diagnose", "--strata", "3,6",
                 "--data", str(GOLDEN / "scores.csv"), "--schema", SCHEMA],
}


def digests(name, out_root):
    """Run one command into ``out_root/name``; sha256 per written file."""
    out = Path(out_root) / name
    assert main(COMMANDS[name] + ["--out-dir", str(out)]) == 0
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
