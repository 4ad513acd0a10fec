"""Every walkthrough under demos/, and the README's library quick start, runs
to completion against the package."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from localeq.simulation import SimulationConfig, gen_population

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the block's inputs are the README's column names, taken from a seeded
    # population with two covariates: a numeric one and a categorical one
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    config = SimulationConfig(covariate_categories=(3, 4), beta=(0.0, -0.35, 0.1, -0.1))
    pop = gen_population(config, np.random.default_rng(0))
    names = {"form": pop.form, "score": pop.score, "anchor": pop.anchor_score,
             "age": pop.covariates[:, 0], "track_level": pop.covariates[:, 1]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block.group(1), "README.md", "exec"), names)
    assert names["equated"] == pytest.approx(31.6675, abs=1e-4)
    assert names["family"].cells.tolist() == list(range(1, 9))  # one IPW map per stratum
