"""The benchmark's tracer (bench/tracing.py) still finds every name it wraps.

The tracer patches ``owner.__dict__[attr]`` for each target, so a refactor
that renames or drops a traced function makes ``bench/run.py --trace 1``
fail with a KeyError. These tests catch that here instead.
"""

import importlib.util
from pathlib import Path

import localeq
import localeq.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_tracing().targets(localeq)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing


def test_tracer_installs_observes_and_restores(tmp_path, capsys):
    tracing = load_tracing()
    targets = tracing.targets(localeq)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    data = tmp_path / "data.csv"
    data.write_text("group,total,anch\nX,2,1\nX,4,1\nY,1,1\nY,3,1\n", encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        rc = localeq.cli.main(
            ["equate", "--method", "anchor", "--data", str(data),
             "--schema", "form:group,score:total,anchor:anch", "--out-dir", str(tmp_path)]
        )
    assert rc == 0
    assert tracer.counts["parse_dataset.rows"] == 4
    calls, _ = tracer.summary()
    assert calls["cli.parse_dataset"] == 1
    assert calls["equating.anchor_family"] == 1
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before
