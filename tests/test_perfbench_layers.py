"""The benchmark's traced runs wrap the package functions listed in
perfbench/traced.py's LAYERS; a rename in the package must not leave one
of them pointing at nothing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(short, attr) for short, attr, _ in mod.LAYERS]


@pytest.mark.parametrize("short,attr", _layers(), ids=lambda v: v)
def test_traced_layer_resolves(short, attr):
    obj = importlib.import_module(f"quditctx.{short}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
