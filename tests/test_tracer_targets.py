"""The benchmark tracer's targets exist in graphgeo.

``perfbench/tracer.py`` wraps graphgeo functions by name and reports a name
it cannot find as absent instead of failing.  This test reads the tracer's
layer table (without installing it) and requires every target to resolve
the way the tracer resolves it, so that deleting or renaming a traced
function fails here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _targets() -> list[str]:
    return [t for layer in _tracer_module().LAYERS for t in layer.targets]


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_resolves(target):
    modname, _, path = target.partition(":")
    owner = importlib.import_module(f"graphgeo.{modname}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = owner.__dict__.get(name)
        assert owner is not None, f"{target}: no {name} in graphgeo.{modname}"
    # the tracer looks names up in the owner's own namespace, not its bases
    assert callable(owner.__dict__.get(attr)), f"{target} does not resolve"
