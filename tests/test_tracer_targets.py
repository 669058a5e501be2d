"""Every name the benchmark's tracer wraps (perfbench/tracer.py) exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in tracer.TARGETS])
def test_target_resolves_as_the_tracer_installs_it(target):
    # a dotted path names a key of the class's own __dict__, any other path
    # a module attribute
    _, module_name, path, _ = target
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, name = path.split(".")
        assert name in vars(getattr(module, cls_name))
    else:
        assert hasattr(module, path)
