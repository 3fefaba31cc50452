"""Every span target of the benchmark's tracer names a function or method that exists.

The tracer skips a target it cannot find and records it as missing, so a
renamed function would silently drop out of the per-layer metrics.  The
tracer is read from its file, outside the package, without changing it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda target: target[0])
def test_target_is_a_module_function_or_a_class_method(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = vars(module).get(owner_name)
        assert inspect.isclass(owner), f"{module_name}.{owner_name} is not a class"
    else:
        owner = module
    assert inspect.isfunction(vars(owner).get(name)), f"{module_name}.{attr} is not a function"
