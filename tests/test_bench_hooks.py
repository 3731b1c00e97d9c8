"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracer.py`` looks each ``(module, attribute)`` of ``HOOKS`` up
when a traced run starts; a rename would otherwise surface only in the
minutes-long ``perfbench/test_perfbench.py``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in _hooks()])
def test_hook_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = vars(owner)[part]
    assert callable(owner)
