"""The layers of the traced benchmark (``perfbench/tracing.py``) name
library functions, so a layer function renamed or deleted in the library
fails here rather than in a traced benchmark run.  The module is read,
never changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_layer_is_a_library_function(tracing):
    for mod, fn in tracing.LAYERS:
        module = importlib.import_module(f"hypercongruence.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_every_observer_names_a_layer(tracing):
    layers = {f"{mod}.{fn}" for mod, fn in tracing.LAYERS}
    assert set(tracing.OBSERVERS) <= layers
