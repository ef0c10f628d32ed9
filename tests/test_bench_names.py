"""The names the benchmark harness looks up in the package.

`bench/tracer.py` resolves every `LAYERS` entry with getattr and wraps the
`PROPERTY` at its class, and `bench/child.py` reads
`errors.StepTooLargeWarning` on every run. Deleting or renaming one of them
breaks the benchmark, so the contract is checked here, reading the tracer's
own tables.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from enaqt import errors

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("no bench/ next to the tests")
    return runpy.run_path(str(TRACER))  # compiled from source: writes no bytecode cache


def test_every_layer_name_is_callable(tracer):
    names = [(layer, fn) for layer, fns in tracer["LAYERS"].items() for fn in fns]
    assert names
    for layer, fn in names:
        assert callable(getattr(importlib.import_module(f"enaqt.{layer}"), fn)), f"enaqt.{layer}.{fn}"


def test_traced_property_is_a_property(tracer):
    layer, cls_name, attr = tracer["PROPERTY"]
    cls = getattr(importlib.import_module(f"enaqt.{layer}"), cls_name)
    assert isinstance(vars(cls)[attr], property)


def test_step_warning_class():
    assert issubclass(errors.StepTooLargeWarning, Warning)
