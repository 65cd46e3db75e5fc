"""Every library function the traced benchmark wraps still exists.

`benchmarks/spans.py` names its layers as "module:function" strings and
only warns at run time when one is gone, so a rename or removal in the
library would silently drop a layer from the traced metrics.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("hypermult_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [target for layer in load_spans().LAYERS for target in layer.targets]


def test_spans_name_some_layers():
    assert "_linalg:det" in TARGETS
    assert len(TARGETS) >= 15


@pytest.mark.parametrize("target", TARGETS)
def test_traced_layer_target_is_a_library_function(target):
    mod_name, fn_name = target.split(":")
    module = importlib.import_module(f"hypermult.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"hypermult.{mod_name}.{fn_name} is gone"
